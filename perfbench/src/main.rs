//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or `all` of them) for about `--seconds` of host
//! time, checks the simulated results, prints every metric by name and
//! unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones.

use perfbench::report::{self, Metric, Times};
use perfbench::tlsbulk::RECORD;
use perfbench::unit::{self, Sizes};
use perfbench::workload::{
    expected_fingerprint, fingerprint, run_scenario, run_workload, sub_seeds, ScenarioRun,
    Workload, SUB_SEEDS,
};
use perfbench::{calib, heap, Scn};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!(
            "--seconds {}: expected a positive number",
            args.seconds
        ));
    }
    Ok(args)
}

/// Checks each run's fingerprint: against the recorded one for the
/// seed when there is one, and against the first run of the same seed.
struct Checker {
    workload: Workload,
    seed: u64,
    expected: Option<u64>,
    first: HashMap<u64, u64>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            workload,
            seed,
            expected: expected_fingerprint(workload, seed),
            first: HashMap::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, label: &str, seed: u64, runs: &[ScenarioRun]) {
        let fp = fingerprint(runs.iter().map(|r| &r.outcome));
        for r in runs {
            self.attempted += r.outcome.attempted;
            self.failed += r.outcome.failed;
            if r.outcome.completed == 0 {
                self.problems.push(format!(
                    "{label} seed {seed} {}: no operation completed",
                    r.scn.name()
                ));
            }
        }
        let recorded = self.expected.filter(|_| seed == self.seed);
        if let Some(want) = self
            .first
            .get(&seed)
            .copied()
            .or(recorded)
            .filter(|&want| want != fp)
        {
            self.problems.push(format!(
                "{label} seed {seed}: fingerprint {fp:016x}, expected {want:016x}"
            ));
        }
        self.first.entry(seed).or_insert(fp);
    }

    fn report(&self) {
        let w = self.workload.name();
        let fp = self
            .first
            .get(&self.seed)
            .map_or("none".into(), |f| format!("{f:016x}"));
        match self.expected {
            Some(_) => {
                println!("check {w}: fingerprint {fp} against the recorded one and every repeat")
            }
            None => println!(
                "check {w}: fingerprint {fp} against every repeat (no recorded one for this seed)"
            ),
        }
        for p in &self.problems {
            println!("check {w}: FAILED {p}");
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<44} {:>16} ({}/{})",
            format!("{w}.error_ratio"),
            ratio,
            self.failed,
            self.attempted
        );
    }
}

/// Untraced: one warm-up iteration, then iterations until `budget`,
/// cycling through the seed's sub-seeds, with the calibration kernel
/// run between every two scenarios.
fn untraced(w: Workload, seed: u64, budget: Duration) -> (Checker, Vec<Metric>) {
    let mut chk = Checker::new(w, seed);
    chk.check("warm-up", seed, &run_workload(w, seed, false));
    let seeds = sub_seeds(seed);
    let start = Instant::now();
    let mut iters: Vec<Vec<Vec<Times>>> = vec![Vec::new(); SUB_SEEDS];
    let mut kernel_ns = vec![calib::kernel()];
    let mut peak_heap = 0;
    for i in 0.. {
        if i >= SUB_SEEDS && start.elapsed() >= budget {
            break;
        }
        let k = i % SUB_SEEDS;
        heap::reset_peak();
        let mut runs = Vec::new();
        for scn in Scn::ALL {
            runs.push(run_scenario(w, scn, seeds[k], false));
            peak_heap = peak_heap.max(heap::peak_bytes());
            kernel_ns.push(calib::kernel());
        }
        chk.check("untraced", seeds[k], &runs);
        iters[k].push(runs.iter().map(Times::from).collect());
    }
    let factor = calib::factor(&kernel_ns);
    println!(
        "{}: {} untraced iterations over {SUB_SEEDS} sub-seeds; machine speed factor {factor:.4}; raw seconds:",
        w.name(),
        iters.iter().map(Vec::len).sum::<usize>()
    );
    for m in report::end_to_end(&iters, peak_heap, 1.0)
        .iter()
        .filter(|m| m.unit == "s")
    {
        println!(
            "{:<44} {:>16.6} {} (raw)",
            format!("{}.{}", w.name(), m.name),
            m.value,
            m.unit
        );
    }
    (chk, report::end_to_end(&iters, peak_heap, factor))
}

/// Traced: alternating untraced and traced iterations until `budget`,
/// then the unit costs at the sizes the traced run saw.
fn traced(w: Workload, seed: u64, budget: Duration) -> (Checker, Vec<Metric>) {
    let mut chk = Checker::new(w, seed);
    let start = Instant::now();
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    while timed.is_empty() || start.elapsed() < budget {
        let runs = run_workload(w, seed, false);
        chk.check("untraced", seed, &runs);
        plain.push(runs);
        let runs = run_workload(w, seed, true);
        chk.check("traced", seed, &runs);
        timed.push(runs);
    }
    println!(
        "{}: {} traced and untraced iteration pairs",
        w.name(),
        timed.len()
    );
    let pkt = timed[0][Scn::Hip as usize]
        .metrics
        .hist_get("engine.pkt.bytes")
        .map(|h| (h.sum(), h.count()));
    let frame = pkt.map_or(0, |(sum, n)| sum / n.max(1)) as usize;
    let read_only = w == Workload::RubisChurn;
    let record = if w == Workload::BulkFlow {
        RECORD
    } else {
        unit::mean_response_bytes(read_only, seed)
    };
    let costs = unit::measure(
        Sizes {
            frame,
            record,
            read_only,
        },
        seed,
    );
    (chk, report::per_layer(&timed, &plain, &costs))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <rubis_keepalive|rubis_churn|bulk_flow|all> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let workloads = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::parse(&args.workload) {
        vec![w]
    } else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs_f64(args.seconds / workloads.len() as f64);
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut all = Vec::new();
    for &w in &workloads {
        let (chk, metrics) = if args.trace {
            traced(w, args.seed, budget)
        } else {
            untraced(w, args.seed, budget)
        };
        chk.report();
        for m in &metrics {
            println!(
                "{:<44} {:>16.6} {}",
                format!("{}.{}", w.name(), m.name),
                m.value,
                m.unit
            );
        }
        let ok = chk.problems.is_empty();
        correct &= ok;
        attempted += chk.attempted;
        // A run whose output check fails counts every operation as failed.
        failed += if ok { chk.failed } else { chk.attempted };
        let prefix = if workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        all.extend(metrics.into_iter().map(|m| Metric {
            name: format!("{prefix}{}", m.name),
            ..m
        }));
    }
    println!("{}", report::json_line(correct, attempted, failed, &all));
    ExitCode::SUCCESS
}
