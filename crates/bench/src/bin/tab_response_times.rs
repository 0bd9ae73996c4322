//! Regenerates the §V-B response-time comparison: httperf at 120
//! requests/second against a single web server + database (MySQL query
//! cache enabled). The paper reports mean response times of
//! **116.4 ms (Basic), 132.2 ms (HIP), 128.3 ms (SSL)**.
//!
//! Also reports per-stage latency quantiles per scenario and writes one
//! run manifest per scenario under `results/`.
//!
//! Usage: `cargo run -p bench --release --bin tab_response_times [--quick] [--trace-out <path>]`

use bench::report::{manifest, stage_table, table, write_csv, write_manifest, write_trace, Args, Flag};
use bench::tab_rt::{run_all_cells, run_cell, PAPER_RATE};
use netsim::SimDuration;
use websvc::Scenario;

const STAGES: [&str; 7] = [
    "hip.bex",
    "esp.encrypt",
    "esp.decrypt",
    "tcp.connect",
    "web.render",
    "db.service",
    "client.latency",
];

fn main() {
    let seed = 42u64;
    let args = Args::parse(&[Flag::Quick, Flag::TraceOut]);
    let (warmup, measure) = if args.quick {
        (SimDuration::from_secs(5), SimDuration::from_secs(20))
    } else {
        (SimDuration::from_secs(10), SimDuration::from_secs(60))
    };
    eprintln!(
        "tab_rt: httperf at {PAPER_RATE} req/s, 3 scenarios ({}s + {}s each; parallel)...",
        warmup.as_secs_f64(),
        measure.as_secs_f64()
    );
    let cells = run_all_cells(PAPER_RATE, seed, warmup, measure);
    let rows: Vec<_> = cells.iter().map(|c| c.row).collect();
    let paper = [("Basic", 116.4), ("HIP", 132.2), ("SSL", 128.3)];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let paper_ms = paper
                .iter()
                .find(|(n, _)| *n == r.scenario.label())
                .map(|(_, v)| format!("{v:.1}"))
                .unwrap_or_default();
            vec![
                r.scenario.label().to_string(),
                format!("{}", r.completed),
                format!("{:.1}", r.mean_ms),
                format!("{:.1}", r.stddev_ms),
                format!("{:.1}", r.p99_ms),
                paper_ms,
            ]
        })
        .collect();
    println!("\nResponse times at {PAPER_RATE} req/s (single web server, query cache ON):");
    println!(
        "{}",
        table(
            &["scenario", "completed", "mean ms", "stddev ms", "p99 ms", "paper mean ms"],
            &table_rows
        )
    );
    if let Ok(path) = write_csv(
        "tab_response_times",
        &["scenario", "completed", "mean_ms", "stddev_ms", "p99_ms", "paper_mean_ms"],
        &table_rows,
    ) {
        eprintln!("wrote {}", path.display());
    }
    for c in &cells {
        println!("per-stage latency, {}:", c.row.scenario.label());
        match stage_table(&c.metrics, &STAGES) {
            Some(t) => println!("{t}"),
            None => println!("  (no stage histograms recorded)"),
        }
        let mut m = manifest("tab_response_times", c.row.scenario.label(), seed);
        m.num("rate", PAPER_RATE)
            .num("warmup_secs", warmup.as_secs_f64())
            .num("measure_secs", measure.as_secs_f64())
            .num("completed", c.row.completed);
        write_manifest(m, c.wall_secs, c.dispatched, &c.metrics);
    }
    println!("paper: \"the response times and standard deviations were largely");
    println!("comparable... the performance degradation of HIP in comparison with");
    println!("SSL was largely due to the LSIs, used mainly for legacy compatibility\".");
    println!("The reproduction preserves the ordering Basic < SSL < HIP; absolute");
    println!("values differ (our base path is leaner than the paper's full LAMP stack).");

    if let Some(path) = args.trace_out {
        eprintln!("tracing a representative HIP run for {}...", path.display());
        let cell = run_cell(
            Scenario::HipLsi,
            PAPER_RATE,
            seed,
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            200_000,
        );
        write_trace(&cell.trace, &path);
    }
}
