//! Turns timed runs into named metrics.
//!
//! End-to-end metrics come from untraced runs: per-scenario and total
//! host run time and set-up time at the reference machine speed, and
//! peak heap. Per-layer metrics come from
//! traced runs: each seam's share of host time, engine and protocol
//! counters from `SimStats` and the registry, and the unit costs.
//! Every time is a median over the run's iterations.

use crate::ledger::Layer;
use crate::unit::Costs;
use crate::workload::ScenarioRun;
use crate::Scn;
use obs::MetricsRegistry;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median of `v` (sorts it). Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Host times of one untraced scenario run.
#[derive(Clone, Copy, Debug)]
pub struct Times {
    /// Set-up, in ns.
    pub setup_ns: u64,
    /// `Sim::run_until`, in ns.
    pub run_ns: u64,
}

impl From<&ScenarioRun> for Times {
    fn from(r: &ScenarioRun) -> Self {
        Times {
            setup_ns: r.setup_ns,
            run_ns: r.run_ns,
        }
    }
}

/// End-to-end metrics over untraced iterations of one workload,
/// grouped by sub-seed (`iters[k]` holds sub-seed `k`'s iterations).
/// Each time is the mean over sub-seeds of the median over that
/// sub-seed's iterations, scaled by `factor` (see [`crate::calib`]);
/// `peak_heap` is the largest live heap any iteration reached, in bytes.
pub fn end_to_end(iters: &[Vec<Vec<Times>>], peak_heap: usize, factor: f64) -> Vec<Metric> {
    let time = |f: &dyn Fn(&[Times]) -> u64| {
        let medians = iters.iter().map(|its| median_of(its, |it| secs(f(it))));
        factor * medians.sum::<f64>() / iters.len() as f64
    };
    let mut out = vec![metric(
        "run_s",
        "s",
        time(&|it| it.iter().map(|t| t.run_ns).sum()),
    )];
    for (i, scn) in Scn::ALL.into_iter().enumerate() {
        out.push(metric(
            format!("run_s.{}", scn.name()),
            "s",
            time(&|it| it[i].run_ns),
        ));
    }
    out.push(metric(
        "setup_s",
        "s",
        time(&|it| it.iter().map(|t| t.setup_ns).sum()),
    ));
    out.push(metric(
        "peak_heap_mib",
        "MiB",
        peak_heap as f64 / (1024.0 * 1024.0),
    ));
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn counter(m: &MetricsRegistry, name: &str) -> u64 {
    m.counter_value(name).unwrap_or(0)
}

fn hist_count(m: &MetricsRegistry, name: &str) -> u64 {
    m.hist_get(name).map_or(0, |h| h.count())
}

fn hist_sum(m: &MetricsRegistry, name: &str) -> u64 {
    m.hist_get(name).map_or(0, |h| h.sum())
}

/// Host ns of `Sim::run_until` outside every seam: engine, scheduler,
/// links, host stack and TCP.
fn netsim_self_ns(r: &ScenarioRun) -> u64 {
    r.run_ns.saturating_sub(r.spans.total_ns())
}

/// Per-layer metrics: `traced` and `untraced` are matching iterations
/// of one workload, `costs` its unit costs.
pub fn per_layer(
    traced: &[Vec<ScenarioRun>],
    untraced: &[Vec<ScenarioRun>],
    costs: &Costs,
) -> Vec<Metric> {
    let total_run =
        |its: &[Vec<ScenarioRun>]| median_of(its, |it| secs(it.iter().map(|r| r.run_ns).sum()));
    let mut out = vec![metric(
        "trace.overhead",
        "ratio",
        total_run(traced) / total_run(untraced) - 1.0,
    )];

    let setup_share = |part: &dyn Fn(&ScenarioRun) -> u64| {
        median_of(traced, |it| {
            let setup: u64 = it.iter().map(|r| r.setup_ns).sum();
            100.0 * ratio(it.iter().map(part).sum(), setup)
        })
    };
    out.push(metric(
        "setup.keygen.share",
        "%",
        setup_share(&|r| r.split.keygen_ns),
    ));
    out.push(metric(
        "setup.dataset.share",
        "%",
        setup_share(&|r| r.split.dataset_ns),
    ));
    out.push(metric(
        "setup.topology.share",
        "%",
        setup_share(&|r| {
            r.setup_ns
                .saturating_sub(r.split.keygen_ns + r.split.dataset_ns)
        }),
    ));

    for (i, scn) in Scn::ALL.into_iter().enumerate() {
        let s = scn.name();
        let runs: Vec<&ScenarioRun> = traced.iter().map(|it| &it[i]).collect();
        let med = |f: &dyn Fn(&ScenarioRun) -> f64| {
            median(&mut runs.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let share = |ns: u64, r: &ScenarioRun| 100.0 * ratio(ns, r.run_ns);
        // Counts repeat exactly across iterations; take the first.
        let first = runs[0];
        let (st, m) = (&first.stats, &first.metrics);

        out.push(metric(
            format!("trace.run_s.{s}"),
            "s",
            med(&|r| secs(r.run_ns)),
        ));
        out.push(metric(
            format!("netsim.self_s.{s}"),
            "s",
            med(&|r| secs(netsim_self_ns(r))),
        ));
        out.push(metric(
            format!("netsim.share.{s}"),
            "%",
            med(&|r| share(netsim_self_ns(r), r)),
        ));
        let layers: &[Layer] = if scn == Scn::Hip {
            &Layer::ALL
        } else {
            &Layer::ALL[1..]
        };
        for &layer in layers {
            let n = layer.name();
            out.push(metric(
                format!("{n}.share.{s}"),
                "%",
                med(&|r| share(r.spans.self_ns(layer), r)),
            ));
            out.push(metric(
                format!("{n}.calls.{s}"),
                "count",
                first.spans.calls(layer) as f64,
            ));
            if matches!(layer, Layer::Shim | Layer::Loadgen) {
                out.push(metric(
                    format!("{n}.self_s.{s}"),
                    "s",
                    med(&|r| secs(r.spans.self_ns(layer))),
                ));
                out.push(metric(
                    format!("{n}.ns_per_call.{s}"),
                    "ns",
                    med(&|r| ratio(r.spans.self_ns(layer), r.spans.calls(layer))),
                ));
            }
        }

        out.push(metric(
            format!("netsim.engine.dispatched.{s}"),
            "count",
            st.dispatched as f64,
        ));
        out.push(metric(
            format!("netsim.engine.scheduled.{s}"),
            "count",
            st.scheduled as f64,
        ));
        out.push(metric(
            format!("netsim.engine.stale_ratio.{s}"),
            "ratio",
            ratio(st.stale_timer_pops, st.scheduled),
        ));
        out.push(metric(
            format!("netsim.engine.coalesced_share.{s}"),
            "ratio",
            ratio(st.coalesced_events, st.dispatched),
        ));
        out.push(metric(
            format!("netsim.engine.ns_per_event.{s}"),
            "ns",
            med(&|r| ratio(netsim_self_ns(r), r.stats.dispatched)),
        ));
        out.push(metric(
            format!("netsim.tcp.connect.{s}"),
            "count",
            hist_count(m, "tcp.connect") as f64,
        ));
        out.push(metric(
            format!("netsim.tcp.accept.{s}"),
            "count",
            hist_count(m, "tcp.accept") as f64,
        ));
        out.push(metric(
            format!("netsim.tcp.rtx_ratio.{s}"),
            "ratio",
            ratio(counter(m, "tcp.rtx"), hist_count(m, "engine.pkt.bytes")),
        ));
        out.push(metric(
            format!("netsim.link.drops.{s}"),
            "count",
            counter(m, "link.drops") as f64,
        ));
        if scn == Scn::Hip {
            out.push(metric(
                format!("core.esp.encrypt.{s}"),
                "count",
                hist_count(m, "esp.encrypt") as f64,
            ));
            out.push(metric(
                format!("core.esp.out_bytes.{s}"),
                "B",
                hist_sum(m, "esp.out_bytes") as f64,
            ));
            let drops = counter(m, "esp.drop.replay") + counter(m, "esp.drop.auth");
            out.push(metric(format!("core.esp.drops.{s}"), "count", drops as f64));
            out.push(metric(
                format!("core.hip.bex.{s}"),
                "count",
                hist_count(m, "hip.bex") as f64,
            ));
            out.push(metric(
                format!("core.hip.puzzle_attempts.{s}"),
                "count",
                hist_sum(m, "hip.puzzle.attempts") as f64,
            ));
        }
        out.push(metric(
            format!("websvc.proxy.fwd.{s}"),
            "count",
            counter(m, "proxy.fwd") as f64,
        ));
        out.push(metric(
            format!("websvc.web.render.{s}"),
            "count",
            hist_count(m, "web.render") as f64,
        ));
        out.push(metric(
            format!("websvc.db.service.{s}"),
            "count",
            hist_count(m, "db.service") as f64,
        ));
    }
    out.extend(costs.iter().map(|&(name, unit, v)| metric(name, unit, v)));
    out
}

/// The JSON line the report ends with.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit of Rust's shortest
/// round-trip formatting.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}
