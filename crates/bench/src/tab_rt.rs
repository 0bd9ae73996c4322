//! The response-time experiment (§V-B):
//!
//! "The experiments involved testing the performance of a single web
//! server connected to a database server, where we used the httperf
//! client to generate requests at a high rate (120 request/sec)...
//! MySQL query caching was enabled... The mean response times for
//! Basic, HIP and SSL cases were 116.4 ms, 132.2 ms and 128.3 ms
//! respectively."

use cloudsim::Flavor;
use netsim::{SimDuration, SimTime};
use std::time::Instant;
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::HttperfApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// The paper's request rate.
pub const PAPER_RATE: f64 = 120.0;

/// One scenario's measured response-time distribution.
#[derive(Clone, Copy, Debug)]
pub struct TabRtRow {
    /// Which security scenario.
    pub scenario: Scenario,
    /// Responses completed in the measurement window.
    pub completed: u64,
    /// Mean response time (ms).
    pub mean_ms: f64,
    /// Sample standard deviation (ms).
    pub stddev_ms: f64,
    /// 99th-percentile response time (ms).
    pub p99_ms: f64,
}

/// One scenario's row plus observability outputs: the simulation's
/// metrics registry, its dispatched-event count, and the trace (empty
/// unless `trace_cap > 0`).
pub struct TabRtCell {
    /// The measured row.
    pub row: TabRtRow,
    /// The run's full metrics registry.
    pub metrics: obs::MetricsRegistry,
    /// Events dispatched by this run's simulation.
    pub dispatched: u64,
    /// Typed trace of the run (disabled unless requested).
    pub trace: netsim::trace::Trace,
    /// Host wall-clock seconds this cell took on its sweep worker.
    /// Host time: never part of a determinism comparison.
    pub wall_secs: f64,
}

/// Runs the open-loop response-time measurement for one scenario,
/// keeping the metrics registry and (when `trace_cap > 0`) the trace.
pub fn run_cell(
    scenario: Scenario,
    rate: f64,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    trace_cap: usize,
) -> TabRtCell {
    let started = Instant::now();
    let cfg = RubisConfig::tab_rt(scenario, seed);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    if trace_cap > 0 {
        dep.topo.sim.trace = netsim::trace::Trace::enabled(trace_cap);
    }
    let gen_host = dep.topo.add_external_host("httperf", Flavor::Dedicated);
    let mut app = HttperfApp::new(dep.frontend, rate, WorkloadMix::read_only(), users, items);
    app.measure_from = SimTime::ZERO + warmup;
    let idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo.sim.run_until(SimTime::ZERO + warmup + measure);
    let gen = dep.topo.host(gen_host).app::<HttperfApp>(idx).expect("generator");
    let row = TabRtRow {
        scenario,
        completed: gen.completed,
        mean_ms: gen.latency.mean(),
        stddev_ms: gen.latency.stddev(),
        p99_ms: gen.latency.percentile(99.0),
    };
    let dispatched = dep.topo.sim.stats().dispatched;
    TabRtCell {
        row,
        metrics: dep.topo.sim.take_metrics(),
        dispatched,
        trace: std::mem::replace(&mut dep.topo.sim.trace, netsim::trace::Trace::disabled()),
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs all three scenarios (in parallel; independent simulations),
/// keeping each scenario's metrics and event count. Output is in
/// scenario order: Basic, HipLsi, Ssl.
pub fn run_all_cells(rate: f64, seed: u64, warmup: SimDuration, measure: SimDuration) -> Vec<TabRtCell> {
    let scenarios = [Scenario::Basic, Scenario::HipLsi, Scenario::Ssl];
    crate::sweep::par_sweep(&scenarios, |&s| run_cell(s, rate, seed, warmup, measure, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        // Short windows for test speed; the bin uses longer ones.
        let cells = run_all_cells(PAPER_RATE, 5, SimDuration::from_secs(5), SimDuration::from_secs(15));
        let mean = |s: Scenario| cells.iter().find(|c| c.row.scenario == s).expect("present").row.mean_ms;
        let basic = mean(Scenario::Basic);
        let hip = mean(Scenario::HipLsi);
        let ssl = mean(Scenario::Ssl);
        assert!(basic < ssl, "basic {basic:.1} < ssl {ssl:.1}");
        assert!(ssl < hip, "ssl {ssl:.1} < hip {hip:.1} (LSI translation penalty)");
        // All stable (no overload): comparable magnitudes.
        assert!(hip < basic * 3.0, "hip {hip:.1} not exploded vs basic {basic:.1}");
    }
}
