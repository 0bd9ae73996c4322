//! Figure 2: RUBiS throughput vs concurrent clients for Basic/HIP/SSL.
//!
//! "We generated requests with several concurrent clients continuously
//! generating random HTTP GET requests that resulted in queries to the
//! database server. Then we calculated the average throughput (the
//! number of successful requests served per second) for the three
//! scenarios. Database caching was not employed."

use cloudsim::Flavor;
use netsim::{SimDuration, SimTime};
use std::time::Instant;
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::JmeterApp;
use websvc::rubis::WorkloadMix;
use websvc::Scenario;

/// The client counts on the paper's x-axis.
pub const CLIENT_COUNTS: [usize; 8] = [2, 3, 4, 6, 10, 20, 30, 50];

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Point {
    /// Which security scenario.
    pub scenario: Scenario,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Successful requests per second in the measurement window.
    pub throughput: f64,
    /// Mean response time (ms).
    pub mean_latency_ms: f64,
}

/// One cell plus its observability outputs: the metrics registry the
/// simulation filled (per-stage latency histograms, drop counters), the
/// dispatched-event count, and the trace (empty unless `trace_cap > 0`).
pub struct Fig2Cell {
    /// The measured point.
    pub point: Fig2Point,
    /// The cell's full metrics registry (mergeable across cells).
    pub metrics: obs::MetricsRegistry,
    /// Events dispatched by this cell's simulation.
    pub dispatched: u64,
    /// Typed trace of the run (disabled unless requested).
    pub trace: netsim::trace::Trace,
    /// Host wall-clock seconds this cell took on its sweep worker.
    /// Host time: never part of a determinism comparison.
    pub wall_secs: f64,
}

/// Runs one (scenario, clients) cell, returning metrics and (when
/// `trace_cap > 0`) the typed trace alongside the measured point.
pub fn run_cell(
    scenario: Scenario,
    clients: usize,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    trace_cap: usize,
) -> Fig2Cell {
    let started = Instant::now();
    let cfg = RubisConfig::fig2(scenario, seed);
    let (users, items) = (cfg.users, cfg.items);
    let mut dep = deploy_rubis(cfg);
    if trace_cap > 0 {
        dep.topo.sim.trace = netsim::trace::Trace::enabled(trace_cap);
    }
    let gen_host = dep.topo.add_external_host("jmeter", Flavor::Dedicated);
    let mut app = JmeterApp::new(dep.frontend, clients, WorkloadMix::default(), users, items);
    app.measure_from = SimTime::ZERO + warmup;
    let idx = dep.topo.host_mut(gen_host).add_app(Box::new(app));
    dep.topo.sim.run_until(SimTime::ZERO + warmup + measure);
    let gen = dep.topo.host(gen_host).app::<JmeterApp>(idx).expect("generator");
    let point = Fig2Point {
        scenario,
        clients,
        throughput: gen.completed as f64 / measure.as_secs_f64(),
        mean_latency_ms: gen.latency.mean(),
    };
    let dispatched = dep.topo.sim.stats().dispatched;
    Fig2Cell {
        point,
        metrics: dep.topo.sim.take_metrics(),
        dispatched,
        trace: std::mem::replace(&mut dep.topo.sim.trace, netsim::trace::Trace::disabled()),
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs the full sweep, parallelized across cells (each cell is an
/// independent deterministic simulation — this is where the workspace
/// uses threads, never inside a run). Output is ordered by
/// (scenario, clients), matching the cell grid; each cell keeps its
/// metrics registry and event count, so `fig2_throughput` can merge
/// per-scenario stage histograms.
pub fn run_sweep_cells(seed: u64, warmup: SimDuration, measure: SimDuration) -> Vec<Fig2Cell> {
    let scenarios = [Scenario::Basic, Scenario::HipLsi, Scenario::Ssl];
    let cells: Vec<(Scenario, usize)> = scenarios
        .iter()
        .flat_map(|&s| CLIENT_COUNTS.iter().map(move |&c| (s, c)))
        .collect();
    crate::sweep::par_sweep(&cells, |&(s, c)| run_cell(s, c, seed, warmup, measure, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_has_sane_output() {
        let p = run_cell(Scenario::Basic, 4, 1, SimDuration::from_secs(1), SimDuration::from_secs(3), 0)
            .point;
        assert!(p.throughput > 10.0, "throughput {}", p.throughput);
        assert!(p.mean_latency_ms > 1.0);
    }

    #[test]
    fn sweep_is_deterministic_across_parallel_runs() {
        // The same seed must give identical results regardless of thread
        // scheduling (each cell is an isolated simulation).
        let short = SimDuration::from_millis(1500);
        let a = run_sweep_subset(9, short);
        let b = run_sweep_subset(9, short);
        assert_eq!(a, b);
    }

    fn run_sweep_subset(seed: u64, measure: SimDuration) -> Vec<(usize, u64)> {
        [2usize, 6]
            .iter()
            .map(|&c| {
                let p = run_cell(Scenario::Basic, c, seed, SimDuration::from_millis(500), measure, 0).point;
                (c, (p.throughput * 1000.0) as u64)
            })
            .collect()
    }
}
