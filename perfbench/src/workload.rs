//! The three workloads, run scenario by scenario on one thread.
//!
//! Each scenario builds a fresh deployment from the seed (timed as
//! set-up), runs it to a fixed simulated horizon (timed as run) and
//! reads the simulated results back as an [`Outcome`].

use crate::assemble::{self, Assembler, SetupSplit};
use crate::ledger::{self, Spans};
use crate::tlsbulk::TlsSinkApp;
use crate::Scn;
use cloudsim::{CloudTopology, Flavor, VmHandle};
use netsim::{SimDuration, SimStats, SimTime};
use obs::MetricsRegistry;
use std::time::Instant;
use websvc::deploy::{deploy_rubis, RubisConfig};
use websvc::loadgen::{HttperfApp, IperfServerApp, JmeterApp};
use websvc::proxy::ProxyApp;
use websvc::rubis::WorkloadMix;
use websvc::webserver::WebServerApp;

/// Closed-loop jmeter sessions in `rubis_keepalive`.
pub const KEEPALIVE_CLIENTS: usize = 50;
/// Simulated length of a `rubis_keepalive` scenario.
pub const KEEPALIVE_SIM: SimDuration = SimDuration::from_secs(4);
/// Open-loop httperf rate in `rubis_churn` (requests per simulated second).
pub const CHURN_RATE: f64 = 40.0;
/// Requests `rubis_churn` sends per scenario.
pub const CHURN_REQUESTS: u64 = 400;
/// Simulated time after the last request for in-flight ones to finish.
pub const CHURN_DRAIN: SimDuration = SimDuration::from_secs(3);
/// Bytes moved by each `bulk_flow` transfer.
pub const BULK_BYTES: u64 = 6 << 20;
/// `bench::datapath::bulk_transfer`'s horizon.
pub const BULK_SIM: SimDuration = SimDuration::from_secs(120);

/// Seeds an untraced run cycles through. Keys, and so handshake and
/// key-generation costs, differ from seed to seed by up to ~15%;
/// averaging over a few seeds per run keeps that out of the comparison
/// between runs.
pub const SUB_SEEDS: usize = 4;

/// The seeds an untraced run with `seed` cycles through; the first is
/// `seed` itself, the others are splitmix64 steps from it.
pub fn sub_seeds(seed: u64) -> [u64; SUB_SEEDS] {
    std::array::from_fn(|k| {
        if k == 0 {
            return seed;
        }
        let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FIG2 deployment, 50 closed-loop keep-alive sessions.
    RubisKeepalive,
    /// FIG2 deployment, open-loop httperf, a fresh connection per request.
    RubisChurn,
    /// FIG3 two-VM topology, one bulk TCP flow.
    BulkFlow,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::RubisKeepalive,
        Workload::RubisChurn,
        Workload::BulkFlow,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RubisKeepalive => "rubis_keepalive",
            Workload::RubisChurn => "rubis_churn",
            Workload::BulkFlow => "bulk_flow",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The simulated results of one scenario: what the fingerprint covers.
/// Event counts are left out on purpose, since batching may lower them
/// without changing any result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted: client requests, or bulk transfers.
    pub attempted: u64,
    /// Operations that succeeded.
    pub completed: u64,
    /// Operations that failed: non-200 answers, connect failures,
    /// resets, unanswered requests, incomplete transfers.
    pub failed: u64,
    /// Sum of per-operation simulated latencies, in ns.
    pub latency_sum_ns: u64,
    /// Application bytes delivered (bulk) or responses relayed by the
    /// load balancer (RUBiS).
    pub delivered: u64,
    /// Requests served by the web tier (RUBiS; 0 for bulk).
    pub served: u64,
}

impl Outcome {
    fn words(&self) -> [u64; 6] {
        [
            self.attempted,
            self.completed,
            self.failed,
            self.latency_sum_ns,
            self.delivered,
            self.served,
        ]
    }
}

/// Hashes the outcomes of a workload's scenarios, in order (FNV-1a).
pub fn fingerprint<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        for w in o.words() {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One scenario's host times, results and counters.
pub struct ScenarioRun {
    /// Which scenario.
    pub scn: Scn,
    /// Host ns to build the deployment.
    pub setup_ns: u64,
    /// Host ns inside `Sim::run_until`.
    pub run_ns: u64,
    /// Simulated results.
    pub outcome: Outcome,
    /// Engine counters.
    pub stats: SimStats,
    /// The run's metrics registry.
    pub metrics: MetricsRegistry,
    /// Set-up split (timed calls of the assembler).
    pub split: SetupSplit,
    /// Seam spans (traced runs only; zero otherwise).
    pub spans: Spans,
}

/// Runs every scenario of `w` in order: Basic, HIP, SSL.
pub fn run_workload(w: Workload, seed: u64, traced: bool) -> Vec<ScenarioRun> {
    Scn::ALL
        .into_iter()
        .map(|scn| run_scenario(w, scn, seed, traced))
        .collect()
}

/// Reads a finished scenario's simulated results.
type Reader = Box<dyn Fn(&CloudTopology, &MetricsRegistry) -> Outcome>;

/// A built deployment, ready to run.
struct Built {
    topo: CloudTopology,
    until: SimTime,
    read: Reader,
}

/// Runs one scenario of `w`. Traced runs wrap every seam and book
/// their time in [`ledger`].
pub fn run_scenario(w: Workload, scn: Scn, seed: u64, traced: bool) -> ScenarioRun {
    let mut b = Assembler::new(traced);
    let t0 = Instant::now();
    let mut built = match w {
        Workload::RubisKeepalive | Workload::RubisChurn => build_rubis(w, scn, seed, &mut b),
        Workload::BulkFlow => build_bulk(scn, seed, &mut b),
    };
    let setup_ns = t0.elapsed().as_nanos() as u64;
    ledger::reset();
    let t1 = Instant::now();
    built.topo.sim.run_until(built.until);
    let run_ns = t1.elapsed().as_nanos() as u64;
    let spans = ledger::snapshot();
    let metrics = built.topo.sim.take_metrics();
    let outcome = (built.read)(&built.topo, &metrics);
    ScenarioRun {
        scn,
        setup_ns,
        run_ns,
        outcome,
        stats: built.topo.sim.stats(),
        metrics,
        split: b.split,
        spans,
    }
}

fn build_rubis(w: Workload, scn: Scn, seed: u64, b: &mut Assembler) -> Built {
    let cfg = RubisConfig::fig2(scn.rubis(), seed);
    let (users, items) = (cfg.users, cfg.items);
    let (mut topo, lb, webs, frontend) = if b.traced() {
        let r = assemble::rubis(&cfg, b);
        (r.topo, r.lb, r.webs, r.frontend)
    } else {
        let d = deploy_rubis(cfg);
        (
            d.topo,
            d.lb.expect("FIG2 deploys a load balancer"),
            d.webs,
            d.frontend,
        )
    };
    let served = move |topo: &CloudTopology| -> (u64, u64) {
        let proxy = topo.host(lb).app::<ProxyApp>(0).expect("proxy is app 0");
        let web = |&h: &VmHandle| {
            topo.host(h)
                .app::<WebServerApp>(0)
                .expect("web is app 0")
                .stats
                .responses
        };
        (proxy.stats.responses, webs.iter().map(web).sum())
    };
    match w {
        Workload::RubisKeepalive => {
            let gen = topo.add_external_host("jmeter", Flavor::Dedicated);
            let app = JmeterApp::new(
                frontend,
                KEEPALIVE_CLIENTS,
                WorkloadMix::default(),
                users,
                items,
            );
            let idx = b.add_loadgen(&mut topo, gen, Box::new(app));
            let read = move |topo: &CloudTopology, m: &MetricsRegistry| {
                let g = topo.host(gen).app::<JmeterApp>(idx).expect("jmeter");
                let (delivered, served) = served(topo);
                Outcome {
                    attempted: g.completed + g.errors,
                    completed: g.completed,
                    failed: g.errors,
                    latency_sum_ns: latency_sum(m),
                    delivered,
                    served,
                }
            };
            Built {
                topo,
                until: SimTime::ZERO + KEEPALIVE_SIM,
                read: Box::new(read),
            }
        }
        Workload::RubisChurn => {
            let gen = topo.add_external_host("httperf", Flavor::Dedicated);
            let mut app =
                HttperfApp::new(frontend, CHURN_RATE, WorkloadMix::read_only(), users, items);
            app.max_requests = CHURN_REQUESTS;
            let idx = b.add_loadgen(&mut topo, gen, Box::new(app));
            let read = move |topo: &CloudTopology, m: &MetricsRegistry| {
                let g = topo.host(gen).app::<HttperfApp>(idx).expect("httperf");
                let (delivered, served) = served(topo);
                // httperf counts any answer as complete; the non-200
                // answers are the proxy's 503s and its 502/504s after
                // retries run out.
                let counter = |name| m.counter_value(name).unwrap_or(0);
                let non_200 = counter("proxy.503") + counter("proxy.request_fail");
                let unanswered = CHURN_REQUESTS.saturating_sub(g.completed + g.errors);
                Outcome {
                    attempted: CHURN_REQUESTS,
                    completed: g.completed.saturating_sub(non_200),
                    failed: g.errors + unanswered + non_200,
                    latency_sum_ns: latency_sum(m),
                    delivered,
                    served,
                }
            };
            let sending = SimDuration::from_secs_f64(CHURN_REQUESTS as f64 / CHURN_RATE);
            Built {
                topo,
                until: SimTime::ZERO + sending + CHURN_DRAIN,
                read: Box::new(read),
            }
        }
        Workload::BulkFlow => unreachable!("bulk_flow has its own assembler"),
    }
}

/// Sum of the clients' simulated response times, in ns.
fn latency_sum(m: &MetricsRegistry) -> u64 {
    m.hist_get("client.latency").map_or(0, |h| h.sum())
}

fn build_bulk(scn: Scn, seed: u64, b: &mut Assembler) -> Built {
    let bulk = assemble::bulk(scn, BULK_BYTES, seed, b);
    let r = bulk.receiver;
    let read = move |topo: &CloudTopology, _: &MetricsRegistry| {
        let (bytes, first, last, failed) = match scn {
            Scn::Ssl => {
                let s = topo.host(r).app::<TlsSinkApp>(0).expect("tls sink");
                (s.bytes, s.first_byte, s.last_byte, s.failed)
            }
            Scn::Basic | Scn::Hip => {
                let s = topo.host(r).app::<IperfServerApp>(0).expect("iperf server");
                (s.bytes, s.first_byte, s.last_byte, false)
            }
        };
        let ok = bytes == BULK_BYTES && !failed;
        let span = match (first, last) {
            (Some(a), Some(z)) => z.since(a).as_nanos(),
            _ => 0,
        };
        Outcome {
            attempted: 1,
            completed: u64::from(ok),
            failed: u64::from(!ok),
            latency_sum_ns: span,
            delivered: bytes,
            served: 0,
        }
    };
    Built {
        topo: bulk.topo,
        until: SimTime::ZERO + BULK_SIM,
        read: Box::new(read),
    }
}

/// Recorded fingerprints: the default seed and one held-out seed.
/// `bulk_flow`'s results do not depend on the seed: the datacenter link
/// is loss-free and the flow starts after the base exchange settles.
const EXPECTED: &[(Workload, u64, u64)] = &[
    (Workload::RubisKeepalive, 42, 0xec0c_9699_793d_62c4),
    (Workload::RubisKeepalive, 1009, 0x7a71_30d7_d918_626c),
    (Workload::RubisChurn, 42, 0x948e_cec5_d724_a4d4),
    (Workload::RubisChurn, 1009, 0xae99_2ac2_69ba_32a3),
    (Workload::BulkFlow, 42, 0x979d_6dd3_844d_b341),
    (Workload::BulkFlow, 1009, 0x979d_6dd3_844d_b341),
];

/// The recorded fingerprint of `w` at `seed`, if there is one.
pub fn expected_fingerprint(w: Workload, seed: u64) -> Option<u64> {
    EXPECTED
        .iter()
        .find(|&&(ew, es, _)| ew == w && es == seed)
        .map(|&(_, _, fp)| fp)
}
