//! The benchmark's own checks: tracing observes without steering, runs
//! repeat exactly, the rebuilt deployments are the library's, and the
//! metrics it prints are the ones `BENCHMARK.json` lists.

use netsim::tcp::GsoMode;
use perfbench::report::{self, Times};
use perfbench::workload::{
    self, expected_fingerprint, fingerprint, run_scenario, run_workload, Workload,
};
use perfbench::{unit, Scn};

fn fp(runs: &[workload::ScenarioRun]) -> u64 {
    fingerprint(runs.iter().map(|r| &r.outcome))
}

#[test]
fn traced_run_equals_untraced_and_repeats() {
    for w in Workload::ALL {
        let a = run_workload(w, 7, false);
        let b = run_workload(w, 7, false);
        let t = run_workload(w, 7, true);
        assert_eq!(fp(&a), fp(&b), "{}: same seed, different results", w.name());
        assert_eq!(fp(&a), fp(&t), "{}: tracing changed the results", w.name());
        for (u, t) in a.iter().zip(&t) {
            assert_eq!(
                u.stats,
                t.stats,
                "{} {}: tracing changed the event schedule",
                w.name(),
                u.scn.name()
            );
            assert_eq!(
                u.outcome.failed,
                0,
                "{} {}: {:?}",
                w.name(),
                u.scn.name(),
                u.outcome
            );
            assert!(t.spans.total_ns() > 0 && t.spans.total_ns() < t.run_ns);
        }
    }
}

#[test]
fn unit_costs_use_the_deployed_dataset_size() {
    let cfg = websvc::RubisConfig::fig2(websvc::Scenario::Basic, 1);
    assert_eq!((cfg.users, cfg.items), unit::DATASET);
}

#[test]
fn sub_seeds_start_with_the_seed_and_differ() {
    let s = workload::sub_seeds(42);
    assert_eq!(s[0], 42);
    for (i, a) in s.iter().enumerate() {
        assert!(s[i + 1..].iter().all(|b| b != a), "{s:?}");
    }
}

#[test]
fn recorded_fingerprints_hold() {
    for w in Workload::ALL {
        let want = expected_fingerprint(w, 42).expect("default seed is recorded");
        assert_eq!(fp(&run_workload(w, 42, false)), want, "{}", w.name());
    }
}

#[test]
fn bulk_flow_is_the_datapath_bulk_transfer() {
    for (scn, hip) in [(Scn::Basic, false), (Scn::Hip, true)] {
        let ours = run_scenario(Workload::BulkFlow, scn, 3, false);
        let lib = bench::datapath::bulk_transfer(hip, GsoMode::Exact, workload::BULK_BYTES, 3);
        assert_eq!(ours.stats, lib.stats, "{}", scn.name());
        assert_eq!(ours.outcome.delivered, workload::BULK_BYTES);
    }
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section is a list");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn printed_metrics_are_the_listed_ones() {
    let w = Workload::BulkFlow;
    let plain = vec![run_workload(w, 5, false)];
    let traced = vec![run_workload(w, 5, true)];
    let times: Vec<Vec<Vec<Times>>> = vec![plain
        .iter()
        .map(|it| it.iter().map(Times::from).collect())
        .collect()];
    let names = |ms: Vec<report::Metric>| ms.into_iter().map(|m| m.name).collect::<Vec<_>>();
    assert_eq!(
        names(report::end_to_end(&times, 1, 1.0)),
        listed("end_to_end")
    );

    let sizes = unit::Sizes {
        frame: 600,
        record: 1024,
        read_only: false,
    };
    let per_layer = names(report::per_layer(&traced, &plain, &unit::measure(sizes, 5)));
    assert_eq!(per_layer, listed("per_layer"));
}
