//! Wall-clock cost of a single-flow 10 MB bulk transfer through the
//! full simulator — plain TCP and TCP-over-HIP/ESP — across the GSO
//! modes. This is the end-to-end view of datapath batching: `off` pays
//! per-MSS segmentation, per-frame crypto, and one event per frame;
//! `exact` (the default) keeps the identical event schedule but batches
//! segmentation and crypto.

use bench::datapath::bulk_transfer;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::tcp::GsoMode;

const BYTES: u64 = 10 * 1024 * 1024;

fn bench_tcp_bulk(c: &mut Criterion) {
    let mut g = c.benchmark_group("tcp_bulk");
    // Each iteration simulates a full 10 MB transfer; keep samples low.
    g.sample_size(10);
    g.throughput(Throughput::Bytes(BYTES));
    for (scenario, hip) in [("basic", false), ("hip", true)] {
        for (name, gso) in [("off", GsoMode::Off), ("exact", GsoMode::Exact)] {
            g.bench_function(format!("{scenario}/{name}"), |b| {
                b.iter(|| bulk_transfer(hip, std::hint::black_box(gso), BYTES, 42))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_tcp_bulk);
criterion_main!(benches);
