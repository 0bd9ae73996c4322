//! Performance gates the host-time benchmark (`perfbench/`) does not
//! cover, recorded in one run manifest
//! (`results/perf_gates-<quick|default>.json`):
//!
//! 1. **Metrics overhead** (asserted). Two copies of a mesh of echo
//!    ping-pong hosts, one with the metrics registry on and one with it
//!    off, run through the full `Sim` dispatch loop in lock-step: each
//!    advances by the same [`SLICE_MS`] of simulated time in turn,
//!    alternating which goes first, and each side's wall-clock is
//!    summed over its slices. That is one of [`REPS`] interleaved on/off
//!    pairs. Every pair must give bit-identical `SimStats` (metrics
//!    observe, never perturb), the metrics-on side must populate the
//!    engine counters, and the median over the pairs of on-wall /
//!    off-wall may exceed 1 by at most [`OVERHEAD_BUDGET_PCT`]. Every
//!    wall-clock reading is recorded.
//!
//!    The slices are short because a shared host's speed drifts by
//!    ±10–30% from one run to the next, and a slice pair mostly sees
//!    one speed. On a 2-core box, timing whole runs back to back and
//!    comparing the fastest run of each side crossed the budget in
//!    20–45% of windows of 7 to 51 pairs of an unchanged engine (one
//!    lucky run on either side decides it), and the median of 21 paired
//!    whole-run ratios still read 8.3% once in eight runs; in lock-step,
//!    ten processes of five pairs read single ratios of 0.98–1.04.
//! 2. **Crypto fast-path targets** (reported, not asserted). AES-128-CBC
//!    encryption against the byte-wise reference cipher (target ≥ 2×),
//!    and HMAC-SHA-256 on 64-byte messages with a cached [`HmacKey`]
//!    against keying afresh per MAC (target ≥ 1.3×). Each comparison
//!    first asserts both paths give identical bytes; whether each target
//!    was met is recorded.
//! 3. The AES and SHA-256 **backends** this CPU selects
//!    (`aes: aes-ni|t-table`, `sha256: sha-ni|scalar`).
//!
//! Usage: `cargo run -p bench --release --bin perf_gates [-- --quick]`

use bench::report::{manifest, write_manifest, Args, Flag};
use netsim::link::LinkId;
use netsim::packet::{v4, IcmpKind, IcmpMessage};
use netsim::{
    Ctx, Endpoint, LinkParams, Node, Packet, Payload, Sim, SimDuration, SimStats, SimTime,
    TimerHandle, TimerOwner,
};
use sim_crypto::aes::{self, reference, Aes128};
use sim_crypto::hmac::{hmac_sha256, HmacKey};
use sim_crypto::sha256;
use std::time::Instant;

/// Lock-step metrics-on/off pairs per gate.
const REPS: usize = 7;
/// Simulated milliseconds per echo-mesh run.
const SIM_MS: u64 = 1000;
/// Simulated milliseconds each side advances per turn.
const SLICE_MS: u64 = 10;
/// How much slower than its metrics-off twin the median metrics-on run
/// may be, in percent.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Pings its peer on a jittered interval; re-arms until `deadline`.
struct Pinger {
    link: LinkId,
    peer: std::net::IpAddr,
    me: std::net::IpAddr,
    interval: SimDuration,
    deadline: SimTime,
    sent: u64,
}

impl Node for Pinger {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.interval, TimerHandle { owner: TimerOwner::Node, token: 0 });
    }
    fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
    fn handle_timer(&mut self, _: TimerHandle, ctx: &mut Ctx) {
        if ctx.now >= self.deadline {
            return; // stop re-arming; the sim drains to quiescence
        }
        self.sent += 1;
        let pkt = Packet::new(
            self.me,
            self.peer,
            Payload::Icmp(IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident: 1,
                seq: self.sent as u16,
                payload_len: 56,
            }),
        );
        ctx.transmit(self.link, pkt);
        // Jitter the next period so timers spread across buckets.
        let jitter = ctx.random_u64() % 10_000;
        ctx.set_timer(
            self.interval + SimDuration::from_nanos(jitter),
            TimerHandle { owner: TimerOwner::Node, token: 0 },
        );
    }
}

/// Echoes every packet straight back.
struct Echoer {
    link: LinkId,
}

impl Node for Echoer {
    fn handle_packet(&mut self, _: usize, pkt: Packet, ctx: &mut Ctx) {
        let reply = Packet::new(pkt.dst, pkt.src, pkt.payload.clone());
        ctx.transmit(self.link, reply);
    }
}

/// A mesh of `pairs` pingers, each with its own link to an echoer,
/// pinging for [`SIM_MS`].
fn echo_mesh(pairs: usize, metrics_on: bool) -> Sim {
    let mut sim = Sim::new(42);
    sim.set_metrics_enabled(metrics_on);
    let deadline = SimTime(SIM_MS * 1_000_000);
    for i in 0..pairs {
        let a_ip = v4(10, 1, (i / 250) as u8, (i % 250) as u8);
        let b_ip = v4(10, 2, (i / 250) as u8, (i % 250) as u8);
        let link = LinkId(i);
        let a = sim.world.add_node(Box::new(Pinger {
            link,
            peer: b_ip,
            me: a_ip,
            // Staggered rates: 20–120 µs periods.
            interval: SimDuration::from_nanos(20_000 + (i as u64 * 7919) % 100_000),
            deadline,
            sent: 0,
        }));
        let b = sim.world.add_node(Box::new(Echoer { link }));
        let lid = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: b, iface: 0 },
            LinkParams::datacenter(),
        );
        assert_eq!(lid.0, i, "links are allocated in pair order");
    }
    sim
}

/// One on/off pair: wall seconds of the metrics-on and metrics-off
/// mesh, run in lock-step, with their common `SimStats` and the
/// metrics-on registry.
fn lockstep_pair(pairs: usize) -> (f64, f64, SimStats, obs::MetricsRegistry) {
    let mut sims = [echo_mesh(pairs, true), echo_mesh(pairs, false)];
    let mut walls = [0f64; 2];
    for k in 1..=SIM_MS / SLICE_MS {
        let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let start = Instant::now();
            sims[side].run_until(SimTime(k * SLICE_MS * 1_000_000));
            walls[side] += start.elapsed().as_secs_f64();
        }
    }
    // Drain the echoes still in flight at the pingers' deadline.
    for sim in &mut sims {
        assert!(sim.run_to_quiescence(u64::MAX).is_quiescent());
    }
    let [on, off] = &mut sims;
    // Metrics must observe, never perturb.
    assert_eq!(
        on.stats(),
        off.stats(),
        "metrics on vs off changed the event schedule — observability perturbed the run"
    );
    (walls[0], walls[1], on.stats(), on.take_metrics())
}

/// xorshift64*: deterministic payload bytes without a RNG dependency.
fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u8
        })
        .collect()
}

/// Best-of-`reps` wall-clock for `f`, returning work-units per second.
/// The fastest pass is the least-interference estimate on a shared box.
fn best_rate(reps: usize, units: f64, mut f: impl FnMut()) -> f64 {
    let mut best = 0f64;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.max(units / start.elapsed().as_secs_f64());
    }
    best
}

/// A fast path timed against its reference, with its speedup target.
struct Target {
    name: &'static str,
    unit: &'static str,
    fast: f64,
    reference: f64,
    target: f64,
}

impl Target {
    fn speedup(&self) -> f64 {
        self.fast / self.reference
    }
}

/// AES-128-CBC encryption of a 64 KiB buffer, in MB/s.
fn aes_cbc_encrypt(passes: usize, reps: usize) -> Target {
    let aes = Aes128::new(b"YELLOW SUBMARINE");
    let iv = [0u8; 16];
    let plaintext = pseudo_bytes(64 * 1024, 0xC0FF_EE00);
    let mut slow = Vec::new();
    reference::cbc_encrypt_into(&aes, &iv, &plaintext, &mut slow);
    assert_eq!(aes.cbc_encrypt(&iv, &plaintext), slow, "fast path and reference diverged");

    let mb = (plaintext.len() * passes) as f64 / 1e6;
    let fast = best_rate(reps, mb, || {
        for _ in 0..passes {
            std::hint::black_box(aes.cbc_encrypt(&iv, &plaintext));
        }
    });
    let reference = best_rate(reps, mb, || {
        for _ in 0..passes {
            let mut ct = Vec::new();
            reference::cbc_encrypt_into(&aes, &iv, &plaintext, &mut ct);
            std::hint::black_box(ct);
        }
    });
    Target { name: "aes128_cbc_encrypt", unit: "MB/s", fast, reference, target: 2.0 }
}

/// HMAC-SHA-256 of a 64-byte message, in MACs per second: a cached
/// per-SA transcript against keying afresh per MAC.
fn hmac_64(ops: usize, reps: usize) -> Target {
    let key_bytes = pseudo_bytes(32, 0x5ec2_e7b1);
    let msg = pseudo_bytes(64, 0xDA7A);
    let key = HmacKey::new(&key_bytes);
    assert_eq!(key.mac(&msg), hmac_sha256(&key_bytes, &msg), "cached key diverged");

    let fast = best_rate(reps, ops as f64, || {
        for _ in 0..ops {
            std::hint::black_box(key.mac(std::hint::black_box(&msg)));
        }
    });
    let reference = best_rate(reps, ops as f64, || {
        for _ in 0..ops {
            std::hint::black_box(hmac_sha256(
                std::hint::black_box(&key_bytes),
                std::hint::black_box(&msg),
            ));
        }
    });
    Target { name: "hmac_sha256_64B", unit: "ops/s", fast, reference, target: 1.3 }
}

/// `[a, b, ...]` with four decimals, for a manifest field.
fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let quick = Args::parse(&[Flag::Quick]).quick;
    let pairs = if quick { 64 } else { 256 };
    let reps = if quick { 2 } else { 3 };
    let (aes_passes, hmac_ops) = if quick { (8, 20_000) } else { (32, 100_000) };
    let start = Instant::now();

    let (aes_backend, sha256_backend) = (aes::backend(), sha256::backend());
    println!("backends: aes: {aes_backend}, sha256: {sha256_backend}");

    println!(
        "metrics overhead ({pairs} echo pairs, {SIM_MS} ms simulated in {SLICE_MS} ms lock-step slices, {REPS} on/off pairs)"
    );
    let (mut on_walls, mut off_walls) = (Vec::new(), Vec::new());
    let mut first: Option<SimStats> = None;
    let mut on_metrics = obs::MetricsRegistry::new();
    for _ in 0..REPS {
        let (on, off, stats, metrics) = lockstep_pair(pairs);
        assert_eq!(stats, *first.get_or_insert(stats), "same-seed pairs diverged");
        println!("  on {on:.4}s  off {off:.4}s  on/off {:.3}", on / off);
        on_walls.push(on);
        off_walls.push(off);
        on_metrics = metrics;
    }
    let stats = first.expect("ran");
    let mut ratios: Vec<f64> = on_walls.iter().zip(&off_walls).map(|(on, off)| on / off).collect();
    ratios.sort_by(f64::total_cmp);
    let overhead_pct = (ratios[REPS / 2] - 1.0) * 100.0;
    println!(
        "  events per run {}  median on/off {:.3}  overhead {overhead_pct:.2}% (budget {OVERHEAD_BUDGET_PCT}%)",
        stats.dispatched,
        ratios[REPS / 2]
    );
    let ev_pkts = on_metrics.counter_value("engine.ev.packet").unwrap_or(0);
    let ev_timers = on_metrics.counter_value("engine.ev.timer").unwrap_or(0);
    println!("  registry: engine.ev.packet={ev_pkts} engine.ev.timer={ev_timers}");

    println!("crypto fast path vs reference");
    let targets = [aes_cbc_encrypt(aes_passes, reps), hmac_64(hmac_ops, reps)];
    for t in &targets {
        println!(
            "  {:<20} fast {:>12.1} {unit}  reference {:>12.1} {unit}  speedup {:.2}x (target >= {:.1}x: {})",
            t.name,
            t.fast,
            t.reference,
            t.speedup(),
            t.target,
            if t.speedup() >= t.target { "met" } else { "MISSED" },
            unit = t.unit,
        );
    }

    let mut m = manifest("perf_gates", if quick { "quick" } else { "default" }, 42);
    m.str_field("backend_aes", aes_backend)
        .str_field("backend_sha256", sha256_backend)
        .num("pairs", pairs)
        .num("sim_ms", SIM_MS)
        .num("slice_ms", SLICE_MS)
        .raw("metrics_on_wall_secs", json_list(&on_walls))
        .raw("metrics_off_wall_secs", json_list(&off_walls))
        .num("metrics_overhead_pct", format!("{overhead_pct:.2}"))
        .num("metrics_overhead_budget_pct", OVERHEAD_BUDGET_PCT);
    for t in &targets {
        m.num(&format!("{}_fast", t.name), format!("{:.1}", t.fast))
            .num(&format!("{}_reference", t.name), format!("{:.1}", t.reference))
            .num(&format!("{}_speedup", t.name), format!("{:.3}", t.speedup()))
            .num(&format!("{}_target", t.name), t.target)
            .num(&format!("{}_target_met", t.name), t.speedup() >= t.target);
    }
    write_manifest(m, start.elapsed().as_secs_f64(), stats.dispatched, &on_metrics);

    assert!(ev_pkts > 0 && ev_timers > 0, "engine counters must be populated when metrics are on");
    assert!(
        overhead_pct <= OVERHEAD_BUDGET_PCT,
        "metrics-on runs are {overhead_pct:.2}% slower than their metrics-off twins, median of {REPS} pairs (budget: {OVERHEAD_BUDGET_PCT}%)"
    );
    println!("metrics on/off: bit-identical SimStats, overhead within the {OVERHEAD_BUDGET_PCT}% budget");
}
