//! Engine performance benchmark: measures the event-scheduler fast path
//! so speedups (and regressions) are visible across PRs.
//!
//! Two measurements:
//!
//! 1. **Scheduler microbench** — the classic "hold model": a queue
//!    pre-filled with pending events, then a long run of pop-one /
//!    push-one transactions with simulation-typical delays (mostly
//!    link/RTT scale, a tail of far-future timers). The calendar queue
//!    is compared against the reference `BinaryHeap` it replaced, on a
//!    bit-identical operation sequence.
//! 2. **End-to-end events/sec** — a mesh of echo ping-pong hosts run
//!    through the full `Sim` dispatch loop (timers, links, packets),
//!    reporting dispatched events per wall-clock second plus the
//!    `SimStats` counter block. The end-to-end run is measured twice,
//!    interleaved, with the metrics registry **on** and **off**: the
//!    same-seed runs must be bit-identical (identical `SimStats`), and
//!    the metrics-on run must stay within 5% of the metrics-off
//!    events/sec — observability must never perturb or slow the engine.
//!
//! Writes `results/engine_perf.json` plus a run manifest.
//!
//! Usage: `cargo run -p bench --release --bin engine_perf [-- quick] [--trace-out <path>]`

use bench::report::{manifest, trace_out, write_manifest};
use netsim::sched::CalendarQueue;
use netsim::{
    Ctx, Endpoint, LinkParams, Node, Packet, Payload, Sim, SimDuration, SimStats, SimTime,
    TimerHandle, TimerOwner,
};
use netsim::link::LinkId;
use netsim::packet::{v4, IcmpKind, IcmpMessage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// xorshift64*: cheap deterministic deltas shared by both queues.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A simulation-shaped delay: mostly link/RTT scale, some millisecond
/// timers, a thin tail beyond the wheel horizon (forces overflow).
fn typical_delay(r: u64) -> u64 {
    match r % 100 {
        0..=79 => 1_000 + r % 100_000,        // 1 µs .. 101 µs
        80..=97 => 100_000 + r % 5_000_000,   // 0.1 ms .. 5.1 ms
        _ => 50_000_000 + r % 200_000_000,    // 50 ms .. 250 ms
    }
}

/// Hold-model transactions against any queue, via closures.
fn run_hold<Q>(
    queue: &mut Q,
    push: impl Fn(&mut Q, u64, u64),
    pop: impl Fn(&mut Q) -> Option<(u64, u64)>,
    prefill: usize,
    transactions: usize,
) -> f64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut seq = 0u64;
    for _ in 0..prefill {
        let delay = typical_delay(xorshift(&mut rng));
        push(queue, delay, seq);
        seq += 1;
    }
    // Best of three timed passes: the sandbox is shared, so the fastest
    // pass is the least-interference estimate for both queues alike.
    let mut best = 0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..transactions {
            let (at, _) = pop(queue).expect("queue stays full");
            let delay = typical_delay(xorshift(&mut rng));
            push(queue, at + delay, seq);
            seq += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        best = best.max((2 * transactions) as f64 / secs); // pop + push per transaction
    }
    best
}

fn scheduler_microbench(prefill: usize, transactions: usize) -> (f64, f64) {
    let mut cal: CalendarQueue<()> = CalendarQueue::new();
    let cal_eps = run_hold(
        &mut cal,
        |q, at, seq| q.push(SimTime(at), seq, ()),
        |q| q.pop().map(|(t, s, ())| (t.0, s)),
        prefill,
        transactions,
    );
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let heap_eps = run_hold(
        &mut heap,
        |q, at, seq| q.push(Reverse((at, seq))),
        |q| q.pop().map(|Reverse((t, s))| (t, s)),
        prefill,
        transactions,
    );
    (cal_eps, heap_eps)
}

// ---------------------------------------------------------------------
// End-to-end: echo ping-pong mesh through the full dispatch loop.
// ---------------------------------------------------------------------

/// Pings its peer on a jittered interval; re-arms forever.
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

/// Outcome of one end-to-end run.
struct E2E {
    eps: f64,
    dispatched: u64,
    wall: f64,
    stats: SimStats,
    metrics: obs::MetricsRegistry,
    trace: netsim::trace::Trace,
}

fn end_to_end(pairs: usize, sim_seconds: u64, metrics_on: bool, trace_cap: usize) -> E2E {
    let mut sim = Sim::new(42);
    sim.set_metrics_enabled(metrics_on);
    if trace_cap > 0 {
        sim.trace = netsim::trace::Trace::enabled(trace_cap).with_timers(true);
    }
    let deadline = SimTime(sim_seconds * 1_000_000_000);
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
    let start = Instant::now();
    let outcome = sim.run_to_quiescence(u64::MAX);
    let wall = start.elapsed().as_secs_f64();
    assert!(outcome.is_quiescent());
    let stats = sim.stats();
    let eps = stats.dispatched as f64 / wall;
    E2E {
        eps,
        dispatched: stats.dispatched,
        wall,
        stats,
        metrics: sim.take_metrics(),
        trace: std::mem::replace(&mut sim.trace, netsim::trace::Trace::disabled()),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let (prefill, transactions) = if quick { (20_000, 200_000) } else { (100_000, 2_000_000) };
    let (pairs, sim_secs) = if quick { (64, 1) } else { (256, 2) };

    println!("scheduler microbench (hold model, {prefill} pending, {transactions} transactions)");
    let (cal_eps, heap_eps) = scheduler_microbench(prefill, transactions);
    let ratio = cal_eps / heap_eps;
    println!("  calendar queue : {:>12.0} ops/s", cal_eps);
    println!("  binary heap    : {:>12.0} ops/s", heap_eps);
    println!("  speedup        : {ratio:.2}x");

    println!("end-to-end dispatch ({pairs} echo pairs, {sim_secs}s simulated)");
    // Interleaved best-of-3, metrics on vs off: interleaving cancels
    // out drift from sharing the machine with other work.
    let mut best_on: Option<E2E> = None;
    let mut best_off: Option<E2E> = None;
    for _ in 0..3 {
        let on = end_to_end(pairs, sim_secs, true, 0);
        let off = end_to_end(pairs, sim_secs, false, 0);
        if best_on.as_ref().is_none_or(|b| on.eps > b.eps) {
            best_on = Some(on);
        }
        if best_off.as_ref().is_none_or(|b| off.eps > b.eps) {
            best_off = Some(off);
        }
    }
    let on = best_on.expect("ran");
    let off = best_off.expect("ran");
    let (eps, dispatched, wall, stats) = (on.eps, on.dispatched, on.wall, on.stats);
    println!("  events         : {dispatched}");
    println!("  wall           : {wall:.3}s");
    println!("  events/sec     : {eps:>12.0} (metrics on)");
    println!("  events/sec     : {:>12.0} (metrics off)", off.eps);
    let overhead_pct = (off.eps / eps - 1.0) * 100.0;
    println!("  metrics overhead: {overhead_pct:.2}%");
    println!(
        "  stats          : scheduled={} dispatched={} cancelled={} stale={} wheel={} overflow={} migrations={}",
        stats.scheduled,
        stats.dispatched,
        stats.timers_cancelled,
        stats.stale_timer_pops,
        stats.queue_wheel_pushes,
        stats.queue_overflow_pushes,
        stats.queue_migrations
    );
    // Determinism: metrics must observe, never perturb. Same seed with
    // the registry on and off must give bit-identical engine behavior.
    assert_eq!(
        on.stats, off.stats,
        "metrics on vs off changed the event schedule — observability perturbed the run"
    );
    assert!(
        overhead_pct <= 5.0,
        "metrics-on run is {overhead_pct:.2}% slower than metrics-off (budget: 5%)"
    );
    println!("  metrics on/off : bit-identical SimStats, overhead within 5% budget");
    // Engine counters visible through the registry on the metrics-on run.
    let ev_pkts = on.metrics.counter_value("engine.ev.packet").unwrap_or(0);
    let ev_timers = on.metrics.counter_value("engine.ev.timer").unwrap_or(0);
    println!("  registry       : engine.ev.packet={ev_pkts} engine.ev.timer={ev_timers}");
    assert!(ev_pkts > 0 && ev_timers > 0, "engine counters must be populated when metrics are on");

    std::fs::create_dir_all("results").expect("mkdir results");
    let json = format!(
        "{{\n  \"microbench\": {{\n    \"pending\": {prefill},\n    \"transactions\": {transactions},\n    \"calendar_ops_per_sec\": {cal_eps:.0},\n    \"binary_heap_ops_per_sec\": {heap_eps:.0},\n    \"speedup\": {ratio:.3}\n  }},\n  \"end_to_end\": {{\n    \"pairs\": {pairs},\n    \"sim_seconds\": {sim_secs},\n    \"dispatched_events\": {dispatched},\n    \"wall_seconds\": {wall:.4},\n    \"events_per_sec\": {eps:.0},\n    \"events_per_sec_metrics_off\": {:.0},\n    \"metrics_overhead_pct\": {overhead_pct:.2},\n    \"scheduled\": {},\n    \"timers_cancelled\": {},\n    \"stale_timer_pops\": {},\n    \"queue_wheel_pushes\": {},\n    \"queue_overflow_pushes\": {},\n    \"queue_migrations\": {}\n  }}\n}}\n",
        off.eps,
        stats.scheduled,
        stats.timers_cancelled,
        stats.stale_timer_pops,
        stats.queue_wheel_pushes,
        stats.queue_overflow_pushes,
        stats.queue_migrations
    );
    std::fs::write("results/engine_perf.json", json).expect("write results/engine_perf.json");
    println!("wrote results/engine_perf.json");

    let mut m = manifest("engine_perf", if quick { "quick" } else { "default" }, 42);
    m.num("pairs", pairs)
        .num("sim_seconds", sim_secs)
        .num("events_per_sec", format!("{eps:.0}"))
        .num("events_per_sec_metrics_off", format!("{:.0}", off.eps))
        .num("metrics_overhead_pct", format!("{overhead_pct:.2}"))
        .num("calendar_ops_per_sec", format!("{cal_eps:.0}"))
        .num("binary_heap_ops_per_sec", format!("{heap_eps:.0}"));
    match write_manifest(m, wall, dispatched, &on.metrics) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("manifest write failed: {e}"),
    }

    if let Some(path) = trace_out() {
        // A small traced mesh (timer records on) keeps the JSONL readable.
        eprintln!("tracing a 4-pair mesh for {}...", path.display());
        let traced = end_to_end(4, 1, true, 500_000);
        match traced.trace.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "wrote {} trace records to {} ({} dropped at cap)",
                traced.trace.entries().len(),
                path.display(),
                traced.trace.truncated()
            ),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}
