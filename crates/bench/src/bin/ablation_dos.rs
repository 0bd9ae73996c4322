//! DoS ablation (§IV-B: "the BEX also includes a computational puzzle
//! that the server can use to delay clients when it is under heavy
//! load... The puzzle mechanism can also be useful against insider
//! attacks in the cloud").
//!
//! Two measurements:
//!
//! 1. **Asymmetry**: real wall-clock cost of solving a puzzle at
//!    difficulty K versus verifying one — the work an attacker must burn
//!    per forged I2 attempt versus what the responder spends rejecting it.
//! 2. **Flood resilience**: a responder under a garbage-I2 flood (1000
//!    packets/s of bogus solutions) while a legitimate client runs a BEX.
//!    Because the responder checks the puzzle *before* any expensive
//!    cryptography (and R1s are pre-computed), the flood costs it almost
//!    nothing and the legitimate exchange completes normally.
//!
//! Usage: `cargo run -p bench --release --bin ablation_dos [--trace-out <path>]`
//!
//! Writes a run manifest to `results/ablation_dos-flood.json`;
//! `--trace-out` exports the flood run's typed trace as JSONL.

use bench::report::{manifest, table, write_manifest, write_trace, Args, Flag};
use hip_core::identity::{Hit, HostIdentity};
use hip_core::wire::{HipPacket, PacketType, Param};
use hip_core::{puzzle, HipConfig, HipShim, PeerInfo};
use netsim::engine::{Ctx, Node, TimerHandle, TimerOwner};
use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::link::LinkId;
use netsim::packet::{v4, Packet, Payload};
use netsim::tcp::TcpEvent;
use netsim::{Endpoint, LinkParams, Sim, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;
use std::time::Instant;

/// Floods garbage I2 packets (random HITs, bogus puzzle solutions) at a
/// fixed rate.
struct I2Flooder {
    target: IpAddr,
    target_hit: Hit,
    link: LinkId,
    interval: SimDuration,
    sent: u64,
}

impl Node for I2Flooder {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.interval, TimerHandle { owner: TimerOwner::Node, token: 1 });
    }
    fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
    fn handle_timer(&mut self, _: TimerHandle, ctx: &mut Ctx) {
        self.sent += 1;
        let mut hit = [0u8; 16];
        let r = ctx.random_u64().to_be_bytes();
        hit[..8].copy_from_slice(&r);
        hit[0] = 0x20;
        hit[1] = 0x01;
        let forged = HipPacket::new(
            PacketType::I2,
            Hit(hit),
            self.target_hit,
            vec![
                Param::Solution { k: 10, opaque: 0, i: ctx.random_u64(), j: ctx.random_u64() },
                Param::DiffieHellman { group: 255, public: vec![2; 64] },
                Param::EspInfo { old_spi: 0, new_spi: 1 },
                Param::HostId(vec![5, 0, 0, 0, 4, 1, 2, 3, 4, 0, 0, 0, 1, 3]),
                Param::Signature(vec![0; 64]),
            ],
        );
        ctx.transmit(
            self.link,
            Packet::new(v4(66, 6, 6, 6), self.target, Payload::HipControl(forged.encode())),
        );
        ctx.set_timer(self.interval, TimerHandle { owner: TimerOwner::Node, token: 1 });
    }
}

struct Pinger {
    target: IpAddr,
    connected_at: Option<SimTime>,
}
impl App for Pinger {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7).expect("source");
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Connected(_)) = ev {
            self.connected_at = Some(api.now());
        }
    }
}

struct Listener;
impl App for Listener {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7);
    }
    fn on_event(&mut self, _: AppEvent, _: &mut HostApi) {}
}

fn main() {
    let trace_path = Args::parse(&[Flag::TraceOut]).trace_out;
    // ---- Part 1: puzzle asymmetry (real wall-clock). ----
    println!("puzzle asymmetry (attacker solve vs responder verify, real wall-clock):");
    let hi = Hit([0xaa; 16]);
    let hr = Hit([0xbb; 16]);
    let mut rows = Vec::new();
    for k in [0u8, 4, 8, 12, 16] {
        let t0 = Instant::now();
        let mut attempts_total = 0u64;
        let iters = 8u64;
        for i in 0..iters {
            let (_, attempts) = puzzle::solve(i * 7919 + 1, k, &hi, &hr, i);
            attempts_total += attempts;
        }
        let solve_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        let (j, _) = puzzle::solve(42, k, &hi, &hr, 0);
        let t1 = Instant::now();
        let verify_iters = 10_000;
        for _ in 0..verify_iters {
            std::hint::black_box(puzzle::verify(42, k, &hi, &hr, j));
        }
        let verify_ns = t1.elapsed().as_secs_f64() * 1e9 / verify_iters as f64;
        rows.push(vec![
            k.to_string(),
            format!("{:.0}", attempts_total as f64 / iters as f64),
            format!("{solve_us:.1}"),
            format!("{verify_ns:.0}"),
            format!("{:.0}x", solve_us * 1000.0 / verify_ns),
        ]);
    }
    println!(
        "{}",
        table(&["K", "avg attempts", "solve µs", "verify ns", "asymmetry"], &rows)
    );

    // ---- Part 2: garbage-I2 flood against a live responder. ----
    println!("garbage-I2 flood: 1000 forged I2/s for 10 s against the responder");
    let mut key_rng = StdRng::seed_from_u64(1);
    let id_r = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_c = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_r, hit_c) = (id_r.hit(), id_c.hit());
    let (addr_r, addr_c, addr_x) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2), v4(10, 0, 0, 3));

    let mut shim_r = HipShim::new(id_r, HipConfig::default());
    shim_r.add_peer(hit_c, PeerInfo { locators: vec![addr_c], via_rvs: None });
    let mut shim_c = HipShim::new(id_c, HipConfig::default());
    shim_c.add_peer(hit_r, PeerInfo { locators: vec![addr_r], via_rvs: None });

    let mut sim = Sim::new(2);
    if trace_path.is_some() {
        sim.trace = netsim::trace::Trace::enabled(500_000);
    }
    let mut hr_host = Host::new("responder");
    hr_host.set_shim(Box::new(shim_r));
    hr_host.add_app(Box::new(Listener));
    let mut hc = Host::new("client");
    hc.set_shim(Box::new(shim_c));
    // The client starts its BEX mid-flood.
    hc.add_app(Box::new(Pinger { target: hit_r.to_ip(), connected_at: None }));

    let r = sim.world.add_node(Box::new(hr_host));
    let c = sim.world.add_node(Box::new(hc));
    let x = sim.world.add_node(Box::new(I2Flooder {
        target: addr_r,
        target_hit: hit_r,
        link: LinkId(0),
        interval: SimDuration::from_millis(1),
        sent: 0,
    }));
    let sw = sim.world.add_node(Box::new(netsim::router::Router::new("sw")));
    let lr = sim.world.connect(Endpoint { node: r, iface: 0 }, Endpoint { node: sw, iface: 0 }, LinkParams::datacenter());
    let lc = sim.world.connect(Endpoint { node: c, iface: 0 }, Endpoint { node: sw, iface: 1 }, LinkParams::datacenter());
    let lx = sim.world.connect(Endpoint { node: x, iface: 0 }, Endpoint { node: sw, iface: 2 }, LinkParams::datacenter());
    sim.world.node_mut::<Host>(r).expect("r").core.add_iface(lr, vec![addr_r]);
    sim.world.node_mut::<Host>(c).expect("c").core.add_iface(lc, vec![addr_c]);
    sim.world.node_mut::<I2Flooder>(x).expect("x").link = lx;
    {
        let router = sim.world.node_mut::<netsim::router::Router>(sw).expect("sw");
        router.add_iface(lr);
        router.add_iface(lc);
        router.add_iface(lx);
        router.add_route(addr_r, 32, 0);
        router.add_route(addr_c, 32, 1);
        router.add_route(addr_x, 32, 2);
    }
    let wall_start = Instant::now();
    sim.run_until(SimTime(10_000_000_000));
    let wall = wall_start.elapsed().as_secs_f64();

    let responder = sim.world.node::<Host>(r).expect("r");
    let stats = responder.shim::<HipShim>().expect("shim").stats;
    let flooded = sim.world.node::<I2Flooder>(x).expect("x").sent;
    let client = sim.world.node::<Host>(c).expect("c").app::<Pinger>(0).expect("pinger");
    println!("  forged I2s sent:          {flooded}");
    println!("  rejected by responder:    {} (puzzle/auth checks)", stats.drops_auth);
    println!("  responder CPU busy:       {:.1} ms over 10 s", responder.core.cpu.busy_time().as_millis_f64());
    println!("  legitimate BEX completed: {}", stats.bex_completed);
    match client.connected_at {
        Some(t) => println!("  legitimate client connected at t={:.3} s — unaffected", t.as_secs_f64()),
        None => println!("  legitimate client FAILED to connect"),
    }
    assert!(stats.bex_completed >= 1, "legitimate BEX must survive the flood");
    assert!(stats.drops_auth as f64 >= flooded as f64 * 0.9, "flood rejected");
    println!("\nthe responder rejects each forged I2 with one hash (puzzle check\nbefore any DH/RSA work) and answers I1s from a pre-computed R1 pool —\nthe DoS cost stays with the attacker, growing 2^K per attempt.");

    let dispatched = sim.stats().dispatched;
    let metrics = sim.take_metrics();
    let mut m = manifest("ablation_dos", "flood", 2);
    m.num("forged_i2s", flooded)
        .num("rejected", stats.drops_auth)
        .num("bex_completed", stats.bex_completed);
    write_manifest(m, wall, dispatched, &metrics);
    if let Some(path) = trace_path {
        write_trace(&sim.trace, &path);
    }
}
