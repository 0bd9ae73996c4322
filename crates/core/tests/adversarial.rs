//! Adversarial tests: an on-path attacker (exactly the §III-B threat —
//! "another subscriber in the same cloud") who can observe, replay,
//! inject and forge packets. HIP must keep the tunnel confidential,
//! authenticated and replay-protected through all of it.

use bytes::Bytes;
use hip_core::identity::{Hit, HostIdentity};
use hip_core::wire::{param_type, HipPacket, PacketType, Param};
use hip_core::{HipConfig, HipShim, PeerInfo};
use netsim::engine::{Ctx, Node};
use netsim::host::{App, AppEvent, Host, HostApi};
use netsim::link::LinkId;
use netsim::packet::{v4, Packet, Payload};
use netsim::tcp::TcpEvent;
use netsim::{Endpoint, LinkParams, Sim, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::IpAddr;

/// A malicious middlebox on the path between the two hosts. Forwards
/// everything, but can also duplicate ESP packets (replay), flip bits
/// (tamper), or inject pre-built packets. It counts the ESP frames it
/// passes toward `b` so tests can account for every one of them.
struct Mitm {
    left: LinkId,
    right: LinkId,
    /// Duplicate every ESP packet (replay attack).
    replay_esp: bool,
    /// Flip a ciphertext bit in every `tamper_every`-th ESP packet, 0
    /// for never (tamper attack; an odd stride avoids parity-locking
    /// with retransmissions).
    tamper_every: u64,
    /// Packets to inject toward the right side at start.
    inject: Vec<Packet>,
    esp_seen: u64,
    /// ESP frames forwarded toward `b`, tampered or not (replays not
    /// counted).
    esp_to_b: u64,
    /// Of those, frames that were tampered.
    tampered_to_b: u64,
    /// Of those, tampered frames whose batch holds other frames.
    tampered_batched_to_b: u64,
}

impl Node for Mitm {
    fn start(&mut self, ctx: &mut Ctx) {
        for pkt in self.inject.drain(..) {
            ctx.transmit(self.right, pkt);
        }
    }

    fn handle_packet(&mut self, iface: usize, pkt: Packet, ctx: &mut Ctx) {
        let out = if iface == 0 { self.right } else { self.left };
        if let Payload::Esp(esp) = &pkt.payload {
            self.esp_seen += 1;
            let to_b = iface == 0;
            self.esp_to_b += u64::from(to_b);
            if self.tamper_every > 0 && self.esp_seen.is_multiple_of(self.tamper_every) {
                if to_b {
                    self.tampered_to_b += 1;
                    self.tampered_batched_to_b += u64::from(esp.batch.frames.len() > 1);
                }
                let tampered = esp.edited(|ct, _| {
                    let mid = ct.len() / 2;
                    ct[mid] ^= 0x80;
                });
                ctx.transmit(out, Packet::new(pkt.src, pkt.dst, Payload::Esp(tampered)));
                return;
            }
            if self.replay_esp {
                ctx.transmit(out, pkt.clone());
            }
        }
        ctx.transmit(out, pkt);
    }
}

struct EchoServer;
impl App for EchoServer {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
            let d = api.tcp_recv(s);
            api.tcp_send(s, &d);
        }
    }
}

struct Chat {
    target: IpAddr,
    rounds: usize,
    sent: usize,
    replies: usize,
}
impl App for Chat {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Connected(s)) => {
                self.sent += 1;
                api.tcp_send(s, b"round");
            }
            AppEvent::Tcp(TcpEvent::Data(s)) => {
                let _ = api.tcp_recv(s);
                self.replies += 1;
                if self.sent < self.rounds {
                    self.sent += 1;
                    api.tcp_send(s, b"round");
                }
            }
            _ => {}
        }
    }
}

struct World {
    sim: Sim,
    a: netsim::NodeId,
    b: netsim::NodeId,
    m: netsim::NodeId,
    hit_a: Hit,
    hit_b: Hit,
}

/// Writes `total` bytes of [`pattern`] in one call once connected, so
/// TCP emits multi-MSS super-segments that the shim seals as batches.
struct BulkSender {
    target: IpAddr,
    total: usize,
}
impl App for BulkSender {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_connect(self.target, 9);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Connected(s)) = ev {
            api.tcp_send(s, &pattern(self.total));
        }
    }
}

/// Collects every byte received on port 9.
#[derive(Default)]
struct BulkSink {
    got: Vec<u8>,
}
impl App for BulkSink {
    fn start(&mut self, api: &mut HostApi) {
        api.tcp_listen(9);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
            self.got.extend(api.tcp_recv(s));
        }
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 251) as u8).collect()
}

/// a — mitm — b, HIP between a and b, chat app running.
fn build(mitm_cfg: impl FnOnce(&mut Mitm), seed: u64) -> World {
    build_with(
        mitm_cfg,
        seed,
        |target| Box::new(Chat { target, rounds: 10, sent: 0, replies: 0 }),
        Box::new(EchoServer),
    )
}

/// a — mitm — b, HIP between a and b; `client(b's HIT)` runs on a and
/// `server` on b.
fn build_with(
    mitm_cfg: impl FnOnce(&mut Mitm),
    seed: u64,
    client: impl FnOnce(IpAddr) -> Box<dyn App>,
    server: Box<dyn App>,
) -> World {
    let mut key_rng = StdRng::seed_from_u64(seed);
    let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
    let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
    let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
    let (addr_a, addr_b) = (v4(10, 0, 0, 1), v4(10, 0, 0, 2));

    let mut shim_a = HipShim::new(id_a, HipConfig::default());
    shim_a.add_peer(hit_b, PeerInfo { locators: vec![addr_b], via_rvs: None });
    let mut shim_b = HipShim::new(id_b, HipConfig::default());
    shim_b.add_peer(hit_a, PeerInfo { locators: vec![addr_a], via_rvs: None });

    let mut sim = Sim::new(seed ^ 0xabc);
    let mut ha = Host::new("a");
    ha.set_shim(Box::new(shim_a));
    ha.add_app(client(hit_b.to_ip()));
    let mut hb = Host::new("b");
    hb.set_shim(Box::new(shim_b));
    hb.add_app(server);

    let a = sim.world.add_node(Box::new(ha));
    let b = sim.world.add_node(Box::new(hb));
    let mut mitm = Mitm {
        left: LinkId(0),
        right: LinkId(1),
        replay_esp: false,
        tamper_every: 0,
        inject: Vec::new(),
        esp_seen: 0,
        esp_to_b: 0,
        tampered_to_b: 0,
        tampered_batched_to_b: 0,
    };
    mitm_cfg(&mut mitm);
    let m = sim.world.add_node(Box::new(mitm));
    let la = sim.world.connect(
        Endpoint { node: a, iface: 0 },
        Endpoint { node: m, iface: 0 },
        LinkParams::datacenter(),
    );
    let lb = sim.world.connect(
        Endpoint { node: m, iface: 1 },
        Endpoint { node: b, iface: 0 },
        LinkParams::datacenter(),
    );
    // The Mitm's left/right were guessed as LinkId(0)/(1): patch reality.
    {
        let mm = sim.world.node_mut::<Mitm>(m).expect("mitm");
        mm.left = la;
        mm.right = lb;
    }
    sim.world.node_mut::<Host>(a).expect("a").core.add_iface(la, vec![addr_a]);
    sim.world.node_mut::<Host>(b).expect("b").core.add_iface(lb, vec![addr_b]);
    World { sim, a, b, m, hit_a, hit_b }
}

fn shim_stats(sim: &Sim, node: netsim::NodeId) -> hip_core::HipStats {
    sim.world.node::<Host>(node).expect("host").shim::<HipShim>().expect("shim").stats
}

#[test]
fn replayed_esp_packets_are_dropped_and_chat_survives() {
    let mut w = build(|m| m.replay_esp = true, 1);
    w.sim.run_until(SimTime(20_000_000_000));
    let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
    assert_eq!(chat.replies, 10, "application unaffected by the replay attack");
    let sb = shim_stats(&w.sim, w.b);
    assert!(sb.drops_replay > 0, "duplicates were detected and dropped: {sb:?}");
}

#[test]
fn tampered_esp_packets_rejected_tcp_recovers() {
    let mut w = build(|m| m.tamper_every = 3, 2);
    w.sim.run_until(SimTime(60_000_000_000));
    let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
    // TCP retransmits whatever the ICV check discarded; progress holds.
    assert!(chat.replies >= 5, "chat made progress despite tampering: {}", chat.replies);
    let sa = shim_stats(&w.sim, w.a);
    let sb = shim_stats(&w.sim, w.b);
    assert!(
        sa.drops_auth + sb.drops_auth > 0,
        "tampered packets failed authentication: a={sa:?} b={sb:?}"
    );
}

/// A 256 KiB transfer a → b through the Mitm. Returns the world after
/// the run, with the bytes b received.
fn bulk_through_mitm(mitm_cfg: impl FnOnce(&mut Mitm), seed: u64) -> World {
    let mut w = build_with(
        mitm_cfg,
        seed,
        |target| Box::new(BulkSender { target, total: BULK_BYTES }),
        Box::<BulkSink>::default(),
    );
    w.sim.run_until(SimTime(30_000_000_000));
    w
}

const BULK_BYTES: usize = 256 * 1024;

fn mitm(w: &World) -> &Mitm {
    w.sim.world.node::<Mitm>(w.m).expect("mitm")
}

fn received(w: &World) -> &[u8] {
    &w.sim.world.node::<Host>(w.b).expect("b").app::<BulkSink>(0).expect("sink").got
}

#[test]
fn tampered_frames_of_esp_batches_rejected_siblings_delivered() {
    let w = bulk_through_mitm(|m| m.tamper_every = 13, 6);
    let m = mitm(&w);
    let sb = shim_stats(&w.sim, w.b);
    assert!(m.tampered_batched_to_b > 0, "the transfer was batched: {} tampered", m.tampered_to_b);
    // Every tampered frame, and nothing else, failed authentication:
    // the untampered frames of the same batches were all delivered.
    assert_eq!(sb.drops_auth, m.tampered_to_b, "{sb:?}");
    assert_eq!(sb.esp_in, m.esp_to_b - m.tampered_to_b, "{sb:?}");
    assert_eq!(sb.drops_replay, 0);
    assert!(received(&w) == pattern(BULK_BYTES), "TCP delivered {} exact bytes", received(&w).len());
}

#[test]
fn replayed_frames_of_esp_batches_dropped_originals_delivered() {
    let w = bulk_through_mitm(|m| m.replay_esp = true, 7);
    let m = mitm(&w);
    let sb = shim_stats(&w.sim, w.b);
    assert!(m.esp_to_b > 0);
    // Each frame is accepted once and its duplicate dropped as a replay,
    // though the duplicate finds the batch already authenticated.
    assert_eq!(sb.esp_in, m.esp_to_b, "{sb:?}");
    assert_eq!(sb.drops_replay, m.esp_to_b, "{sb:?}");
    assert_eq!(sb.drops_auth, 0);
    assert!(received(&w) == pattern(BULK_BYTES), "TCP delivered {} exact bytes", received(&w).len());
}

#[test]
fn forged_i2_cannot_hijack_an_identity() {
    // The attacker knows the victim's HIT and crafts an I2 claiming it,
    // but signs with its own key (it cannot do better: the HIT is the
    // hash of the key). The responder must reject it.
    let mut key_rng = StdRng::seed_from_u64(9);
    let attacker = HostIdentity::generate_rsa(512, &mut key_rng);

    let mut w = build(
        |_m| {},
        3,
    );
    // First let the legitimate association establish.
    w.sim.run_until(SimTime(5_000_000_000));
    assert!(w
        .sim
        .world
        .node::<Host>(w.b)
        .expect("b")
        .shim::<HipShim>()
        .expect("shim")
        .is_established(&w.hit_a));
    let before = shim_stats(&w.sim, w.b);

    // Forge: I2 with sender HIT = victim's, HOST_ID = attacker's key.
    let mut rng = StdRng::seed_from_u64(10);
    let forged = {
        let mut params = vec![
            Param::Solution { k: 10, opaque: 0, i: 0xdead, j: 0xbeef },
            Param::DiffieHellman { group: 255, public: vec![2; 64] },
            Param::EspInfo { old_spi: 0, new_spi: 0x6666 },
            Param::HostId(attacker.public().to_bytes()),
        ];
        let unsigned = HipPacket::new(PacketType::I2, w.hit_a, w.hit_b, params.clone());
        let covered = unsigned.bytes_before(param_type::HIP_SIGNATURE);
        params.push(Param::Signature(attacker.sign(&covered, &mut rng)));
        HipPacket::new(PacketType::I2, w.hit_a, w.hit_b, params)
    };
    let inject = Packet::new(v4(10, 0, 0, 66), v4(10, 0, 0, 2), Payload::HipControl(forged.encode()));
    w.sim.schedule(
        netsim::SimDuration::from_millis(1),
        netsim::Event::PacketArrive { node: w.b, iface: 0, pkt: inject },
    );
    w.sim.run_until(SimTime(10_000_000_000));

    let after = shim_stats(&w.sim, w.b);
    assert!(after.drops_auth > before.drops_auth, "forged I2 rejected");
    assert_eq!(after.bex_completed, before.bex_completed, "no new association from the forgery");
    // The legitimate association is untouched.
    let chat = w.sim.world.node::<Host>(w.a).expect("a").app::<Chat>(0).expect("chat");
    assert_eq!(chat.replies, 10);
}

#[test]
fn injected_esp_with_unknown_spi_is_dropped() {
    let mut w = build(|_m| {}, 4);
    w.sim.run_until(SimTime(3_000_000_000));
    let before = shim_stats(&w.sim, w.b);
    // Garbage ESP aimed at b with a random SPI.
    let esp = netsim::packet::EspPacket::forged(
        0x4141_4141,
        1,
        Bytes::from(vec![0x41u8; 64]),
        Bytes::from(vec![0x41u8; 16]),
    );
    w.sim.schedule(
        netsim::SimDuration::from_millis(1),
        netsim::Event::PacketArrive {
            node: w.b,
            iface: 0,
            pkt: Packet::new(v4(10, 0, 0, 66), v4(10, 0, 0, 2), Payload::Esp(esp)),
        },
    );
    w.sim.run_until(SimTime(4_000_000_000));
    let after = shim_stats(&w.sim, w.b);
    assert_eq!(after.drops_no_sa, before.drops_no_sa + 1);
}

#[test]
fn attacker_observing_wire_learns_nothing_plaintext() {
    let mut w = build(|_m| {}, 5);
    w.sim.trace = netsim::trace::Trace::enabled(50_000);
    w.sim.run_until(SimTime(10_000_000_000));
    // Everything the mitm forwarded between the hosts was HIP/ESP.
    for e in w.sim.trace.entries() {
        if let netsim::trace::TraceData::Tx(p) = &e.data {
            assert!(
                p.proto == 50 || p.proto == 139,
                "cleartext on the attacker's wire: {}",
                e.detail()
            );
        }
    }
    let _ = (w.hit_a, w.hit_b);
}
