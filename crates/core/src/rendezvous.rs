//! The HIP rendezvous server (RFC 5204).
//!
//! Mobile hosts register their HIT → locator binding; initiators that
//! only know a peer's HIT (and its RVS) send their I1 to the RVS, which
//! relays it to the registered locator with a FROM parameter carrying
//! the initiator's source address. The responder then answers the
//! initiator *directly* — the RVS touches only the first packet, as the
//! paper's §II-B describes for simultaneous relocation.
//!
//! Registration here is a single signed `REG_REQUEST` rather than the
//! RFC's full BEX-with-REG-parameters: the security property exercised
//! (binding is signed by the key that owns the HIT) is the same, and
//! DESIGN.md records the simplification.

use crate::identity::{Hit, PublicHi};
use crate::wire::{encode_locator, param_type, HipPacket, PacketType, Param};
use std::collections::HashMap as SeqMap;
use netsim::engine::{Ctx, Node};
use netsim::link::LinkId;
use netsim::packet::{Packet, Payload};
use std::collections::HashMap;
use std::net::IpAddr;

/// A rendezvous server node.
pub struct RendezvousServer {
    /// The server's locator.
    pub addr: IpAddr,
    link: LinkId,
    registrations: HashMap<Hit, IpAddr>,
    /// Highest registration sequence accepted per HIT (replay guard: a
    /// captured REG_REQUEST cannot re-bind the HIT to a stale locator).
    reg_seq: SeqMap<Hit, u32>,
    /// I1 packets relayed (diagnostics).
    pub relayed: u64,
    /// Registrations rejected for bad signatures (diagnostics).
    pub rejected: u64,
}

impl RendezvousServer {
    /// Creates a server at `addr` attached to `link`.
    pub fn new(addr: IpAddr, link: LinkId) -> Self {
        RendezvousServer { addr, link, registrations: HashMap::new(), reg_seq: SeqMap::new(), relayed: 0, rejected: 0 }
    }

    /// Current registration for a HIT (tests).
    pub fn registration(&self, hit: &Hit) -> Option<IpAddr> {
        self.registrations.get(hit).copied()
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.registrations.len()
    }

    /// True when no HITs are registered.
    pub fn is_empty(&self) -> bool {
        self.registrations.is_empty()
    }

    fn on_reg_request(&mut self, hip: &HipPacket, wire: &Packet, ctx: &mut Ctx) {
        // The registration must be signed by the key that owns the HIT.
        let Some(hi_bytes) = hip.host_id() else { return };
        let Some(hi) = PublicHi::from_bytes(hi_bytes) else { return };
        if hi.hit() != hip.sender_hit {
            self.rejected += 1;
            return;
        }
        let Some(sig) = hip.signature() else {
            self.rejected += 1;
            return;
        };
        let covered = hip.bytes_before(param_type::HIP_SIGNATURE);
        if !hi.verify(&covered, sig) {
            self.rejected += 1;
            ctx.trace_drop(|| format!("rvs: bad registration signature from {:?}", hip.sender_hit));
            return;
        }
        // Replay guard: the signed SEQ must strictly increase per HIT.
        let seq = hip.seq().unwrap_or(0);
        if let Some(&last) = self.reg_seq.get(&hip.sender_hit) {
            if seq <= last {
                self.rejected += 1;
                ctx.trace_drop(|| {
                    format!("rvs: stale registration seq {seq} (have {last}) from {:?}", hip.sender_hit)
                });
                return;
            }
        }
        self.reg_seq.insert(hip.sender_hit, seq);
        let locator = hip
            .locators()
            .first()
            .copied()
            .unwrap_or(wire.src);
        self.registrations.insert(hip.sender_hit, locator);
        let resp = HipPacket::new(PacketType::RegResponse, hip.sender_hit, hip.sender_hit, vec![]);
        ctx.transmit(self.link, Packet::new(self.addr, wire.src, Payload::HipControl(resp.encode())));
        ctx.trace_state(|| format!("rvs: registered {:?} at {locator}", hip.sender_hit));
    }

    fn on_i1(&mut self, hip: &HipPacket, wire: &Packet, ctx: &mut Ctx) {
        let Some(&locator) = self.registrations.get(&hip.receiver_hit) else {
            ctx.trace_drop(|| format!("rvs: no registration for {:?}", hip.receiver_hit));
            return;
        };
        // Relay with FROM (initiator's locator) and VIA_RVS (ours).
        let mut params = hip.params.clone();
        params.push(Param::From(encode_locator(&wire.src)));
        params.push(Param::ViaRvs(encode_locator(&self.addr)));
        let relayed = HipPacket::new(PacketType::I1, hip.sender_hit, hip.receiver_hit, params);
        self.relayed += 1;
        ctx.transmit(self.link, Packet::new(self.addr, locator, Payload::HipControl(relayed.encode())));
    }
}

impl Node for RendezvousServer {
    fn handle_packet(&mut self, _iface: usize, pkt: Packet, ctx: &mut Ctx) {
        let Payload::HipControl(bytes) = &pkt.payload else { return };
        let Some(hip) = HipPacket::decode(bytes) else { return };
        match hip.packet_type {
            PacketType::RegRequest => self.on_reg_request(&hip, &pkt, ctx),
            PacketType::I1 => self.on_i1(&hip, &pkt, ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::HostIdentity;
    use crate::wire::decode_locator;
    use netsim::packet::v4;
    use rand::SeedableRng;

    fn make_signed_reg(id: &HostIdentity, locator: IpAddr, rng: &mut rand::rngs::StdRng) -> HipPacket {
        let mut params = vec![
            Param::HostId(id.public().to_bytes()),
            Param::Locator(vec![encode_locator(&locator)]),
        ];
        let unsigned = HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params.clone());
        let covered = unsigned.bytes_before(param_type::HIP_SIGNATURE);
        params.push(Param::Signature(id.sign(&covered, rng)));
        HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params)
    }

    #[test]
    fn registration_requires_valid_signature() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let id = HostIdentity::generate_rsa(512, &mut rng);
        let mut sim = netsim::Sim::new(1);
        struct Sink;
        impl Node for Sink {
            fn handle_packet(&mut self, _: usize, _: Packet, _: &mut Ctx) {}
        }
        let sink = sim.world.add_node(Box::new(Sink));
        let rvs_addr = v4(10, 0, 0, 9);
        let rvs = sim.world.add_node(Box::new(RendezvousServer::new(rvs_addr, LinkId(0))));
        sim.world.connect(
            netsim::Endpoint { node: rvs, iface: 0 },
            netsim::Endpoint { node: sink, iface: 0 },
            netsim::LinkParams::datacenter(),
        );

        let good = make_signed_reg(&id, v4(10, 0, 0, 5), &mut rng);
        let bad = {
            // Tamper with the advertised locator after signing.
            let mut params = good.params.clone();
            for p in &mut params {
                if let Param::Locator(l) = p {
                    l[0] = encode_locator(&v4(66, 6, 6, 6));
                }
            }
            HipPacket::new(PacketType::RegRequest, id.hit(), Hit::NULL, params)
        };
        sim.schedule(
            netsim::SimDuration::ZERO,
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 5), rvs_addr, Payload::HipControl(good.encode())),
            },
        );
        sim.schedule(
            netsim::SimDuration::ZERO,
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 5), rvs_addr, Payload::HipControl(bad.encode())),
            },
        );
        assert!(sim.run_to_quiescence(100).is_quiescent());
        let server = sim.world.node::<RendezvousServer>(rvs).unwrap();
        assert_eq!(server.len(), 1);
        assert_eq!(server.registration(&id.hit()), Some(v4(10, 0, 0, 5)));
        assert_eq!(server.rejected, 1);
    }

    #[test]
    fn i1_relayed_with_from_param() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let responder = HostIdentity::generate_rsa(512, &mut rng);
        let initiator_hit = Hit([3; 16]);

        struct Capture {
            got: Vec<Packet>,
        }
        impl Node for Capture {
            fn handle_packet(&mut self, _: usize, pkt: Packet, _: &mut Ctx) {
                self.got.push(pkt);
            }
        }

        let mut sim = netsim::Sim::new(2);
        let cap = sim.world.add_node(Box::new(Capture { got: vec![] }));
        let rvs_addr = v4(10, 0, 0, 9);
        let rvs = sim.world.add_node(Box::new(RendezvousServer::new(rvs_addr, LinkId(0))));
        sim.world.connect(
            netsim::Endpoint { node: rvs, iface: 0 },
            netsim::Endpoint { node: cap, iface: 0 },
            netsim::LinkParams::datacenter(),
        );
        // Register the responder.
        let reg = make_signed_reg(&responder, v4(10, 0, 0, 7), &mut rng);
        sim.schedule(
            netsim::SimDuration::ZERO,
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(10, 0, 0, 7), rvs_addr, Payload::HipControl(reg.encode())),
            },
        );
        // Initiator's I1 toward the responder HIT arrives at the RVS.
        let i1 = HipPacket::new(PacketType::I1, initiator_hit, responder.hit(), vec![]);
        sim.schedule(
            netsim::SimDuration::from_millis(1),
            netsim::Event::PacketArrive {
                node: rvs,
                iface: 0,
                pkt: Packet::new(v4(192, 0, 2, 33), rvs_addr, Payload::HipControl(i1.encode())),
            },
        );
        assert!(sim.run_to_quiescence(100).is_quiescent());
        let capture = sim.world.node::<Capture>(cap).unwrap();
        let relayed = capture
            .got
            .iter()
            .filter_map(|p| match &p.payload {
                Payload::HipControl(b) => HipPacket::decode(b),
                _ => None,
            })
            .find(|h| h.packet_type == PacketType::I1)
            .expect("I1 relayed");
        assert_eq!(relayed.receiver_hit, responder.hit());
        let from = relayed
            .find(|p| match p {
                Param::From(a) => Some(decode_locator(a)),
                _ => None,
            })
            .expect("FROM parameter present");
        assert_eq!(from, v4(192, 0, 2, 33));
        assert_eq!(sim.world.node::<RendezvousServer>(rvs).unwrap().relayed, 1);
    }
}
