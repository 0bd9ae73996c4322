//! Property-based tests for the HIP protocol machinery: wire-format
//! round trips under arbitrary parameter combinations, puzzle
//! solve/verify, ESP round trips and tamper detection, LSI allocation
//! invariants.

use bytes::Bytes;
use hip_core::esp::{EspSa, InnerMode};
use hip_core::identity::{Hit, LsiMapper};
use hip_core::puzzle;
use hip_core::wire::{decode_locator, encode_locator, HipPacket, PacketType, Param};
use netsim::packet::{Payload, TcpFlags, TcpSegment, UdpData, UdpDatagram};
use proptest::prelude::*;

fn arb_hit() -> impl Strategy<Value = Hit> {
    any::<[u8; 16]>().prop_map(Hit)
}

fn arb_packet_type() -> impl Strategy<Value = PacketType> {
    prop_oneof![
        Just(PacketType::I1),
        Just(PacketType::R1),
        Just(PacketType::I2),
        Just(PacketType::R2),
        Just(PacketType::Update),
        Just(PacketType::Notify),
        Just(PacketType::Close),
        Just(PacketType::CloseAck),
        Just(PacketType::RegRequest),
        Just(PacketType::RegResponse),
    ]
}

fn arb_param() -> impl Strategy<Value = Param> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Param::EspInfo { old_spi: a, new_spi: b }),
        any::<u64>().prop_map(Param::R1Counter),
        proptest::collection::vec(any::<[u8; 16]>(), 0..4).prop_map(Param::Locator),
        (any::<u8>(), any::<u8>(), any::<u16>(), any::<u64>())
            .prop_map(|(k, l, o, i)| Param::Puzzle { k, lifetime: l, opaque: o, i }),
        (any::<u8>(), any::<u16>(), any::<u64>(), any::<u64>())
            .prop_map(|(k, o, i, j)| Param::Solution { k, opaque: o, i, j }),
        any::<u32>().prop_map(Param::Seq),
        proptest::collection::vec(any::<u32>(), 0..5).prop_map(Param::Ack),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..80))
            .prop_map(|(g, p)| Param::DiffieHellman { group: g, public: p }),
        proptest::collection::vec(any::<u16>(), 0..4).prop_map(Param::HipTransform),
        proptest::collection::vec(any::<u8>(), 0..120).prop_map(Param::HostId),
        any::<u64>().prop_map(Param::EchoRequest),
        any::<u64>().prop_map(Param::EchoResponse),
        any::<[u8; 16]>().prop_map(Param::From),
        any::<[u8; 32]>().prop_map(Param::Hmac),
        proptest::collection::vec(any::<u8>(), 0..128).prop_map(Param::Signature),
    ]
}

proptest! {
    #[test]
    fn hip_packet_round_trips(
        ptype in arb_packet_type(),
        sender in arb_hit(),
        receiver in arb_hit(),
        params in proptest::collection::vec(arb_param(), 0..8),
    ) {
        let pkt = HipPacket::new(ptype, sender, receiver, params);
        let decoded = HipPacket::decode(&pkt.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded, pkt);
    }

    #[test]
    fn hip_packet_truncation_never_panics(
        sender in arb_hit(),
        receiver in arb_hit(),
        params in proptest::collection::vec(arb_param(), 0..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let pkt = HipPacket::new(PacketType::I2, sender, receiver, params);
        let bytes = pkt.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = HipPacket::decode(&bytes[..cut]); // must not panic
    }

    #[test]
    fn random_bytes_never_panic_decoder(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = HipPacket::decode(&data);
    }

    #[test]
    fn locator_encoding_round_trips_v4(a in any::<[u8; 4]>()) {
        let addr = std::net::IpAddr::V4(std::net::Ipv4Addr::from(a));
        prop_assert_eq!(decode_locator(&encode_locator(&addr)), addr);
    }

    #[test]
    fn locator_encoding_round_trips_v6(a in any::<[u8; 16]>()) {
        let addr = std::net::IpAddr::V6(std::net::Ipv6Addr::from(a));
        // The v4-mapped range decodes back to v4 by design; skip it.
        prop_assume!(!(a[..10] == [0u8; 10] && a[10] == 0xff && a[11] == 0xff));
        prop_assert_eq!(decode_locator(&encode_locator(&addr)), addr);
    }

    #[test]
    fn puzzle_solutions_verify(i in any::<u64>(), k in 0u8..12, a in arb_hit(), b in arb_hit(), j0 in any::<u64>()) {
        let (j, attempts) = puzzle::solve(i, k, &a, &b, j0);
        prop_assert!(puzzle::verify(i, k, &a, &b, j));
        prop_assert!(attempts >= 1);
    }

    #[test]
    fn esp_round_trips_arbitrary_tcp(
        spi in any::<u32>(),
        enc in any::<[u8; 16]>(),
        auth in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 0..1500),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let src = netsim::packet::v4(1, 0, 0, 1);
        let dst = netsim::packet::v4(1, 0, 0, 2);
        let mut tx = EspSa::new(spi, enc, auth, src, dst);
        let mut rx = EspSa::new(spi, enc, auth, src, dst);
        let payload = Payload::Tcp(TcpSegment {
            src_port: sport,
            dst_port: dport,
            seq: 1,
            ack: 2,
            flags: TcpFlags::ACK,
            window: 100,
            data: Bytes::from(data.clone()),
            gso_mss: 0,
        });
        let esp = tx.encapsulate(InnerMode::Hit, &payload, seed);
        let (mode, back) = rx.decapsulate(&esp).expect("round trips");
        prop_assert_eq!(mode, InnerMode::Hit);
        match back {
            Payload::Tcp(seg) => {
                prop_assert_eq!(seg.data.as_ref(), &data[..]);
                prop_assert_eq!(seg.src_port, sport);
            }
            _ => prop_assert!(false, "wrong payload kind"),
        }
    }

    #[test]
    fn esp_tamper_always_detected(
        data in proptest::collection::vec(any::<u8>(), 1..300),
        flip_byte in any::<usize>(),
    ) {
        let src = netsim::packet::v4(1, 0, 0, 1);
        let dst = netsim::packet::v4(1, 0, 0, 2);
        let mut tx = EspSa::new(9, [1; 16], [2; 32], src, dst);
        let mut rx = EspSa::new(9, [1; 16], [2; 32], src, dst);
        let payload = Payload::Udp(UdpDatagram {
            src_port: 5,
            dst_port: 6,
            data: UdpData::Raw(Bytes::from(data)),
        });
        let esp = tx.encapsulate(InnerMode::Hit, &payload, 7).edited(|ct, _| {
            let idx = flip_byte % ct.len();
            ct[idx] ^= 0x01;
        });
        prop_assert!(rx.decapsulate(&esp).is_err(), "any bit flip must be caught");
    }

    #[test]
    fn esp_sequence_numbers_strictly_increase(n in 1usize..50) {
        let src = netsim::packet::v4(1, 0, 0, 1);
        let dst = netsim::packet::v4(1, 0, 0, 2);
        let mut tx = EspSa::new(1, [0; 16], [0; 32], src, dst);
        let payload = Payload::Udp(UdpDatagram {
            src_port: 1,
            dst_port: 2,
            data: UdpData::Raw(Bytes::from_static(b"x")),
        });
        let mut prev = 0;
        for i in 0..n {
            let esp = tx.encapsulate(InnerMode::Hit, &payload, i as u64);
            prop_assert!(esp.seq > prev);
            prev = esp.seq;
        }
    }

    #[test]
    fn lsi_mapper_bijective(hits in proptest::collection::hash_set(any::<[u8; 16]>(), 1..100)) {
        let mut mapper = LsiMapper::new();
        let mut seen = std::collections::HashSet::new();
        for h in &hits {
            let hit = Hit(*h);
            let lsi = mapper.lsi_for(hit);
            prop_assert_eq!(lsi.octets()[0], 1, "LSIs live in 1/8");
            prop_assert!(seen.insert(lsi), "no two HITs share an LSI");
            prop_assert_eq!(mapper.hit_of(&lsi), Some(hit));
            prop_assert_eq!(mapper.lsi_for(hit), lsi, "stable on re-query");
        }
        prop_assert_eq!(mapper.len(), hits.len());
    }
}
