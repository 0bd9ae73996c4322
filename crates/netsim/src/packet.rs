//! Packet model.
//!
//! Packets are structured (headers as typed fields, not serialized bytes)
//! except where a protocol genuinely operates on opaque bytes: ESP
//! ciphertext and HIP control payloads are real byte strings produced by
//! real cryptography. Every packet knows its *wire length* so links can
//! charge serialization delay faithfully.

use bytes::Bytes;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::{Arc, OnceLock};

/// IP protocol numbers we model (a subset of the IANA registry).
pub mod proto {
    /// ICMP (v4 and v6 folded together).
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// IPsec Encapsulating Security Payload.
    pub const ESP: u8 = 50;
    /// Host Identity Protocol (RFC 5201 allocates protocol 139).
    pub const HIP: u8 = 139;
}

/// A simulated IP packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Source address (may be a locator, a HIT or an LSI depending on
    /// which layer of the stack the packet is traversing).
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Remaining hop count; routers drop at zero.
    pub ttl: u8,
    /// Transport payload.
    pub payload: Payload,
}

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// Transport-layer content of a packet.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// An IPsec ESP packet (HIP data plane). The ciphertext is real.
    Esp(EspPacket),
    /// A HIP control packet (serialized, signed bytes).
    HipControl(Bytes),
}

impl Packet {
    /// Builds a packet with the default TTL.
    pub fn new(src: IpAddr, dst: IpAddr, payload: Payload) -> Self {
        Packet { src, dst, ttl: DEFAULT_TTL, payload }
    }

    /// IP protocol number of the payload.
    pub fn protocol(&self) -> u8 {
        match &self.payload {
            Payload::Tcp(_) => proto::TCP,
            Payload::Udp(_) => proto::UDP,
            Payload::Icmp(_) => proto::ICMP,
            Payload::Esp(_) => proto::ESP,
            Payload::HipControl(_) => proto::HIP,
        }
    }

    /// Size of the IP header on the wire for this address family.
    fn ip_header_len(&self) -> usize {
        if self.dst.is_ipv6() { 40 } else { 20 }
    }

    /// Total bytes this packet occupies on a link.
    pub fn wire_len(&self) -> usize {
        self.ip_header_len() + self.payload.wire_len()
    }
}

impl Payload {
    /// Bytes the payload contributes to the wire length.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Tcp(seg) => 20 + seg.data.len(),
            Payload::Udp(d) => 8 + d.data.wire_len(),
            Payload::Icmp(m) => 8 + m.payload_len,
            // SPI (4) + seq (4) + ciphertext (includes IV/padding) + ICV.
            Payload::Esp(e) => e.wire_len(),
            Payload::HipControl(b) => b.len(),
        }
    }
}

/// TCP header flags.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Synchronize (connection open).
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Finish (sender is done transmitting).
    pub fin: bool,
    /// Reset (abort the connection).
    pub rst: bool,
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        if self.syn {
            s.push('S');
        }
        if self.ack {
            s.push('A');
        }
        if self.fin {
            s.push('F');
        }
        if self.rst {
            s.push('R');
        }
        write!(f, "[{s}]")
    }
}

impl TcpFlags {
    /// Just SYN.
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false };
    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: true, rst: false };
    /// RST.
    pub const RST: TcpFlags = TcpFlags { syn: false, ack: false, fin: false, rst: true };
}

/// A TCP segment.
#[derive(Clone, Debug)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first data byte (or of SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgement (valid when `flags.ack`).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Payload bytes.
    pub data: Bytes,
    /// GSO: when non-zero, this is a super-segment logically composed
    /// of MSS-sized frames of this size. The NIC layer splits it back
    /// into wire frames (see [`split_gso`]) before the link; a zero
    /// value marks an ordinary wire segment.
    pub gso_mss: u16,
}

/// Splits a GSO super-segment into its per-frame MSS segments
/// (zero-copy slices of the super's payload). The frames are exactly
/// the segments per-MSS emission would have produced: sequence numbers
/// advance by frame length, FIN rides only on the final frame, and
/// ack/window/flags otherwise replicate.
pub fn split_gso(seg: &TcpSegment) -> Vec<TcpSegment> {
    let mss = seg.gso_mss as usize;
    debug_assert!(mss > 0, "split_gso on a non-GSO segment");
    let mut frames = Vec::with_capacity(seg.data.len().div_ceil(mss.max(1)));
    let mut off = 0;
    while off < seg.data.len() {
        let take = mss.min(seg.data.len() - off);
        let last = off + take == seg.data.len();
        let mut flags = seg.flags;
        flags.fin = seg.flags.fin && last;
        frames.push(TcpSegment {
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq.wrapping_add(off as u32),
            ack: seg.ack,
            flags,
            window: seg.window,
            data: seg.data.slice(off..off + take),
            gso_mss: 0,
        });
        off += take;
    }
    frames
}

/// A UDP datagram.
#[derive(Clone, Debug)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// The payload.
    pub data: UdpData,
}

/// UDP payloads: opaque bytes, a tunneled inner packet (Teredo), or a DNS
/// message (kept structured to avoid a DNS codec nobody measures).
#[derive(Clone, Debug)]
pub enum UdpData {
    /// Opaque application bytes.
    Raw(Bytes),
    /// A Teredo-encapsulated inner IPv6 packet (RFC 4380: IPv6-in-UDP).
    Teredo(Box<Packet>),
    /// A structured DNS message.
    Dns(crate::dns::DnsMessage),
}

impl UdpData {
    /// Bytes on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            UdpData::Raw(b) => b.len(),
            UdpData::Teredo(p) => p.wire_len(),
            UdpData::Dns(m) => m.wire_len(),
        }
    }
}

/// An ICMP message (echo only; that is all the experiments need).
#[derive(Clone, Debug)]
pub struct IcmpMessage {
    /// What kind of ICMP message.
    pub kind: IcmpKind,
    /// Identifier distinguishing concurrent ping sessions.
    pub ident: u16,
    /// Sequence number within a session.
    pub seq: u16,
    /// Size of the echo payload (bytes are never inspected, only counted).
    pub payload_len: usize,
}

/// ICMP message kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpKind {
    /// Ping request (hosts auto-reply).
    EchoRequest,
    /// Ping reply.
    EchoReply,
    /// Destination unreachable (sent by NAT/routers on drops when enabled).
    Unreachable,
}

/// An IPsec ESP packet as produced by the HIP BEET data plane: one
/// frame of an [`EspBatch`]. A packet sealed on its own is a batch of
/// one.
#[derive(Clone, Debug)]
pub struct EspPacket {
    /// Security Parameter Index identifying the SA at the receiver.
    pub spi: u32,
    /// Monotonic sequence number (anti-replay).
    pub seq: u32,
    /// The batch this frame belongs to (shared by all its frames).
    pub batch: Arc<EspBatch>,
    /// Index into [`EspBatch::frames`].
    pub index: u32,
}

impl EspPacket {
    /// A lone frame carrying arbitrary bytes that no SA sealed (an
    /// attacker's injection, a forged or garbage packet). It declares
    /// `ciphertext.len() + icv.len()` wire bytes and an empty inner
    /// encoding.
    pub fn forged(spi: u32, seq: u32, ciphertext: Bytes, icv: Bytes) -> Self {
        let wire_payload_len = (ciphertext.len() + icv.len()) as u32;
        let frames = vec![EspFrameMeta { inner_off: 0, inner_len: 0, wire_payload_len }];
        EspPacket { spi, seq, batch: Arc::new(EspBatch::new(seq, ciphertext, icv, frames)), index: 0 }
    }

    /// A copy of this frame pointing at a fresh copy of its batch whose
    /// ciphertext and ICV `edit` has rewritten (a tampering middlebox).
    /// The copy has no memoized plaintext; the original batch and its
    /// other frames are untouched.
    pub fn edited(&self, edit: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>)) -> Self {
        let b = &self.batch;
        let (mut ct, mut icv) = (b.ciphertext.to_vec(), b.icv.to_vec());
        edit(&mut ct, &mut icv);
        let batch = EspBatch::new(b.first_seq, Bytes::from(ct), Bytes::from(icv), b.frames.clone());
        EspPacket { batch: Arc::new(batch), ..self.clone() }
    }

    /// Bytes this ESP payload occupies on the wire (excluding IP): SPI
    /// (4) + seq (4) + the frame's declared IV+ct+ICV bytes.
    pub fn wire_len(&self) -> usize {
        8 + self.batch.frames[self.index as usize].wire_payload_len as usize
    }
}

/// One or more ESP frames sealed with a single AES-CBC/HMAC pass over
/// the concatenated inner encodings. Frames carry consecutive sequence
/// numbers starting at `first_seq`; each declares the wire length it
/// would occupy had it been sealed alone, so link accounting does not
/// depend on how frames were batched.
#[derive(Debug)]
pub struct EspBatch {
    /// Sequence number of the first frame.
    pub first_seq: u32,
    /// IV + one CBC pass over the concatenated inner encodings.
    pub ciphertext: Bytes,
    /// One ICV over `spi ‖ first_seq ‖ ciphertext`.
    pub icv: Bytes,
    /// Per-frame offsets into the concatenated plaintext.
    pub frames: Vec<EspFrameMeta>,
    /// Receiver-side memo: the id of the SA that verified and decrypted
    /// the batch, and its result (`None` = failed).
    memo: OnceLock<(u64, Option<Bytes>)>,
}

impl EspBatch {
    /// A batch with nothing memoized yet.
    pub fn new(first_seq: u32, ciphertext: Bytes, icv: Bytes, frames: Vec<EspFrameMeta>) -> Self {
        EspBatch { first_seq, ciphertext, icv, frames, memo: OnceLock::new() }
    }

    /// The batch plaintext as the SA with id `sa` sees it, `None` if it
    /// fails that SA's authentication or decryption. `open` runs at most
    /// once for the first SA to ask, however many frames arrive; any
    /// other SA runs its own `open` every time and never sees the first
    /// SA's result.
    pub fn plain_for(&self, sa: u64, open: impl FnOnce(&EspBatch) -> Option<Bytes>) -> Option<Bytes> {
        match self.memo.get() {
            Some((owner, plain)) if *owner == sa => plain.clone(),
            Some(_) => open(self),
            None => {
                // The sim is single-threaded, so get/set cannot race.
                let plain = open(self);
                let _ = self.memo.set((sa, plain.clone()));
                plain
            }
        }
    }
}

/// Offsets of one frame inside an [`EspBatch`].
#[derive(Clone, Copy, Debug)]
pub struct EspFrameMeta {
    /// Byte offset of this frame's inner encoding in the batch plaintext.
    pub inner_off: u32,
    /// Length of this frame's inner encoding.
    pub inner_len: u32,
    /// IV + ciphertext + ICV bytes this frame would occupy on the wire
    /// had it been sealed alone (analytic; excludes the 8-byte ESP
    /// header).
    pub wire_payload_len: u32,
}

/// Convenience constructors used across the workspace and in tests.
pub fn v4(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(a, b, c, d))
}

/// Builds an IPv6 address from eight segments.
pub fn v6(segs: [u16; 8]) -> IpAddr {
    IpAddr::V6(Ipv6Addr::new(
        segs[0], segs[1], segs[2], segs[3], segs[4], segs[5], segs[6], segs[7],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_tcp() {
        let pkt = Packet::new(
            v4(10, 0, 0, 1),
            v4(10, 0, 0, 2),
            Payload::Tcp(TcpSegment {
                src_port: 1000,
                dst_port: 80,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 65535,
                data: Bytes::new(),
                gso_mss: 0,
            }),
        );
        // 20 IP + 20 TCP
        assert_eq!(pkt.wire_len(), 40);
        assert_eq!(pkt.protocol(), proto::TCP);
    }

    #[test]
    fn wire_len_ipv6_header() {
        let pkt = Packet::new(
            v6([0x2001, 0, 0, 0, 0, 0, 0, 1]),
            v6([0x2001, 0, 0, 0, 0, 0, 0, 2]),
            Payload::Icmp(IcmpMessage {
                kind: IcmpKind::EchoRequest,
                ident: 1,
                seq: 1,
                payload_len: 56,
            }),
        );
        assert_eq!(pkt.wire_len(), 40 + 8 + 56);
    }

    #[test]
    fn wire_len_teredo_nesting() {
        let inner = Packet::new(
            v6([0x2001, 0, 0, 0, 0, 0, 0, 1]),
            v6([0x2001, 0, 0, 0, 0, 0, 0, 2]),
            Payload::Udp(UdpDatagram {
                src_port: 1,
                dst_port: 2,
                data: UdpData::Raw(Bytes::from_static(b"hello")),
            }),
        );
        let inner_len = inner.wire_len();
        let outer = Packet::new(
            v4(192, 0, 2, 1),
            v4(192, 0, 2, 2),
            Payload::Udp(UdpDatagram {
                src_port: 3544,
                dst_port: 3544,
                data: UdpData::Teredo(Box::new(inner)),
            }),
        );
        // Outer v4 IP (20) + UDP (8) + full inner packet.
        assert_eq!(outer.wire_len(), 20 + 8 + inner_len);
    }

    #[test]
    fn esp_wire_len_counts_crypto_bytes() {
        let esp = EspPacket::forged(0x1234, 9, Bytes::from(vec![0u8; 64]), Bytes::from(vec![0u8; 16]));
        let pkt = Packet::new(v4(1, 2, 3, 4), v4(5, 6, 7, 8), Payload::Esp(esp));
        assert_eq!(pkt.wire_len(), 20 + 8 + 64 + 16);
    }

    #[test]
    fn flags_debug_compact() {
        assert_eq!(format!("{:?}", TcpFlags::SYN_ACK), "[SA]");
        assert_eq!(format!("{:?}", TcpFlags::RST), "[R]");
    }

    #[test]
    fn split_gso_reproduces_per_mss_frames() {
        let data: Vec<u8> = (0..3500u32).map(|i| (i % 251) as u8).collect();
        let sup = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: u32::MAX - 1000, // exercises wraparound
            ack: 42,
            flags: TcpFlags::FIN_ACK,
            window: 8192,
            data: Bytes::from(data.clone()),
            gso_mss: 1448,
        };
        let frames = split_gso(&sup);
        assert_eq!(frames.len(), 3); // 1448 + 1448 + 604
        let mut reassembled = Vec::new();
        let mut expect_seq = sup.seq;
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, expect_seq);
            assert_eq!(f.gso_mss, 0);
            assert_eq!(f.ack, sup.ack);
            assert_eq!(f.window, sup.window);
            assert!(f.flags.ack);
            assert_eq!(f.flags.fin, i == frames.len() - 1, "FIN only on last");
            reassembled.extend_from_slice(&f.data);
            expect_seq = expect_seq.wrapping_add(f.data.len() as u32);
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn esp_frame_declares_its_own_wire_len() {
        let frames = vec![
            EspFrameMeta { inner_off: 0, inner_len: 30, wire_payload_len: 16 + 32 + 16 },
            EspFrameMeta { inner_off: 30, inner_len: 40, wire_payload_len: 16 + 48 + 16 },
        ];
        let batch = Arc::new(EspBatch::new(7, Bytes::from(vec![0u8; 160]), Bytes::from(vec![0u8; 16]), frames));
        let frame = EspPacket { spi: 1, seq: 8, batch, index: 1 };
        assert_eq!(frame.wire_len(), 8 + 16 + 48 + 16);
    }

    #[test]
    fn edited_frame_leaves_the_original_batch_alone() {
        let esp = EspPacket::forged(1, 1, Bytes::from(vec![0u8; 32]), Bytes::from(vec![0u8; 16]));
        let tampered = esp.edited(|ct, icv| {
            ct[3] ^= 1;
            icv[0] ^= 1;
        });
        assert_eq!(tampered.batch.ciphertext[3], 1);
        assert_eq!(tampered.batch.icv[0], 1);
        assert_eq!(tampered.wire_len(), esp.wire_len());
        assert!(!Arc::ptr_eq(&esp.batch, &tampered.batch));
        assert_eq!(esp.batch.ciphertext[3], 0);
    }

    #[test]
    fn batch_memo_belongs_to_the_sa_that_computed_it() {
        let batch = EspBatch::new(1, Bytes::new(), Bytes::new(), Vec::new());
        let calls = std::cell::Cell::new(0);
        let open = |ok: bool| {
            calls.set(calls.get() + 1);
            ok.then(|| Bytes::from_static(b"plain"))
        };
        assert!(batch.plain_for(1, |_| open(true)).is_some());
        assert!(batch.plain_for(1, |_| open(false)).is_some(), "SA 1 reads its memo");
        assert_eq!(calls.get(), 1);
        assert!(batch.plain_for(2, |_| open(false)).is_none(), "SA 2 opens for itself");
        assert!(batch.plain_for(2, |_| open(false)).is_none());
        assert_eq!(calls.get(), 3);
    }
}
