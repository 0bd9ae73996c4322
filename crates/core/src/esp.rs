//! The HIP data plane: IPsec ESP in Bound End-to-End Tunnel (BEET) mode
//! (RFC 5202 + the BEET ESP draft the paper cites).
//!
//! BEET's trick is that the *inner* addresses (the HITs) are fixed for
//! the SA's lifetime, so they are never transmitted — the SPI implies
//! them. That is why the paper calls BEET "more bandwidth-efficient than
//! the tunnel mode". We transmit only a compact serialization of the
//! transport payload; both the AES-CBC encryption and the truncated
//! HMAC-SHA-256 ICV are computed for real, so tampering and replay are
//! actually detected, not assumed.

use bytes::Bytes;
use netsim::packet::{
    EspBatch, EspFrameMeta, EspPacket, IcmpKind, IcmpMessage, Packet, Payload, TcpFlags,
    TcpSegment, UdpData, UdpDatagram,
};
use sim_crypto::aes::Aes128;
use sim_crypto::hmac::{verify_mac, HmacKey};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// ICV length: HMAC-SHA-256 truncated to 16 bytes.
pub const ICV_LEN: usize = 16;

/// Anti-replay window size in packets (RFC 4303 default is 64).
pub const REPLAY_WINDOW: u32 = 64;

/// Why an inbound ESP packet was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EspError {
    /// ICV mismatch: packet corrupted or forged.
    BadIcv,
    /// Sequence number already seen or too old.
    Replay,
    /// Ciphertext malformed (padding, truncation).
    BadCiphertext,
    /// Inner payload failed to parse.
    BadInner,
}

/// Source of [`EspSa`] ids.
static NEXT_SA_ID: AtomicU64 = AtomicU64::new(0);

/// One direction of a security association.
pub struct EspSa {
    /// The SPI identifying this SA at the receiver.
    pub spi: u32,
    /// Process-unique id, only ever compared for equality: it tags the
    /// batch plaintext this SA memoizes so no other SA can read it.
    id: u64,
    cipher: Aes128,
    /// Cached HMAC transcripts for the auth key: the ipad/opad states
    /// are absorbed once at SA setup, then cloned per packet.
    auth: HmacKey,
    /// Next outbound sequence number (transmit side).
    seq: u32,
    /// Receive side: highest sequence seen + sliding window bitmap.
    rcv_highest: u32,
    rcv_window: u64,
    /// The fixed inner source address (BEET: implied by the SPI).
    pub inner_src: IpAddr,
    /// The fixed inner destination address.
    pub inner_dst: IpAddr,
    /// Packets processed (diagnostics).
    pub packets: u64,
    /// Bytes of plaintext protected (diagnostics).
    pub bytes: u64,
    /// Pooled plaintext buffer: encode/decrypt reuse one allocation per
    /// SA instead of allocating per packet.
    scratch: Vec<u8>,
}

impl EspSa {
    /// Creates an SA from KEYMAT-derived keys.
    pub fn new(spi: u32, enc_key: [u8; 16], auth_key: [u8; 32], inner_src: IpAddr, inner_dst: IpAddr) -> Self {
        EspSa {
            spi,
            id: NEXT_SA_ID.fetch_add(1, Ordering::Relaxed),
            cipher: Aes128::new(&enc_key),
            auth: HmacKey::new(&auth_key),
            seq: 0,
            rcv_highest: 0,
            rcv_window: 0,
            inner_src,
            inner_dst,
            packets: 0,
            bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// Encapsulates a transport payload (with its identity-mode flag)
    /// into an ESP packet: a batch of one. `iv_seed` supplies IV
    /// randomness.
    pub fn encapsulate(&mut self, mode: InnerMode, payload: &Payload, iv_seed: u64) -> EspPacket {
        let batch = self.seal(mode, std::slice::from_ref(payload), iv_seed);
        EspPacket { spi: self.spi, seq: batch.first_seq, batch, index: 0 }
    }

    /// Encapsulates a run of transport payloads as one batch. Each frame
    /// consumes its own (consecutive) sequence number and declares
    /// exactly the wire length [`Self::encapsulate`] would have
    /// produced for it — per-frame link accounting is unchanged — but
    /// the AES-CBC pass and the ICV run once over the concatenated
    /// inner encodings. Returns one `EspPacket` per frame sharing the
    /// batch.
    pub fn encapsulate_gso(&mut self, mode: InnerMode, payloads: &[Payload], iv_seed: u64) -> Vec<EspPacket> {
        let batch = self.seal(mode, payloads, iv_seed);
        (0..payloads.len())
            .map(|i| EspPacket {
                spi: self.spi,
                seq: batch.first_seq.wrapping_add(i as u32),
                batch: Arc::clone(&batch),
                index: i as u32,
            })
            .collect()
    }

    /// Seals `payloads` into one batch: consecutive sequence numbers,
    /// one CBC pass under IV `iv_seed ‖ first_seq` and one ICV.
    fn seal(&mut self, mode: InnerMode, payloads: &[Payload], iv_seed: u64) -> Arc<EspBatch> {
        let first_seq = self.seq.wrapping_add(1);
        self.scratch.clear();
        let mut frames = Vec::with_capacity(payloads.len());
        for p in payloads {
            self.seq = self.seq.wrapping_add(1);
            let off = self.scratch.len();
            encode_inner_into(mode, p, &mut self.scratch);
            let inner_len = self.scratch.len() - off;
            self.packets += 1;
            self.bytes += inner_len as u64;
            frames.push(EspFrameMeta {
                inner_off: off as u32,
                inner_len: inner_len as u32,
                wire_payload_len: (16 + Aes128::cbc_padded_len(inner_len) + ICV_LEN) as u32,
            });
        }
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&iv_seed.to_be_bytes());
        iv[8..12].copy_from_slice(&first_seq.to_be_bytes());
        // The wire buffer becomes the batch's `Bytes` (one unavoidable
        // allocation); the plaintext is ciphered straight into it after
        // the IV, with no intermediate ciphertext vector.
        let mut wire = Vec::with_capacity(16 + self.scratch.len() + 16);
        wire.extend_from_slice(&iv);
        self.cipher.cbc_encrypt_into(&iv, &self.scratch, &mut wire);
        let icv = self.icv(first_seq, &wire);
        Arc::new(EspBatch::new(first_seq, Bytes::from(wire), Bytes::copy_from_slice(&icv), frames))
    }

    /// Authenticates, replay-checks and decrypts an inbound ESP packet,
    /// returning the inner mode and payload. The batch is authenticated
    /// and decrypted at most once per SA (memoized in the shared
    /// [`EspBatch`]); replay protection, counters and inner parsing run
    /// per frame in arrival order.
    pub fn decapsulate(&mut self, esp: &EspPacket) -> Result<(InnerMode, Payload), EspError> {
        // The ICV covers the batch's first sequence number, so a frame's
        // own is authentic only at its position in the batch.
        if esp.seq != esp.batch.first_seq.wrapping_add(esp.index) {
            return Err(EspError::BadIcv);
        }
        // A batch failing authentication or decryption rejects every
        // frame without touching the replay window.
        let plain = esp.batch.plain_for(self.id, |b| self.open(b)).ok_or(EspError::BadIcv)?;
        self.check_replay(esp.seq)?;
        let meta = esp.batch.frames.get(esp.index as usize).ok_or(EspError::BadCiphertext)?;
        let start = meta.inner_off as usize;
        let inner = plain.get(start..start + meta.inner_len as usize).ok_or(EspError::BadCiphertext)?;
        self.packets += 1;
        self.bytes += inner.len() as u64;
        decode_inner(inner).ok_or(EspError::BadInner)
    }

    /// Batch-level work for [`Self::decapsulate`]: verify the ICV over
    /// the whole batch ciphertext, then decrypt it. `None` means
    /// authentication or decryption failed.
    fn open(&mut self, batch: &EspBatch) -> Option<Bytes> {
        let expect = self.icv(batch.first_seq, &batch.ciphertext);
        if !verify_mac(&expect, &batch.icv) || batch.ciphertext.len() < 32 {
            return None;
        }
        let iv: [u8; 16] = batch.ciphertext[..16].try_into().expect("16 bytes");
        let mut plain = Vec::with_capacity(batch.ciphertext.len() - 16);
        if !self.cipher.cbc_decrypt_into(&iv, &batch.ciphertext[16..], &mut plain) {
            return None;
        }
        Some(Bytes::from(plain))
    }

    fn icv(&mut self, seq: u32, ciphertext: &[u8]) -> [u8; ICV_LEN] {
        // `spi | seq | ciphertext` streamed straight into the cached
        // transcript — no concatenation buffer, no key re-derivation.
        let full = self
            .auth
            .mac_multi(&[&self.spi.to_be_bytes(), &seq.to_be_bytes(), ciphertext]);
        full[..ICV_LEN].try_into().expect("truncation")
    }

    /// RFC 4303 §3.4.3 sliding-window replay check, updating the window.
    fn check_replay(&mut self, seq: u32) -> Result<(), EspError> {
        if seq == 0 {
            return Err(EspError::Replay);
        }
        if seq > self.rcv_highest {
            let shift = seq - self.rcv_highest;
            self.rcv_window = if shift >= 64 { 0 } else { self.rcv_window << shift };
            self.rcv_window |= 1;
            self.rcv_highest = seq;
            return Ok(());
        }
        let offset = self.rcv_highest - seq;
        if offset >= REPLAY_WINDOW {
            return Err(EspError::Replay);
        }
        let bit = 1u64 << offset;
        if self.rcv_window & bit != 0 {
            return Err(EspError::Replay);
        }
        self.rcv_window |= bit;
        Ok(())
    }

    /// Current outbound sequence number (diagnostics).
    pub fn tx_seq(&self) -> u32 {
        self.seq
    }
}

/// How the application addressed this packet — determines how the
/// receiver reconstructs the inner addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerMode {
    /// Application used HITs (IPv6).
    Hit,
    /// Application used LSIs (IPv4); both ends translate (the paper's
    /// "extra translations" penalty).
    Lsi,
}

impl InnerMode {
    fn id(self) -> u8 {
        match self {
            InnerMode::Hit => 1,
            InnerMode::Lsi => 2,
        }
    }

    fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(InnerMode::Hit),
            2 => Some(InnerMode::Lsi),
            _ => None,
        }
    }
}

/// Serializes a transport payload for encryption, appending to a pooled
/// buffer (the caller clears it).
///
/// Format: `mode (1) | kind (1) | kind-specific fields`.
fn encode_inner_into(mode: InnerMode, payload: &Payload, out: &mut Vec<u8>) {
    out.push(mode.id());
    match payload {
        Payload::Tcp(seg) => {
            out.push(1);
            out.extend_from_slice(&seg.src_port.to_be_bytes());
            out.extend_from_slice(&seg.dst_port.to_be_bytes());
            out.extend_from_slice(&seg.seq.to_be_bytes());
            out.extend_from_slice(&seg.ack.to_be_bytes());
            let flags = u8::from(seg.flags.syn)
                | u8::from(seg.flags.ack) << 1
                | u8::from(seg.flags.fin) << 2
                | u8::from(seg.flags.rst) << 3;
            out.push(flags);
            out.extend_from_slice(&seg.window.to_be_bytes());
            out.extend_from_slice(&(seg.data.len() as u32).to_be_bytes());
            out.extend_from_slice(&seg.data);
        }
        Payload::Udp(udp) => {
            let UdpData::Raw(data) = &udp.data else {
                // Structured UDP payloads (DNS, Teredo) are not carried
                // over ESP in the experiments; encode their length only.
                out.push(3);
                out.extend_from_slice(&udp.src_port.to_be_bytes());
                out.extend_from_slice(&udp.dst_port.to_be_bytes());
                out.extend_from_slice(&(udp.data.wire_len() as u32).to_be_bytes());
                return;
            };
            out.push(2);
            out.extend_from_slice(&udp.src_port.to_be_bytes());
            out.extend_from_slice(&udp.dst_port.to_be_bytes());
            out.extend_from_slice(&(data.len() as u32).to_be_bytes());
            out.extend_from_slice(data);
        }
        Payload::Icmp(icmp) => {
            out.push(4);
            out.push(match icmp.kind {
                IcmpKind::EchoRequest => 1,
                IcmpKind::EchoReply => 2,
                IcmpKind::Unreachable => 3,
            });
            out.extend_from_slice(&icmp.ident.to_be_bytes());
            out.extend_from_slice(&icmp.seq.to_be_bytes());
            out.extend_from_slice(&(icmp.payload_len as u32).to_be_bytes());
        }
        Payload::Esp(_) | Payload::HipControl(_) => {
            // Nested tunnels are not modeled.
            out.push(0);
        }
    }
}

/// Parses the plaintext produced by [`encode_inner`].
fn decode_inner(data: &[u8]) -> Option<(InnerMode, Payload)> {
    let mode = InnerMode::from_id(*data.first()?)?;
    let kind = *data.get(1)?;
    let rest = &data[2..];
    let payload = match kind {
        1 => {
            if rest.len() < 21 {
                return None;
            }
            let data_len = u32::from_be_bytes(rest[17..21].try_into().ok()?) as usize;
            if rest.len() < 21 + data_len {
                return None;
            }
            let flags = rest[12];
            Payload::Tcp(TcpSegment {
                src_port: u16::from_be_bytes(rest[0..2].try_into().ok()?),
                dst_port: u16::from_be_bytes(rest[2..4].try_into().ok()?),
                seq: u32::from_be_bytes(rest[4..8].try_into().ok()?),
                ack: u32::from_be_bytes(rest[8..12].try_into().ok()?),
                flags: TcpFlags {
                    syn: flags & 1 != 0,
                    ack: flags & 2 != 0,
                    fin: flags & 4 != 0,
                    rst: flags & 8 != 0,
                },
                window: u32::from_be_bytes(rest[13..17].try_into().ok()?),
                data: Bytes::copy_from_slice(&rest[21..21 + data_len]),
                gso_mss: 0,
            })
        }
        2 => {
            if rest.len() < 8 {
                return None;
            }
            let data_len = u32::from_be_bytes(rest[4..8].try_into().ok()?) as usize;
            if rest.len() < 8 + data_len {
                return None;
            }
            Payload::Udp(UdpDatagram {
                src_port: u16::from_be_bytes(rest[0..2].try_into().ok()?),
                dst_port: u16::from_be_bytes(rest[2..4].try_into().ok()?),
                data: UdpData::Raw(Bytes::copy_from_slice(&rest[8..8 + data_len])),
            })
        }
        4 => {
            if rest.len() < 9 {
                return None;
            }
            Payload::Icmp(IcmpMessage {
                kind: match rest[0] {
                    1 => IcmpKind::EchoRequest,
                    2 => IcmpKind::EchoReply,
                    _ => IcmpKind::Unreachable,
                },
                ident: u16::from_be_bytes(rest[1..3].try_into().ok()?),
                seq: u16::from_be_bytes(rest[3..5].try_into().ok()?),
                payload_len: u32::from_be_bytes(rest[5..9].try_into().ok()?) as usize,
            })
        }
        _ => return None,
    };
    Some((mode, payload))
}

/// Reconstructs the inner packet from a decapsulated payload, applying
/// the BEET inner addresses.
pub fn rebuild_inner(sa: &EspSa, mode: InnerMode, payload: Payload, lsi_src: IpAddr, lsi_dst: IpAddr) -> Packet {
    match mode {
        InnerMode::Hit => Packet::new(sa.inner_src, sa.inner_dst, payload),
        InnerMode::Lsi => Packet::new(lsi_src, lsi_dst, payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::v4;

    fn pair() -> (EspSa, EspSa) {
        let enc = [1u8; 16];
        let auth = [2u8; 32];
        let src = v4(1, 0, 0, 1);
        let dst = v4(1, 0, 0, 2);
        (EspSa::new(0x100, enc, auth, src, dst), EspSa::new(0x100, enc, auth, src, dst))
    }

    fn tcp_payload(data: &'static [u8]) -> Payload {
        Payload::Tcp(TcpSegment {
            src_port: 1000,
            dst_port: 80,
            seq: 7,
            ack: 9,
            flags: TcpFlags::ACK,
            window: 65535,
            data: Bytes::from_static(data),
            gso_mss: 0,
        })
    }

    #[test]
    fn encap_decap_round_trip_tcp() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"secret database query"), 42);
        assert!(esp.batch.ciphertext.len() >= 32);
        let (mode, payload) = rx.decapsulate(&esp).expect("valid");
        assert_eq!(mode, InnerMode::Hit);
        match payload {
            Payload::Tcp(seg) => {
                assert_eq!(&seg.data[..], b"secret database query");
                assert_eq!(seg.src_port, 1000);
                assert_eq!(seg.seq, 7);
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut tx, _) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"plaintext marker AAAA"), 1);
        let hay = esp.batch.ciphertext.as_ref();
        let needle = b"plaintext marker";
        assert!(
            !hay.windows(needle.len()).any(|w| w == needle),
            "payload must not appear in the clear"
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        let esp = esp.edited(|ct, _| ct[20] ^= 0x01);
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::BadIcv)));
    }

    #[test]
    fn tampered_icv_rejected() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        let esp = esp.edited(|_, icv| icv[0] ^= 0xff);
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::BadIcv)));
    }

    #[test]
    fn wrong_key_rejected() {
        let (mut tx, _) = pair();
        let mut rx = EspSa::new(0x100, [9u8; 16], [9u8; 32], v4(1, 0, 0, 1), v4(1, 0, 0, 2));
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::BadIcv)));
    }

    #[test]
    fn replayed_packet_rejected() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"data"), 1);
        assert!(rx.decapsulate(&esp).is_ok());
        assert!(matches!(rx.decapsulate(&esp), Err(EspError::Replay)));
    }

    #[test]
    fn out_of_order_within_window_accepted() {
        let (mut tx, mut rx) = pair();
        let e1 = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"1"), 1);
        let e2 = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"2"), 2);
        let e3 = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"3"), 3);
        assert!(rx.decapsulate(&e3).is_ok());
        assert!(rx.decapsulate(&e1).is_ok(), "within window");
        assert!(rx.decapsulate(&e2).is_ok());
        assert!(matches!(rx.decapsulate(&e2), Err(EspError::Replay)), "but only once");
    }

    #[test]
    fn ancient_sequence_rejected() {
        let (mut tx, mut rx) = pair();
        let old = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"old"), 1);
        // Advance the window far past it.
        for i in 0..100 {
            let e = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"x"), i + 2);
            let _ = rx.decapsulate(&e);
        }
        assert!(matches!(rx.decapsulate(&old), Err(EspError::Replay)));
    }

    #[test]
    fn lsi_mode_round_trip() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Lsi, &tcp_payload(b"legacy ipv4 app"), 1);
        let (mode, payload) = rx.decapsulate(&esp).unwrap();
        assert_eq!(mode, InnerMode::Lsi);
        let rebuilt = rebuild_inner(&rx, mode, payload, v4(1, 7, 7, 7), v4(1, 8, 8, 8));
        assert_eq!(rebuilt.src, v4(1, 7, 7, 7));
        assert_eq!(rebuilt.dst, v4(1, 8, 8, 8));
    }

    #[test]
    fn udp_and_icmp_round_trip() {
        let (mut tx, mut rx) = pair();
        let udp = Payload::Udp(UdpDatagram {
            src_port: 5353,
            dst_port: 9999,
            data: UdpData::Raw(Bytes::from_static(b"dgram")),
        });
        let esp = tx.encapsulate(InnerMode::Hit, &udp, 1);
        let (_, back) = rx.decapsulate(&esp).unwrap();
        match back {
            Payload::Udp(u) => match u.data {
                UdpData::Raw(b) => assert_eq!(&b[..], b"dgram"),
                _ => panic!(),
            },
            _ => panic!(),
        }
        let icmp = Payload::Icmp(IcmpMessage { kind: IcmpKind::EchoRequest, ident: 3, seq: 4, payload_len: 56 });
        let esp = tx.encapsulate(InnerMode::Hit, &icmp, 2);
        let (_, back) = rx.decapsulate(&esp).unwrap();
        match back {
            Payload::Icmp(i) => {
                assert_eq!(i.kind, IcmpKind::EchoRequest);
                assert_eq!(i.payload_len, 56);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn counters_accumulate() {
        let (mut tx, mut rx) = pair();
        for i in 0..5 {
            let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"xxxx"), i);
            rx.decapsulate(&esp).unwrap();
        }
        assert_eq!(tx.packets, 5);
        assert_eq!(rx.packets, 5);
        assert!(tx.bytes > 0);
        assert_eq!(tx.tx_seq(), 5);
    }

    #[test]
    fn gso_batch_round_trips_and_matches_unbatched() {
        let (mut tx, mut rx) = pair();
        let (mut utx, _) = pair();
        let payloads = [tcp_payload(b"first frame"), tcp_payload(b"second"), tcp_payload(b"third one here")];
        let frames = tx.encapsulate_gso(InnerMode::Hit, &payloads, 42);
        assert_eq!(frames.len(), 3);
        for (i, (frame, p)) in frames.iter().zip(&payloads).enumerate() {
            // Consecutive sequence numbers, same SA counters as unbatched.
            assert_eq!(frame.seq, 1 + i as u32);
            // The declared wire length matches what unbatched encap produces.
            let unbatched = utx.encapsulate(InnerMode::Hit, p, 42);
            assert_eq!(
                frame.wire_len(),
                Payload::Esp(unbatched).wire_len(),
                "frame {i} wire accounting must be unchanged by batching"
            );
            let (mode, back) = rx.decapsulate(frame).expect("frame decap");
            assert_eq!(mode, InnerMode::Hit);
            let (Payload::Tcp(got), Payload::Tcp(want)) = (&back, p) else { panic!() };
            assert_eq!(got.data, want.data);
            assert_eq!(got.seq, want.seq);
        }
        assert_eq!(tx.tx_seq(), utx.tx_seq());
        assert_eq!(tx.packets, 3);
        assert_eq!(tx.bytes, utx.bytes);
        assert_eq!(rx.packets, 3);
    }

    #[test]
    fn gso_frames_replay_checked_individually() {
        let (mut tx, mut rx) = pair();
        let payloads = [tcp_payload(b"a"), tcp_payload(b"b")];
        let frames = tx.encapsulate_gso(InnerMode::Hit, &payloads, 7);
        // Out-of-order arrival within the batch is fine...
        assert!(rx.decapsulate(&frames[1]).is_ok());
        assert!(rx.decapsulate(&frames[0]).is_ok());
        // ...but each frame is accepted only once.
        assert!(matches!(rx.decapsulate(&frames[0]), Err(EspError::Replay)));
        assert!(matches!(rx.decapsulate(&frames[1]), Err(EspError::Replay)));
    }

    #[test]
    fn gso_tampered_batch_rejects_every_frame_without_replay_state() {
        let (mut tx, mut rx) = pair();
        let payloads = [tcp_payload(b"a"), tcp_payload(b"b")];
        let mut frames = tx.encapsulate_gso(InnerMode::Hit, &payloads, 7);
        let bad = frames[0].edited(|ct, _| ct[20] ^= 0x01).batch;
        for f in &mut frames {
            f.batch = Arc::clone(&bad);
            assert!(matches!(rx.decapsulate(f), Err(EspError::BadIcv)));
        }
        // Auth failure must not have consumed the sequence numbers.
        let good = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"later"), 8);
        assert!(rx.decapsulate(&good).is_ok());
    }

    #[test]
    fn gso_interleaves_with_unbatched_traffic() {
        let (mut tx, mut rx) = pair();
        let before = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"pre"), 1);
        let frames = tx.encapsulate_gso(InnerMode::Hit, &[tcp_payload(b"mid1"), tcp_payload(b"mid2")], 2);
        let after = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"post"), 3);
        assert_eq!(before.seq, 1);
        assert_eq!(frames[0].seq, 2);
        assert_eq!(frames[1].seq, 3);
        assert_eq!(after.seq, 4);
        assert!(rx.decapsulate(&before).is_ok());
        assert!(rx.decapsulate(&frames[0]).is_ok());
        assert!(rx.decapsulate(&frames[1]).is_ok());
        assert!(rx.decapsulate(&after).is_ok());
    }

    #[test]
    fn lone_packet_is_a_batch_of_one() {
        let (mut tx, _) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"alone"), 5);
        assert_eq!((esp.index, esp.batch.first_seq, esp.batch.frames.len()), (0, esp.seq, 1));
        // IV = iv_seed ‖ seq ‖ 0000.
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&5u64.to_be_bytes());
        iv[8..12].copy_from_slice(&1u32.to_be_bytes());
        assert_eq!(esp.batch.ciphertext[..16], iv);
        assert_eq!(esp.wire_len(), 8 + esp.batch.ciphertext.len() + esp.batch.icv.len());
    }

    #[test]
    fn frame_with_rewritten_sequence_number_rejected() {
        let (mut tx, mut rx) = pair();
        let esp = tx.encapsulate(InnerMode::Hit, &tcp_payload(b"once"), 1);
        assert!(rx.decapsulate(&esp).is_ok());
        // Replaying the frame under a fresh sequence number must not
        // slip past the replay window.
        let renumbered = EspPacket { seq: esp.seq + 1, ..esp.clone() };
        assert!(matches!(rx.decapsulate(&renumbered), Err(EspError::BadIcv)));
        let frames = tx.encapsulate_gso(InnerMode::Hit, &[tcp_payload(b"a"), tcp_payload(b"b")], 2);
        let shifted = EspPacket { index: 1, ..frames[0].clone() };
        assert!(matches!(rx.decapsulate(&shifted), Err(EspError::BadIcv)));
        assert!(rx.decapsulate(&frames[0]).is_ok());
        assert!(rx.decapsulate(&frames[1]).is_ok());
    }

    #[test]
    fn memoized_batch_does_not_authenticate_frames_for_another_sa() {
        let (mut tx, mut rx) = pair();
        let mut other = EspSa::new(0x100, [9u8; 16], [9u8; 32], v4(1, 0, 0, 1), v4(1, 0, 0, 2));
        let frames = tx.encapsulate_gso(InnerMode::Hit, &[tcp_payload(b"a"), tcp_payload(b"b")], 7);
        assert!(rx.decapsulate(&frames[0]).is_ok());
        assert!(matches!(other.decapsulate(&frames[1]), Err(EspError::BadIcv)));
        // The right SA still reads its own memo.
        assert!(rx.decapsulate(&frames[1]).is_ok());
    }
}
