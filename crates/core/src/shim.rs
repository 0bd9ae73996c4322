//! The HIP layer-3.5 shim: the protocol engine that plugs into a
//! [`netsim::Host`].
//!
//! Responsibilities (mirroring the HIPL daemon + kernel hooks the paper
//! deployed on its EC2/OpenNebula VMs):
//!
//! - intercept upper-layer packets addressed to HITs/LSIs;
//! - run the **Base Exchange** (I1 → R1 → I2 → R2, RFC 5201 §4.1) with
//!   real signatures, a real Diffie–Hellman agreement, real puzzles and
//!   pre-computed R1s for DoS resilience;
//! - derive KEYMAT and install **ESP-BEET** security associations;
//! - encrypt/decrypt the data plane, charging the cost model;
//! - handle **UPDATE** (mobility with return-routability echo, RFC
//!   5206), **CLOSE**, rendezvous registration and HIT-based firewall
//!   policy.

use crate::cost::CostModel;
use crate::esp::{EspError, EspSa, InnerMode};
use crate::firewall::{Action, Firewall};
use crate::identity::{HostIdentity, Hit, LsiMapper, PublicHi};
use crate::puzzle;
use crate::wire::{encode_locator, param_type, HipPacket, PacketType, Param};
use netsim::packet::{Packet, Payload};
use netsim::{L35Shim, ShimApi, SimDuration, SimTime};
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::hmac::HmacKey;
use sim_crypto::kdf::keymat;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

/// Shim configuration.
#[derive(Clone)]
pub struct HipConfig {
    /// DH group for the BEX (tests use the small group; the cost model,
    /// not the arithmetic, provides timing).
    pub dh_group: DhGroup,
    /// Puzzle difficulty advertised in R1.
    pub puzzle_k: u8,
    /// Virtual CPU costs.
    pub costs: CostModel,
    /// BEX/UPDATE retransmission interval.
    pub retransmit_timeout: SimDuration,
    /// Retransmissions before giving up.
    pub max_retransmits: u32,
    /// Number of pre-computed R1s (each with its own puzzle and DH key).
    pub r1_pool_size: usize,
    /// Rendezvous server to register with, if any.
    pub rvs: Option<IpAddr>,
}

impl Default for HipConfig {
    fn default() -> Self {
        HipConfig {
            dh_group: DhGroup::Test512,
            puzzle_k: 10,
            costs: CostModel::paper_era(),
            retransmit_timeout: SimDuration::from_millis(500),
            max_retransmits: 5,
            r1_pool_size: 8,
            rvs: None,
        }
    }
}

/// Counters exposed for tests, experiments and ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct HipStats {
    /// Base exchanges this host started (I1 sent).
    pub bex_initiated: u64,
    /// I1s answered with an R1.
    pub bex_responded: u64,
    /// Associations fully established (either role).
    pub bex_completed: u64,
    /// Exchanges abandoned after retransmission exhaustion.
    pub bex_failed: u64,
    /// ESP data packets encapsulated.
    pub esp_out: u64,
    /// ESP data packets successfully decapsulated.
    pub esp_in: u64,
    /// Plaintext payload bytes protected outbound.
    pub esp_bytes_out: u64,
    /// Plaintext payload bytes recovered inbound.
    pub esp_bytes_in: u64,
    /// Inbound ESP rejected by the anti-replay window.
    pub drops_replay: u64,
    /// Packets rejected by signature/HMAC/ICV/puzzle checks.
    pub drops_auth: u64,
    /// Exchanges/packets refused by the HIT firewall.
    pub drops_firewall: u64,
    /// ESP for an unknown SPI or an SA-less association.
    pub drops_no_sa: u64,
    /// Mobility UPDATEs announced.
    pub updates_sent: u64,
    /// Mobility UPDATEs verified to completion.
    pub updates_completed: u64,
    /// Associations closed via CLOSE/CLOSE_ACK.
    pub closes: u64,
    /// Control packets retransmitted.
    pub retransmissions: u64,
    /// NOTIFY(stale SPI) packets sent for ESP with no matching SA.
    pub notifies_sent: u64,
    /// Associations torn down and re-negotiated after a peer reported
    /// our SPI stale (it crashed and lost its SAs).
    pub stale_spi_rebex: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AssocState {
    I1Sent,
    I2Sent,
    Established,
    Closing,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Initiator,
    Responder,
}

struct Rtx {
    bytes: bytes::Bytes,
    dst: IpAddr,
    tries: u32,
    deadline: SimTime,
    token: u64,
    /// Engine handle for the armed timer, cancelled when the reply
    /// arrives so acknowledged retransmissions never pop stale.
    engine_timer: netsim::TimerToken,
}

/// Peer-side mobility verification in progress.
struct PendingVerify {
    nonce: u64,
    new_locator: IpAddr,
    seq_ours: u32,
}

struct Association {
    /// Retained for diagnostics/debug formatting.
    #[allow(dead_code)]
    peer: Hit,
    state: AssocState,
    /// BEX role (determines KEYMAT key assignment at derivation time;
    /// retained for diagnostics afterwards).
    #[allow(dead_code)]
    role: Role,
    local_locator: IpAddr,
    peer_locator: IpAddr,
    dh: Option<DhKeyPair>,
    /// Puzzle values bound into KEYMAT.
    puzzle_i: u64,
    puzzle_j: u64,
    /// Cached HMAC transcripts for outbound/inbound control packets
    /// (ipad/opad absorbed once at KEYMAT time, cloned per packet).
    hmac_out: HmacKey,
    hmac_in: HmacKey,
    sa_out: Option<EspSa>,
    sa_in: Option<EspSa>,
    /// Our inbound SPI (sent to the peer during BEX).
    local_spi: u32,
    queued: Vec<Packet>,
    rtx: Option<Rtx>,
    update_seq: u32,
    /// Mobility: we moved and await the peer's echo.
    update_in_flight: bool,
    /// Mobility: peer moved; we sent an echo and await the response.
    pending_verify: Option<PendingVerify>,
    /// CLOSE nonce awaiting CLOSE_ACK.
    close_nonce: Option<u64>,
    peer_hi: Option<PublicHi>,
    /// Outbound SA keys derived at I2 time, installed when R2 arrives
    /// with the peer's SPI.
    pending_out_keys: Option<([u8; 16], [u8; 32])>,
    /// When the BEX started (I1 sent), for the `hip.bex` latency span.
    bex_started: SimTime,
    /// Per-SA packet counters, registered when the SA is installed.
    ctr_esp_out: Option<obs::CtrId>,
    ctr_esp_in: Option<obs::CtrId>,
}

/// A pre-computed R1 (signature covers the zero-receiver form).
struct R1Entry {
    params: Vec<Param>,
    dh: DhKeyPair,
    /// The puzzle I this entry issued (key of `active_puzzles`).
    #[allow(dead_code)]
    i: u64,
    k: u8,
}

/// Statically configured peer knowledge (the paper pre-configures HITs;
/// DNS/rendezvous provide the dynamic alternatives).
#[derive(Clone, Debug, Default)]
pub struct PeerInfo {
    /// Known locators, tried in order.
    pub locators: Vec<IpAddr>,
    /// Reach this peer's I1 through a rendezvous server instead.
    pub via_rvs: Option<IpAddr>,
}

/// The HIP shim.
pub struct HipShim {
    identity: HostIdentity,
    config: HipConfig,
    /// LSI allocation for legacy IPv4 applications.
    pub lsi: LsiMapper,
    my_lsi: Ipv4Addr,
    peers: HashMap<Hit, PeerInfo>,
    assocs: HashMap<Hit, Association>,
    spi_in: HashMap<u32, Hit>,
    /// The HIT-based packet filter.
    pub firewall: Firewall,
    r1_pool: Vec<R1Entry>,
    /// Puzzle I → pool index, for verifying I2 solutions statelessly.
    active_puzzles: HashMap<u64, usize>,
    next_timer: u64,
    timers: HashMap<u64, Hit>,
    /// Protocol counters.
    pub stats: HipStats,
    /// Registered with the rendezvous server?
    pub rvs_registered: bool,
    /// Monotonic registration sequence (RVS replay guard).
    reg_seq: u32,
    /// Last NOTIFY(stale SPI) per unknown SPI, for rate limiting.
    notify_limiter: HashMap<u32, SimTime>,
}

impl HipShim {
    /// Creates a shim around a host identity.
    pub fn new(identity: HostIdentity, config: HipConfig) -> Self {
        let mut lsi = LsiMapper::new();
        let my_lsi = lsi.lsi_for(identity.hit());
        HipShim {
            identity,
            config,
            lsi,
            my_lsi,
            peers: HashMap::new(),
            assocs: HashMap::new(),
            spi_in: HashMap::new(),
            firewall: Firewall::allow_all(),
            r1_pool: Vec::new(),
            active_puzzles: HashMap::new(),
            next_timer: 0,
            timers: HashMap::new(),
            stats: HipStats::default(),
            rvs_registered: false,
            reg_seq: 0,
            notify_limiter: HashMap::new(),
        }
    }

    /// This host's HIT.
    pub fn hit(&self) -> Hit {
        self.identity.hit()
    }

    /// This host's own LSI.
    pub fn lsi(&self) -> Ipv4Addr {
        self.my_lsi
    }

    /// The public host identity.
    pub fn public(&self) -> &PublicHi {
        self.identity.public()
    }

    /// Registers a peer (HIT → locators), returning the LSI local
    /// applications can use for it.
    pub fn add_peer(&mut self, hit: Hit, info: PeerInfo) -> Ipv4Addr {
        self.peers.insert(hit, info);
        self.lsi.lsi_for(hit)
    }

    /// Whether an association with `peer` is established.
    pub fn is_established(&self, peer: &Hit) -> bool {
        self.assocs.get(peer).is_some_and(|a| a.state == AssocState::Established)
    }

    /// The peer locator currently used for `peer` (tests/mobility).
    pub fn peer_locator(&self, peer: &Hit) -> Option<IpAddr> {
        self.assocs.get(peer).map(|a| a.peer_locator)
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn alloc_timer(&mut self, peer: Hit) -> u64 {
        self.next_timer += 1;
        self.timers.insert(self.next_timer, peer);
        self.next_timer
    }

    fn send_control(
        &mut self,
        api: &mut ShimApi,
        work: SimDuration,
        pkt: &HipPacket,
        src: IpAddr,
        dst: IpAddr,
    ) -> bytes::Bytes {
        let bytes = pkt.encode();
        let delay = api.charge_cpu(work);
        api.send_wire(delay, Packet::new(src, dst, Payload::HipControl(bytes.clone())));
        bytes
    }

    fn arm_rtx(&mut self, api: &mut ShimApi, peer: Hit, bytes: bytes::Bytes, dst: IpAddr, tries: u32) {
        let token = self.alloc_timer(peer);
        let deadline = api.now() + self.config.retransmit_timeout;
        let engine_timer = api.set_timer_cancellable(self.config.retransmit_timeout, token);
        if let Some(a) = self.assocs.get_mut(&peer) {
            if let Some(old) = a.rtx.replace(Rtx { bytes, dst, tries, deadline, token, engine_timer }) {
                api.cancel_timer(old.engine_timer);
            }
        }
    }

    /// Signs a packet's parameter list: appends HMAC (if `hmac_key`) and
    /// SIGNATURE in the right order and returns the finished packet.
    fn seal(
        &self,
        api: &mut ShimApi,
        ptype: PacketType,
        receiver: Hit,
        mut params: Vec<Param>,
        hmac_key: Option<&HmacKey>,
    ) -> HipPacket {
        if let Some(key) = hmac_key {
            let unsealed = HipPacket::new(ptype, self.hit(), receiver, params.clone());
            let covered = unsealed.bytes_before(param_type::HMAC);
            params.push(Param::Hmac(key.mac(&covered)));
        }
        let with_mac = HipPacket::new(ptype, self.hit(), receiver, params.clone());
        let covered = with_mac.bytes_before(param_type::HIP_SIGNATURE);
        let sig = self.identity.sign(&covered, api.rng());
        params.push(Param::Signature(sig));
        HipPacket::new(ptype, self.hit(), receiver, params)
    }

    /// Verifies HMAC (against `hmac_key`) and signature (against `hi`).
    fn verify_sealed(&self, pkt: &HipPacket, hi: &PublicHi, hmac_key: Option<&HmacKey>) -> bool {
        if let Some(key) = hmac_key {
            let Some(mac) = pkt.hmac() else { return false };
            let covered = pkt.bytes_before(param_type::HMAC);
            let expect = key.mac(&covered);
            if !sim_crypto::hmac::verify_mac(&expect, mac) {
                return false;
            }
        }
        let Some(sig) = pkt.signature() else { return false };
        let covered = pkt.bytes_before(param_type::HIP_SIGNATURE);
        hi.verify(&covered, sig)
    }

    /// KEYMAT → (hmac_out, hmac_in, sa_out_keys, sa_in_keys) by role.
    #[allow(clippy::type_complexity)]
    fn derive_keys(
        &self,
        kij: &[u8],
        peer: Hit,
        i: u64,
        j: u64,
        role: Role,
    ) -> (HmacKey, HmacKey, ([u8; 16], [u8; 32]), ([u8; 16], [u8; 32])) {
        let my = self.hit();
        let km = keymat(kij, &my.0, &peer.0, i, j, 160);
        // Control-packet HMAC keys become cached transcripts right here,
        // so every later seal/verify clones midstates instead of
        // re-deriving the key block.
        let hmac_i2r = HmacKey::new(&km[0..32]);
        let hmac_r2i = HmacKey::new(&km[32..64]);
        let enc_i2r: [u8; 16] = km[64..80].try_into().expect("slice");
        let auth_i2r: [u8; 32] = km[80..112].try_into().expect("slice");
        let enc_r2i: [u8; 16] = km[112..128].try_into().expect("slice");
        let auth_r2i: [u8; 32] = km[128..160].try_into().expect("slice");
        match role {
            Role::Initiator => (hmac_i2r, hmac_r2i, (enc_i2r, auth_i2r), (enc_r2i, auth_r2i)),
            Role::Responder => (hmac_r2i, hmac_i2r, (enc_r2i, auth_r2i), (enc_i2r, auth_i2r)),
        }
    }

    /// Builds the precomputed R1 pool.
    fn build_r1_pool(&mut self, api: &mut ShimApi) {
        for idx in 0..self.config.r1_pool_size {
            let dh = DhKeyPair::generate(self.config.dh_group, api.rng());
            let i = api.random_u64();
            let k = self.config.puzzle_k;
            let mut params = vec![
                Param::R1Counter(idx as u64),
                Param::Puzzle { k, lifetime: 120, opaque: idx as u16, i },
                Param::DiffieHellman { group: self.config.dh_group.group_id(), public: dh.public_bytes() },
                Param::HipTransform(vec![1]),
                Param::EspTransform(vec![1]),
                Param::HostId(self.identity.public().to_bytes()),
            ];
            // Signature over the zero-receiver form enables precomputation.
            let unsigned = HipPacket::new(PacketType::R1, self.hit(), Hit::NULL, params.clone());
            let covered = unsigned.bytes_before_with_zero_receiver(param_type::HIP_SIGNATURE);
            params.push(Param::Signature(self.identity.sign(&covered, api.rng())));
            self.active_puzzles.insert(i, idx);
            self.r1_pool.push(R1Entry { params, dh, i, k });
        }
    }

    /// Starts a BEX toward `peer` (queuing `first_packet` if given).
    fn initiate(&mut self, api: &mut ShimApi, peer: Hit, first_packet: Option<Packet>) {
        let Some(info) = self.peers.get(&peer).cloned() else {
            api.trace_state(|| format!("no locator for {peer:?}, dropping"));
            return;
        };
        let dst = match (info.locators.first(), info.via_rvs) {
            (Some(&loc), _) => loc,
            (None, Some(rvs)) => rvs,
            (None, None) => {
                api.trace_state(|| format!("peer {peer:?} unreachable"));
                return;
            }
        };
        let Some(src) = api.local_locator(&dst) else { return };
        let i1 = HipPacket::new(PacketType::I1, self.hit(), peer, vec![]);
        let bytes = self.send_control(api, self.config.costs.hit_lookup, &i1, src, dst);
        self.stats.bex_initiated += 1;
        let mut assoc = Association::new(peer, Role::Initiator, src, dst);
        assoc.state = AssocState::I1Sent;
        assoc.bex_started = api.now();
        if let Some(p) = first_packet {
            assoc.queued.push(p);
        }
        self.assocs.insert(peer, assoc);
        self.arm_rtx(api, peer, bytes, dst, 0);
        api.trace_state(|| format!("BEX: I1 -> {peer:?} via {dst}"));
    }

    // ------------------------------------------------------------------
    // Inbound control handling
    // ------------------------------------------------------------------

    fn on_i1(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) {
        if self.firewall.check(&pkt.sender_hit) == Action::Deny {
            self.stats.drops_firewall += 1;
            api.metrics().add_name("hip.drop.firewall", 1);
            return;
        }
        if self.r1_pool.is_empty() {
            self.build_r1_pool(api);
        }
        // Rotate through the pool.
        let idx = (pkt.sender_hit.0[15] as usize) % self.r1_pool.len();
        let entry = &self.r1_pool[idx];
        let r1 = HipPacket::new(PacketType::R1, self.hit(), pkt.sender_hit, entry.params.clone());
        // Reply toward the FROM locator if the I1 was relayed by an RVS.
        let reply_to = pkt
            .find(|p| match p {
                Param::From(a) => Some(crate::wire::decode_locator(a)),
                _ => None,
            })
            .unwrap_or(wire.src);
        let Some(src) = api.local_locator(&reply_to) else { return };
        // Precomputed: only a table lookup is charged — this is the DoS
        // resilience property (§IV-B).
        self.send_control(api, self.config.costs.hit_lookup, &r1, src, reply_to);
        self.stats.bex_responded += 1;
    }

    fn on_r1(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) {
        let peer = pkt.sender_hit;
        let Some(assoc) = self.assocs.get(&peer) else { return };
        if assoc.state != AssocState::I1Sent {
            return;
        }
        // Validate the host identity and signature.
        let Some(hi_bytes) = pkt.host_id() else { return };
        let Some(hi) = PublicHi::from_bytes(hi_bytes) else { return };
        if hi.hit() != peer {
            self.stats.drops_auth += 1;
            return;
        }
        let Some(sig) = pkt.signature() else { return };
        let covered = pkt.bytes_before_with_zero_receiver(param_type::HIP_SIGNATURE);
        if !hi.verify(&covered, sig) {
            self.stats.drops_auth += 1;
            return;
        }
        let Some((k, _lifetime, opaque, i)) = pkt.puzzle() else { return };
        if k > puzzle::MAX_K {
            self.stats.drops_auth += 1;
            return;
        }
        let Some((group_id, peer_dh_pub)) = pkt.diffie_hellman() else { return };
        let Some(group) = DhGroup::from_group_id(group_id) else { return };

        // Solve the puzzle (really).
        let j0 = api.random_u64();
        let (j, attempts) = puzzle::solve(i, k, &self.hit(), &peer, j0);
        api.metrics().observe_name("hip.puzzle.attempts", attempts);

        // DH: generate our ephemeral pair and compute the shared secret.
        let dh = DhKeyPair::generate(group, api.rng());
        let Some(kij) = dh.shared_secret(peer_dh_pub) else {
            self.stats.drops_auth += 1;
            return;
        };
        let (hmac_out, hmac_in, out_keys, in_keys) =
            self.derive_keys(&kij, peer, i, j, Role::Initiator);

        let local_spi = (api.random_u64() as u32) | 1;
        let params = vec![
            Param::Solution { k, opaque, i, j },
            Param::DiffieHellman { group: group_id, public: dh.public_bytes() },
            Param::HipTransform(vec![1]),
            Param::EspTransform(vec![1]),
            Param::EspInfo { old_spi: 0, new_spi: local_spi },
            Param::HostId(self.identity.public().to_bytes()),
        ];
        let i2 = self.seal(api, PacketType::I2, peer, params, Some(&hmac_out));

        // Total control-plane CPU: R1 verify + puzzle + 2 DH ops + I2 sign.
        let costs = &self.config.costs;
        let work = costs.verify(hi.algorithm())
            + costs.puzzle_attempts(attempts)
            + costs.dh_compute
            + costs.dh_compute
            + costs.sign(self.identity.algorithm());

        // R1 may arrive from a different locator than the I1 went to
        // (rendezvous case): follow the wire source.
        let peer_locator = wire.src;
        let Some(src) = api.local_locator(&peer_locator) else { return };
        let bytes = self.send_control(api, work, &i2, src, peer_locator);

        let my_hit = self.hit();
        let assoc = self.assocs.get_mut(&peer).expect("checked above");
        assoc.state = AssocState::I2Sent;
        assoc.peer_locator = peer_locator;
        assoc.local_locator = src;
        assoc.puzzle_i = i;
        assoc.puzzle_j = j;
        assoc.hmac_out = hmac_out;
        assoc.hmac_in = hmac_in;
        assoc.local_spi = local_spi;
        assoc.peer_hi = Some(hi);
        assoc.dh = Some(dh);
        // Inbound SA can be installed now (peer will use our SPI).
        assoc.sa_in = Some(EspSa::new(local_spi, in_keys.0, in_keys.1, peer.to_ip(), my_hit.to_ip()));
        if api.metrics().is_enabled() {
            assoc.ctr_esp_in = Some(api.metrics().counter(&format!("esp.rx{{spi={local_spi:08x}}}")));
        }
        // Outbound SA waits for the peer's SPI in R2; stash keys in the
        // assoc via a placeholder SA created on R2 using derived keys.
        assoc.pending_out_keys = Some(out_keys);
        self.spi_in.insert(local_spi, peer);
        self.arm_rtx(api, peer, bytes, peer_locator, 0);
        api.trace_state(|| format!("BEX: R1 ok, I2 -> {peer:?} (puzzle k={k}, {attempts} attempts)"));
    }

    fn on_i2(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) {
        let peer = pkt.sender_hit;
        if self.firewall.check(&peer) == Action::Deny {
            self.stats.drops_firewall += 1;
            api.metrics().add_name("hip.drop.firewall", 1);
            return;
        }
        let Some((k, opaque, i, j)) = pkt.solution() else { return };
        let _ = opaque;
        // The puzzle must be one we issued (pool membership) and solved.
        let Some(&pool_idx) = self.active_puzzles.get(&i) else {
            self.stats.drops_auth += 1;
            return;
        };
        if self.r1_pool[pool_idx].k != k || !puzzle::verify(i, k, &peer, &self.hit(), j) {
            self.stats.drops_auth += 1;
            return;
        }
        let Some(hi_bytes) = pkt.host_id() else { return };
        let Some(hi) = PublicHi::from_bytes(hi_bytes) else { return };
        if hi.hit() != peer {
            self.stats.drops_auth += 1;
            return;
        }
        let Some((_group_id, peer_dh_pub)) = pkt.diffie_hellman() else { return };
        let Some(kij) = self.r1_pool[pool_idx].dh.shared_secret(peer_dh_pub) else {
            self.stats.drops_auth += 1;
            return;
        };
        let (hmac_out, hmac_in, out_keys, in_keys) =
            self.derive_keys(&kij, peer, i, j, Role::Responder);
        // HMAC then signature.
        if !self.verify_sealed(pkt, &hi, Some(&hmac_in)) {
            self.stats.drops_auth += 1;
            return;
        }
        let Some((_, peer_spi)) = pkt.esp_info() else { return };

        let local_spi = (api.random_u64() as u32) | 1;
        let params = vec![Param::EspInfo { old_spi: 0, new_spi: local_spi }];
        let r2 = self.seal(api, PacketType::R2, peer, params, Some(&hmac_out));

        let costs = &self.config.costs;
        let work = costs.hash_attempt // puzzle verification: one hash
            + costs.dh_compute
            + costs.verify(hi.algorithm())
            + costs.sign(self.identity.algorithm());
        let peer_locator = wire.src;
        let Some(src) = api.local_locator(&peer_locator) else { return };
        self.send_control(api, work, &r2, src, peer_locator);

        let mut assoc = Association::new(peer, Role::Responder, src, peer_locator);
        assoc.state = AssocState::Established;
        assoc.puzzle_i = i;
        assoc.puzzle_j = j;
        assoc.hmac_out = hmac_out;
        assoc.hmac_in = hmac_in;
        assoc.local_spi = local_spi;
        assoc.peer_hi = Some(hi);
        assoc.sa_in = Some(EspSa::new(local_spi, in_keys.0, in_keys.1, peer.to_ip(), self.hit().to_ip()));
        assoc.sa_out = Some(EspSa::new(peer_spi, out_keys.0, out_keys.1, self.hit().to_ip(), peer.to_ip()));
        if api.metrics().is_enabled() {
            assoc.ctr_esp_in = Some(api.metrics().counter(&format!("esp.rx{{spi={local_spi:08x}}}")));
            assoc.ctr_esp_out = Some(api.metrics().counter(&format!("esp.tx{{spi={peer_spi:08x}}}")));
        }
        self.spi_in.insert(local_spi, peer);
        // Make sure the peer has an LSI for legacy traffic.
        self.lsi.lsi_for(peer);
        self.peers.entry(peer).or_insert_with(|| PeerInfo { locators: vec![peer_locator], via_rvs: None });
        self.assocs.insert(peer, assoc);
        self.stats.bex_completed += 1;
        api.trace_state(|| format!("BEX: established (responder) with {peer:?}"));
    }

    fn on_r2(&mut self, api: &mut ShimApi, pkt: &HipPacket, _wire: &Packet) {
        let peer = pkt.sender_hit;
        let Some(assoc) = self.assocs.get_mut(&peer) else { return };
        if assoc.state != AssocState::I2Sent {
            return;
        }
        let Some(hi) = assoc.peer_hi.clone() else { return };
        let hmac_in = assoc.hmac_in.clone();
        if !self.verify_sealed(pkt, &hi, Some(&hmac_in)) {
            self.stats.drops_auth += 1;
            return;
        }
        let Some((_, peer_spi)) = pkt.esp_info() else { return };
        let costs = self.config.costs;
        let work = costs.verify(hi.algorithm());
        let delay = api.charge_cpu(work);

        let my_hit = self.hit();
        let assoc = self.assocs.get_mut(&peer).expect("present");
        let out_keys = assoc.pending_out_keys.take().expect("keys derived at I2");
        assoc.sa_out = Some(EspSa::new(peer_spi, out_keys.0, out_keys.1, my_hit.to_ip(), peer.to_ip()));
        assoc.state = AssocState::Established;
        if let Some(rtx) = assoc.rtx.take() {
            api.cancel_timer(rtx.engine_timer);
        }
        // The full base exchange span, I1 sent → R2 verified.
        let bex_ns = api.now().as_nanos().saturating_sub(assoc.bex_started.as_nanos());
        if api.metrics().is_enabled() {
            api.metrics().observe_name("hip.bex", bex_ns);
            assoc.ctr_esp_out = Some(api.metrics().counter(&format!("esp.tx{{spi={peer_spi:08x}}}")));
        }
        self.lsi.lsi_for(peer);
        self.stats.bex_completed += 1;
        api.trace_state(|| format!("BEX: established (initiator) with {peer:?}"));
        // Flush queued upper packets through the new SA.
        let queued = std::mem::take(&mut self.assocs.get_mut(&peer).expect("present").queued);
        for pkt in queued {
            self.encap_and_send(api, peer, pkt, delay);
        }
    }

    fn on_update(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) {
        let peer = pkt.sender_hit;
        let Some(assoc) = self.assocs.get(&peer) else { return };
        if assoc.state != AssocState::Established {
            return;
        }
        let Some(hi) = assoc.peer_hi.clone() else { return };
        let hmac_in = assoc.hmac_in.clone();
        if !self.verify_sealed(pkt, &hi, Some(&hmac_in)) {
            self.stats.drops_auth += 1;
            return;
        }
        let verify_cost = self.config.costs.verify(hi.algorithm());
        let sign_cost = self.config.costs.sign(self.identity.algorithm());

        let locators = pkt.locators();
        let seq = pkt.seq();
        let ack = pkt.ack().map(<[u32]>::to_vec);
        let echo_req = pkt.find(|p| match p {
            Param::EchoRequest(n) => Some(*n),
            _ => None,
        });
        let echo_resp = pkt.find(|p| match p {
            Param::EchoResponse(n) => Some(*n),
            _ => None,
        });

        // Case 1: peer announces a new locator (it moved).
        if let (Some(new_loc), Some(peer_seq)) = (locators.first().copied(), seq) {
            let nonce = api.random_u64();
            let assoc = self.assocs.get_mut(&peer).expect("present");
            assoc.update_seq += 1;
            let our_seq = assoc.update_seq;
            assoc.pending_verify = Some(PendingVerify { nonce, new_locator: new_loc, seq_ours: our_seq });
            let hmac_out = assoc.hmac_out.clone();
            let params = vec![Param::Seq(our_seq), Param::Ack(vec![peer_seq]), Param::EchoRequest(nonce)];
            let reply = self.seal(api, PacketType::Update, peer, params, Some(&hmac_out));
            // Address verification: the echo goes to the *new* locator.
            let Some(src) = api.local_locator(&new_loc) else { return };
            self.send_control(api, verify_cost + sign_cost, &reply, src, new_loc);
            api.trace_state(|| format!("UPDATE: {peer:?} moved to {new_loc}, verifying"));
            return;
        }

        // Case 2: we moved; the peer echoes — answer from the new address.
        if let (Some(nonce), Some(peer_seq)) = (echo_req, seq) {
            let (hmac_out, dst, src) = {
                let assoc = self.assocs.get_mut(&peer).expect("present");
                if ack.as_deref().is_some_and(|a| a.contains(&assoc.update_seq)) {
                    if let Some(rtx) = assoc.rtx.take() {
                        api.cancel_timer(rtx.engine_timer);
                    }
                }
                // Return routability: the response must leave from the
                // locator we announced, proving we are reachable there.
                (assoc.hmac_out.clone(), assoc.peer_locator, assoc.local_locator)
            };
            let params = vec![Param::Ack(vec![peer_seq]), Param::EchoResponse(nonce)];
            let reply = self.seal(api, PacketType::Update, peer, params, Some(&hmac_out));
            self.send_control(api, verify_cost + sign_cost, &reply, src, dst);
            let assoc = self.assocs.get_mut(&peer).expect("present");
            assoc.update_in_flight = false;
            self.stats.updates_completed += 1;
            return;
        }

        // Case 3: echo response completes our verification of their move.
        if let Some(nonce) = echo_resp {
            let assoc = self.assocs.get_mut(&peer).expect("present");
            if let Some(pv) = &assoc.pending_verify {
                if pv.nonce == nonce && wire.src == pv.new_locator {
                    assoc.peer_locator = pv.new_locator;
                    if ack.as_deref().is_some_and(|a| a.contains(&pv.seq_ours)) {
                        assoc.pending_verify = None;
                    }
                    api.charge_cpu(verify_cost);
                    self.stats.updates_completed += 1;
                    api.trace_state(|| format!("UPDATE: verified {peer:?} at {}", wire.src));
                }
            }
        }
    }

    fn on_close(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) {
        let peer = pkt.sender_hit;
        let Some(assoc) = self.assocs.get(&peer) else { return };
        let Some(hi) = assoc.peer_hi.clone() else { return };
        let hmac_in = assoc.hmac_in.clone();
        if !self.verify_sealed(pkt, &hi, Some(&hmac_in)) {
            self.stats.drops_auth += 1;
            return;
        }
        let nonce = pkt.find(|p| match p {
            Param::EchoRequest(n) => Some(*n),
            _ => None,
        });
        let hmac_out = assoc.hmac_out.clone();
        let mut params = Vec::new();
        if let Some(n) = nonce {
            params.push(Param::EchoResponse(n));
        }
        let ack = self.seal(api, PacketType::CloseAck, peer, params, Some(&hmac_out));
        let dst = wire.src;
        let Some(src) = api.local_locator(&dst) else { return };
        let costs = self.config.costs;
        self.send_control(api, costs.verify(hi.algorithm()) + costs.sign(self.identity.algorithm()), &ack, src, dst);
        if let Some(rtx) = self.teardown(&peer) {
            api.cancel_timer(rtx.engine_timer);
        }
        self.stats.closes += 1;
    }

    fn on_close_ack(&mut self, api: &mut ShimApi, pkt: &HipPacket) {
        let peer = pkt.sender_hit;
        let Some(assoc) = self.assocs.get(&peer) else { return };
        if assoc.state != AssocState::Closing {
            return;
        }
        let expected = assoc.close_nonce;
        let got = pkt.find(|p| match p {
            Param::EchoResponse(n) => Some(*n),
            _ => None,
        });
        if expected.is_some() && expected == got {
            if let Some(rtx) = self.teardown(&peer) {
                api.cancel_timer(rtx.engine_timer);
            }
            self.stats.closes += 1;
        }
    }

    /// Removes the association; returns its pending retransmission (if
    /// any) so the caller can cancel the engine timer.
    fn teardown(&mut self, peer: &Hit) -> Option<Rtx> {
        if let Some(mut a) = self.assocs.remove(peer) {
            self.spi_in.remove(&a.local_spi);
            a.rtx.take()
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Seals `pkt` into ESP and sends one wire packet per frame: the
    /// MSS frames of a TCP super-segment (one AES-CBC/HMAC pass for the
    /// whole burst), otherwise the packet alone. RNG draws, CPU charges,
    /// stats and metrics are per frame, so batching is invisible to the
    /// rest of the sim.
    fn encap_and_send(&mut self, api: &mut ShimApi, peer: Hit, pkt: Packet, extra_delay: SimDuration) {
        let split: Vec<Payload>;
        let payloads = match &pkt.payload {
            Payload::Tcp(seg) if seg.gso_mss > 0 => {
                split = netsim::packet::split_gso(seg).into_iter().map(Payload::Tcp).collect();
                &split[..]
            }
            p => std::slice::from_ref(p),
        };
        let mode = if netsim::addr::is_lsi(&pkt.dst) { InnerMode::Lsi } else { InnerMode::Hit };
        let costs = self.config.costs;
        let Some(assoc) = self.assocs.get_mut(&peer) else { return };
        let Some(sa) = assoc.sa_out.as_mut() else {
            self.stats.drops_no_sa += payloads.len() as u64;
            return;
        };
        // One IV seed per frame keeps the RNG stream independent of
        // batching; the batch IV uses the first.
        let iv_seed = api.random_u64();
        for _ in 1..payloads.len() {
            let _ = api.random_u64();
        }
        let esps = sa.encapsulate_gso(mode, payloads, iv_seed);
        let (local, remote) = (assoc.local_locator, assoc.peer_locator);
        let ctr = assoc.ctr_esp_out;
        for (payload, esp) in payloads.iter().zip(esps) {
            let payload_len = payload.wire_len();
            let mut work = costs.symmetric(payload_len) + costs.hit_lookup;
            if mode == InnerMode::Lsi {
                work += costs.lsi_translation;
            }
            let delay = api.charge_cpu(work) + extra_delay;
            self.stats.esp_out += 1;
            self.stats.esp_bytes_out += payload_len as u64;
            if let Some(c) = ctr {
                api.metrics().add(c, 1);
            }
            if api.metrics().is_enabled() {
                api.metrics().observe_name("esp.encrypt", work.as_nanos());
                api.metrics().observe_name("esp.out_bytes", payload_len as u64);
            }
            api.send_wire(delay, Packet::new(local, remote, Payload::Esp(esp)));
        }
    }

    fn on_esp(&mut self, api: &mut ShimApi, esp: &netsim::packet::EspPacket, wire: &Packet) {
        let Some(&peer) = self.spi_in.get(&esp.spi) else {
            self.stats.drops_no_sa += 1;
            // The sender believes this SPI is live — most likely we
            // crashed and lost the SA. Tell it so it can re-run BEX
            // instead of blackholing ESP forever; at most one NOTIFY per
            // SPI per sim-second so a blast of stale ESP costs one reply.
            self.notify_stale_spi(api, esp.spi, wire.src);
            return;
        };
        if self.firewall.check(&peer) == Action::Deny {
            self.stats.drops_firewall += 1;
            api.metrics().add_name("hip.drop.firewall", 1);
            return;
        }
        let costs = self.config.costs;
        let my_lsi = self.my_lsi;
        let peer_lsi = self.lsi.lsi_for(peer);
        let Some(assoc) = self.assocs.get_mut(&peer) else { return };
        let Some(sa) = assoc.sa_in.as_mut() else {
            self.stats.drops_no_sa += 1;
            return;
        };
        match sa.decapsulate(esp) {
            Ok((mode, payload)) => {
                let len = payload.wire_len();
                let inner = crate::esp::rebuild_inner(
                    sa,
                    mode,
                    payload,
                    IpAddr::V4(peer_lsi),
                    IpAddr::V4(my_lsi),
                );
                let mut work = costs.symmetric(len) + costs.hit_lookup;
                if mode == InnerMode::Lsi {
                    work += costs.lsi_translation;
                }
                let delay = api.charge_cpu(work);
                self.stats.esp_in += 1;
                self.stats.esp_bytes_in += len as u64;
                if let Some(c) = assoc.ctr_esp_in {
                    api.metrics().add(c, 1);
                }
                if api.metrics().is_enabled() {
                    api.metrics().observe_name("esp.decrypt", work.as_nanos());
                    api.metrics().observe_name("esp.in_bytes", len as u64);
                }
                api.deliver_upper(delay, inner);
            }
            Err(EspError::Replay) => {
                self.stats.drops_replay += 1;
                api.metrics().add_name("esp.drop.replay", 1);
            }
            Err(_) => {
                self.stats.drops_auth += 1;
                api.metrics().add_name("esp.drop.auth", 1);
            }
        }
    }

    /// Sends NOTIFY(stale SPI) to `dst`: ESP arrived for an SPI we have
    /// no SA for. Rate-limited to one per SPI per sim-second.
    fn notify_stale_spi(&mut self, api: &mut ShimApi, spi: u32, dst: IpAddr) {
        let now = api.now();
        if self
            .notify_limiter
            .get(&spi)
            .is_some_and(|t| now.since(*t) < SimDuration::from_secs(1))
        {
            return;
        }
        self.notify_limiter.insert(spi, now);
        let Some(src) = api.local_locator(&dst) else { return };
        // Unsigned by necessity: we lost the keys along with the SA. The
        // receiver applies its own off-path checks before acting.
        let notify = HipPacket::new(
            PacketType::Notify,
            self.hit(),
            Hit::NULL,
            vec![Param::EspInfo { old_spi: spi, new_spi: 0 }],
        );
        self.send_control(api, self.config.costs.hit_lookup, &notify, src, dst);
        self.stats.notifies_sent += 1;
        api.metrics().add_name("hip.notify.stale_spi", 1);
        api.trace_state(|| format!("NOTIFY: stale SPI {spi:08x} -> {dst}"));
    }

    /// Handles NOTIFY(stale SPI): the peer cannot decrypt what we send
    /// on `old_spi` — it crashed and lost its SAs. The NOTIFY is
    /// unauthenticated (the peer has no keys anymore), so it is only
    /// honored if it arrives from the exact locator of an established
    /// association *and* echoes the SPI we are currently sending on —
    /// two values an off-path attacker does not know. Tear the
    /// association down and re-run the base exchange.
    fn on_notify(&mut self, api: &mut ShimApi, pkt: &HipPacket, wire: &Packet) {
        let Some((old_spi, _)) = pkt.esp_info() else { return };
        let peer = self.assocs.iter().find_map(|(h, a)| {
            (a.state == AssocState::Established
                && a.peer_locator == wire.src
                && a.sa_out.as_ref().is_some_and(|sa| sa.spi == old_spi))
            .then_some(*h)
        });
        let Some(peer) = peer else { return };
        if let Some(rtx) = self.teardown(&peer) {
            api.cancel_timer(rtx.engine_timer);
        }
        self.stats.stale_spi_rebex += 1;
        api.metrics().add_name("hip.rebex.stale_spi", 1);
        api.trace_state(|| {
            format!("NOTIFY: peer {peer:?} lost SPI {old_spi:08x}, re-running BEX")
        });
        self.initiate(api, peer, None);
    }

    // ------------------------------------------------------------------
    // Public control operations
    // ------------------------------------------------------------------

    /// Announces a new local locator to all established peers (VM
    /// migration / mobility). Called by the cloud layer after moving the
    /// host's interface.
    pub fn relocate(&mut self, api: &mut ShimApi, new_locator: IpAddr) {
        let peers: Vec<Hit> =
            self.assocs.iter().filter(|(_, a)| a.state == AssocState::Established).map(|(h, _)| *h).collect();
        for peer in peers {
            let (hmac_out, dst, seq) = {
                let assoc = self.assocs.get_mut(&peer).expect("present");
                assoc.local_locator = new_locator;
                assoc.update_seq += 1;
                assoc.update_in_flight = true;
                (assoc.hmac_out.clone(), assoc.peer_locator, assoc.update_seq)
            };
            let params = vec![
                Param::Locator(vec![encode_locator(&new_locator)]),
                Param::Seq(seq),
            ];
            let update = self.seal(api, PacketType::Update, peer, params, Some(&hmac_out));
            let work = self.config.costs.sign(self.identity.algorithm());
            let bytes = self.send_control(api, work, &update, new_locator, dst);
            self.stats.updates_sent += 1;
            self.arm_rtx(api, peer, bytes, dst, 0);
        }
    }

    /// Gracefully closes the association with `peer`.
    pub fn close(&mut self, api: &mut ShimApi, peer: Hit) {
        let Some(assoc) = self.assocs.get_mut(&peer) else { return };
        if assoc.state != AssocState::Established {
            return;
        }
        let nonce = api.random_u64();
        assoc.close_nonce = Some(nonce);
        assoc.state = AssocState::Closing;
        let hmac_out = assoc.hmac_out.clone();
        let dst = assoc.peer_locator;
        let src = assoc.local_locator;
        let close = self.seal(
            api,
            PacketType::Close,
            peer,
            vec![Param::EchoRequest(nonce)],
            Some(&hmac_out),
        );
        let work = self.config.costs.sign(self.identity.algorithm());
        self.send_control(api, work, &close, src, dst);
    }
}

impl Association {
    fn new(peer: Hit, role: Role, local_locator: IpAddr, peer_locator: IpAddr) -> Self {
        Association {
            peer,
            state: AssocState::I1Sent,
            role,
            local_locator,
            peer_locator,
            dh: None,
            puzzle_i: 0,
            puzzle_j: 0,
            // Placeholders; overwritten when KEYMAT is derived (the
            // state machine never MACs before that).
            hmac_out: HmacKey::new(&[]),
            hmac_in: HmacKey::new(&[]),
            sa_out: None,
            sa_in: None,
            local_spi: 0,
            queued: Vec::new(),
            rtx: None,
            update_seq: 0,
            update_in_flight: false,
            pending_verify: None,
            close_nonce: None,
            peer_hi: None,
            pending_out_keys: None,
            bex_started: SimTime::ZERO,
            ctr_esp_out: None,
            ctr_esp_in: None,
        }
    }
}

impl L35Shim for HipShim {
    fn start(&mut self, api: &mut ShimApi) {
        api.register_virtual_addr(self.hit().to_ip());
        api.register_virtual_addr(IpAddr::V4(self.my_lsi));
        self.build_r1_pool(api);
        // Register with the rendezvous server, if configured.
        if let Some(rvs) = self.config.rvs {
            let Some(src) = api.local_locator(&rvs) else { return };
            // Monotonic SEQ: the RVS rejects any replayed registration
            // whose sequence does not exceed the last accepted one.
            self.reg_seq += 1;
            let reg_seq = self.reg_seq;
            let params = vec![
                Param::HostId(self.identity.public().to_bytes()),
                Param::Locator(vec![encode_locator(&src)]),
                Param::Seq(reg_seq),
            ];
            let reg = self.seal(api, PacketType::RegRequest, Hit::NULL, params, None);
            let work = self.config.costs.sign(self.identity.algorithm());
            self.send_control(api, work, &reg, src, rvs);
        }
    }

    fn handles_dst(&self, dst: &IpAddr) -> bool {
        netsim::addr::is_identity(dst)
    }

    fn outbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        // Resolve the destination identity to a peer HIT.
        let peer = if let Some(hit) = Hit::from_ip(&pkt.dst) {
            hit
        } else if let IpAddr::V4(lsi) = pkt.dst {
            match self.lsi.hit_of(&lsi) {
                Some(h) => h,
                None => {
                    api.trace_state(|| format!("unknown LSI {lsi}"));
                    return;
                }
            }
        } else {
            return;
        };
        match self.assocs.get(&peer).map(|a| a.state) {
            Some(AssocState::Established) => {
                self.encap_and_send(api, peer, pkt, SimDuration::ZERO)
            }
            Some(_) => {
                if let Some(a) = self.assocs.get_mut(&peer) {
                    a.queued.push(pkt);
                }
            }
            None => self.initiate(api, peer, Some(pkt)),
        }
    }

    fn inbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        match &pkt.payload {
            Payload::Esp(esp) => {
                let esp = esp.clone();
                self.on_esp(api, &esp, &pkt);
            }
            Payload::HipControl(bytes) => {
                let Some(hip) = HipPacket::decode(bytes) else {
                    self.stats.drops_auth += 1;
                    return;
                };
                // Control packets addressed to another HIT are not ours.
                if !hip.receiver_hit.is_null() && hip.receiver_hit != self.hit() {
                    return;
                }
                match hip.packet_type {
                    PacketType::I1 => self.on_i1(api, &hip, &pkt),
                    PacketType::R1 => self.on_r1(api, &hip, &pkt),
                    PacketType::I2 => self.on_i2(api, &hip, &pkt),
                    PacketType::R2 => self.on_r2(api, &hip, &pkt),
                    PacketType::Update => self.on_update(api, &hip, &pkt),
                    PacketType::Close => self.on_close(api, &hip, &pkt),
                    PacketType::CloseAck => self.on_close_ack(api, &hip),
                    PacketType::RegResponse => {
                        self.rvs_registered = true;
                    }
                    PacketType::Notify => self.on_notify(api, &hip, &pkt),
                    PacketType::RegRequest => {}
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut ShimApi) {
        let Some(peer) = self.timers.remove(&token) else { return };
        let now = api.now();
        let max = self.config.max_retransmits;
        let Some(assoc) = self.assocs.get_mut(&peer) else { return };
        let Some(rtx) = &assoc.rtx else { return };
        if rtx.token != token || now < rtx.deadline {
            return; // superseded
        }
        if assoc.state == AssocState::Established && !assoc.update_in_flight {
            assoc.rtx = None;
            return;
        }
        if rtx.tries >= max {
            // Give up.
            let state = assoc.state;
            self.stats.bex_failed += u64::from(state != AssocState::Established);
            // The fired timer is this association's own (token matched
            // above), so teardown's pending Rtx needs no cancel.
            self.teardown(&peer);
            api.trace_state(|| format!("BEX/UPDATE with {peer:?} failed after {max} retries"));
            api.metrics().add_name("hip.bex.exhausted", 1);
            // The peer is unreachable: fail TCP connections addressed to
            // its HIT or LSI so applications see an explicit connect
            // error instead of hanging on a silently dead exchange.
            let lsi = self.lsi.lsi_for(peer);
            api.notify_unreachable(peer.to_ip());
            api.notify_unreachable(IpAddr::V4(lsi));
            return;
        }
        let bytes = rtx.bytes.clone();
        let dst = rtx.dst;
        let tries = rtx.tries + 1;
        let src = assoc.local_locator;
        self.stats.retransmissions += 1;
        api.send_wire(SimDuration::ZERO, Packet::new(src, dst, Payload::HipControl(bytes.clone())));
        self.arm_rtx(api, peer, bytes, dst, tries);
    }

    fn on_crash(&mut self, api: &mut ShimApi) {
        // Lose all runtime protocol state: associations, SAs, the R1
        // pool and outstanding retransmissions. Identity, the peer
        // directory and LSI mappings survive — they model configuration
        // baked into the image, not state. `start` rebuilds the R1 pool
        // and re-registers with the RVS (reg_seq stays monotonic so the
        // replay guard holds across the restart).
        for a in self.assocs.values_mut() {
            if let Some(rtx) = a.rtx.take() {
                api.cancel_timer(rtx.engine_timer);
            }
        }
        self.assocs.clear();
        self.spi_in.clear();
        self.r1_pool.clear();
        self.active_puzzles.clear();
        self.timers.clear();
        self.notify_limiter.clear();
        self.rvs_registered = false;
    }
}
