//! Single-flow bulk transfer harness for the datapath-batching
//! experiments: one TCP flow between two EC2-style VMs (the Figure 3
//! topology, minus Teredo), plain or over HIP/ESP, with a selectable
//! [`GsoMode`].
//!
//! Shared by the `tcp_bulk` Criterion bench (wall time per transfer)
//! and the host-time benchmark's `bulk_flow` workload.

use cloudsim::{CloudKind, CloudTopology, Flavor};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::link::LinkParams;
use netsim::tcp::GsoMode;
use netsim::{SimDuration, SimStats, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use websvc::loadgen::{BulkSendApp, IperfServerApp};

const PORT: u16 = 5001;

/// Counters from one completed bulk transfer.
pub struct BulkOutcome {
    /// Engine counters (dispatched, coalesced runs, ...).
    pub stats: SimStats,
    /// The run's metrics registry.
    pub metrics: obs::MetricsRegistry,
    /// Receiver-measured goodput in Mbit/s.
    pub goodput_mbits: f64,
}

/// Runs one `bytes`-sized bulk transfer to completion and returns its
/// counters. Panics if the receiver does not see every byte.
pub fn bulk_transfer(hip: bool, gso: GsoMode, bytes: u64, seed: u64) -> BulkOutcome {
    let mut topo = CloudTopology::new(seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    // Same era-appropriate instance NIC as Figure 3: ~150 Mbit/s.
    topo.set_cloud_link_params(cloud, LinkParams::datacenter().with_bandwidth(150_000_000));
    let a = topo.launch_vm(cloud, "vm-a", Flavor::Small);
    let b = topo.launch_vm(cloud, "vm-b", Flavor::Small);

    let target = if hip {
        let mut key_rng = StdRng::seed_from_u64(seed ^ 0x33);
        let id_a = HostIdentity::generate_rsa(512, &mut key_rng);
        let id_b = HostIdentity::generate_rsa(512, &mut key_rng);
        let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
        let cfg = HipConfig { costs: CostModel::paper_era(), ..HipConfig::default() };
        let mut shim_a = HipShim::new(id_a, cfg.clone());
        shim_a.add_peer(hit_b, PeerInfo { locators: vec![b.addr], via_rvs: None });
        let mut shim_b = HipShim::new(id_b, cfg);
        shim_b.add_peer(hit_a, PeerInfo { locators: vec![a.addr], via_rvs: None });
        topo.host_mut(a).set_shim(Box::new(shim_a));
        topo.host_mut(b).set_shim(Box::new(shim_b));
        hit_b.to_ip()
    } else {
        b.addr
    };
    for vm in [a, b] {
        topo.host_mut(vm).core.tcp.config.gso = gso;
    }

    let srv_idx = topo.host_mut(b).add_app(Box::new(IperfServerApp::new(PORT)));
    let mut client = BulkSendApp::new((target, PORT), bytes);
    // Let the HIP base exchange settle before the flow starts.
    client.start_delay = SimDuration::from_secs(1);
    topo.host_mut(a).add_app(Box::new(client));

    topo.sim.run_until(SimTime::ZERO + SimDuration::from_secs(120));

    let srv = topo.host(b).app::<IperfServerApp>(srv_idx).expect("server");
    assert_eq!(srv.bytes, bytes, "hip={hip} gso={gso:?}: transfer incomplete");
    let goodput_mbits = srv.mbits_per_sec();
    BulkOutcome { stats: topo.sim.stats(), metrics: topo.sim.take_metrics(), goodput_mbits }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact batching keeps Off's event schedule on the plain path, and
    /// the same-tick lookahead never pushes the scheduler's window
    /// ahead of the clock.
    #[test]
    fn exact_dispatches_as_many_events_as_off() {
        let off = bulk_transfer(false, GsoMode::Off, 512 * 1024, 7);
        let exact = bulk_transfer(false, GsoMode::Exact, 512 * 1024, 7);
        assert_eq!(off.stats.dispatched, exact.stats.dispatched);
        assert_eq!(exact.stats.queue_behind_window_pushes, 0);
    }

    /// Over ESP too, Exact dispatches exactly as many events as Off.
    /// ESP frames charged the same CPU delay land in the same tick, so
    /// same-tick coalescing batches some of them. (On the plain path,
    /// link serialization spaces every frame apart.)
    #[test]
    fn exact_over_esp_keeps_schedule_and_coalesces() {
        let off = bulk_transfer(true, GsoMode::Off, 256 * 1024, 9);
        let exact = bulk_transfer(true, GsoMode::Exact, 256 * 1024, 9);
        assert_eq!(off.stats.dispatched, exact.stats.dispatched);
        assert!(exact.stats.coalesced_events > 0, "no same-tick arrivals were coalesced");
        assert!(exact.goodput_mbits > 1.0);
        assert_eq!(exact.stats.queue_behind_window_pushes, 0);
    }
}
