//! Host-time benchmark for hipcloud.
//!
//! Three workloads (see [`workload::Workload`]) each run the paper's
//! scenarios — Basic, HIP, SSL — one after another on one thread. The
//! untraced run gives the end-to-end metrics; a traced run rebuilds the
//! same deployments with every app and shim wrapped in a timing
//! decorator ([`ledger`]) and gives the per-layer ledger, plus unit
//! costs of the primitives each layer calls ([`unit`]). Both check the
//! simulated results against a fingerprint ([`workload::fingerprint`]).
//!
//! Run it with `python3 perfbench/run.py --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` from the repository root.

pub mod assemble;
pub mod calib;
pub mod heap;
pub mod ledger;
pub mod report;
pub mod tlsbulk;
pub mod unit;
pub mod workload;

use websvc::Scenario;

/// A security scenario of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scn {
    /// No protection.
    Basic,
    /// HIP + ESP below TCP.
    Hip,
    /// TLS inside the TCP stream.
    Ssl,
}

impl Scn {
    /// Every scenario, in run order.
    pub const ALL: [Scn; 3] = [Scn::Basic, Scn::Hip, Scn::Ssl];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Scn::Basic => "basic",
            Scn::Hip => "hip",
            Scn::Ssl => "ssl",
        }
    }

    /// The RUBiS deployment scenario: HIP runs with LSIs, as the paper
    /// measured it.
    pub fn rubis(self) -> Scenario {
        match self {
            Scn::Basic => Scenario::Basic,
            Scn::Hip => Scenario::HipLsi,
            Scn::Ssl => Scenario::Ssl,
        }
    }
}
