//! Deployment assemblers for the traced run, plus the bulk-flow
//! topology both runs share.
//!
//! [`rubis`] rebuilds `websvc::deploy_rubis` step by step through the
//! same public constructors, drawing from the same seeded RNGs in the
//! same order, so the traced deployment is the untraced one. It differs
//! in two ways only: every app and shim goes in wrapped in a
//! [`crate::ledger`] decorator, and the key-generation and dataset calls
//! are timed, which splits `setup_s` into its parts. The benchmark's
//! fingerprint check proves the rebuild faithful on every traced run.
//!
//! [`bulk`] is `bench::datapath::bulk_transfer`'s topology with setup
//! separated from the run, and an SSL leg added (see
//! [`crate::tlsbulk`]); a test pins it to `bulk_transfer`.

use crate::ledger::{Layer, TimedApp, TimedShim};
use crate::tlsbulk::{TlsBulkSendApp, TlsSinkApp};
use crate::Scn;
use cloudsim::{CloudKind, CloudTopology, Flavor, VmHandle};
use hip_core::identity::HostIdentity;
use hip_core::{CostModel, HipConfig, HipShim, PeerInfo};
use netsim::host::{App, L35Shim};
use netsim::link::LinkParams;
use netsim::SimDuration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::rsa::RsaKeyPair;
use std::net::IpAddr;
use std::time::Instant;
use tls_sim::CertificateAuthority;
use websvc::db::{DbServerApp, ServerSecurity};
use websvc::deploy::{tls_costs, RubisConfig, DB_PORT, LB_PORT, WEB_PORT};
use websvc::loadgen::{BulkSendApp, IperfServerApp};
use websvc::proxy::{BackendSecurity, ProxyApp};
use websvc::rubis::RubisData;
use websvc::webserver::{DbSecurity, WebConfig, WebServerApp};
use websvc::Scenario;

/// Host time spent in the parts of a deployment's set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSplit {
    /// RSA identity, CA and certificate key generation.
    pub keygen_ns: u64,
    /// RUBiS dataset generation.
    pub dataset_ns: u64,
}

/// Wraps apps and shims when tracing and times the set-up calls.
pub struct Assembler {
    traced: bool,
    /// Time booked so far.
    pub split: SetupSplit,
}

impl Assembler {
    /// An assembler that wraps seams when `traced`.
    pub fn new(traced: bool) -> Self {
        Assembler {
            traced,
            split: SetupSplit::default(),
        }
    }

    /// Whether seams are wrapped.
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn app(&self, layer: Layer, app: Box<dyn App>) -> Box<dyn App> {
        if self.traced {
            TimedApp::boxed(layer, app)
        } else {
            app
        }
    }

    fn shim(&self, shim: HipShim) -> Box<dyn L35Shim> {
        if self.traced {
            TimedShim::boxed(Box::new(shim))
        } else {
            Box::new(shim)
        }
    }

    fn keygen<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.split.keygen_ns += t.elapsed().as_nanos() as u64;
        out
    }

    fn dataset<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.split.dataset_ns += t.elapsed().as_nanos() as u64;
        out
    }

    /// Installs a load generator on `host`, wrapped when tracing.
    pub fn add_loadgen(
        &self,
        topo: &mut CloudTopology,
        host: VmHandle,
        app: Box<dyn App>,
    ) -> usize {
        topo.host_mut(host).add_app(self.app(Layer::Loadgen, app))
    }
}

/// The pieces of a RUBiS deployment a workload needs afterwards.
pub struct Rubis {
    /// The world.
    pub topo: CloudTopology,
    /// The load balancer.
    pub lb: VmHandle,
    /// The web tier.
    pub webs: Vec<VmHandle>,
    /// Where clients send requests.
    pub frontend: (IpAddr, u16),
}

/// Rebuilds `deploy_rubis(cfg)` for Basic, HIP (LSI) or SSL with a
/// load balancer in front, through `b`.
pub fn rubis(cfg: &RubisConfig, b: &mut Assembler) -> Rubis {
    assert!(cfg.use_lb, "the benchmark deploys the FIG2 topology");
    let mut topo = CloudTopology::new(cfg.seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    let db = topo.launch_vm(cloud, "db", Flavor::Large);
    let webs: Vec<VmHandle> = (0..cfg.n_web)
        .map(|i| topo.launch_vm(cloud, &format!("web{i}"), Flavor::Micro))
        .collect();
    let lb = topo.add_external_host("haproxy", Flavor::Dedicated);
    let mut key_rng = StdRng::seed_from_u64(cfg.seed ^ 0xfeed_beef);

    let web_backends = |webs: &[VmHandle]| webs.iter().map(|w| (w.addr, WEB_PORT)).collect();
    match cfg.scenario {
        Scenario::Basic => {
            install_db(&mut topo, db, cfg, ServerSecurity::Plain, b);
            for &web in &webs {
                install_web(
                    &mut topo,
                    web,
                    db.addr,
                    DbSecurity::Plain,
                    ServerSecurity::Plain,
                    cfg,
                    b,
                );
            }
            install_lb(
                &mut topo,
                lb,
                web_backends(&webs),
                BackendSecurity::Plain,
                b,
            );
        }
        Scenario::HipLsi => {
            let id_db = b.keygen(|| HostIdentity::generate_rsa(512, &mut key_rng));
            let ids_web: Vec<HostIdentity> = b.keygen(|| {
                webs.iter()
                    .map(|_| HostIdentity::generate_rsa(512, &mut key_rng))
                    .collect()
            });
            let id_lb = b.keygen(|| HostIdentity::generate_rsa(512, &mut key_rng));
            let hip_cfg = HipConfig {
                costs: cfg.crypto_costs,
                ..HipConfig::default()
            };
            let hit_db = id_db.hit();
            let hit_lb = id_lb.hit();
            let hits_web: Vec<_> = ids_web.iter().map(HostIdentity::hit).collect();

            let mut shim_db = HipShim::new(id_db, hip_cfg.clone());
            for (&web, &hit) in webs.iter().zip(&hits_web) {
                shim_db.add_peer(
                    hit,
                    PeerInfo {
                        locators: vec![web.addr],
                        via_rvs: None,
                    },
                );
            }
            shim_db.add_peer(
                hit_lb,
                PeerInfo {
                    locators: vec![lb.addr],
                    via_rvs: None,
                },
            );
            topo.host_mut(db).set_shim(b.shim(shim_db));
            install_db(&mut topo, db, cfg, ServerSecurity::Plain, b);

            let mut web_db_addrs = Vec::with_capacity(webs.len());
            for (&web, id) in webs.iter().zip(ids_web) {
                let mut shim = HipShim::new(id, hip_cfg.clone());
                let db_lsi = shim.add_peer(
                    hit_db,
                    PeerInfo {
                        locators: vec![db.addr],
                        via_rvs: None,
                    },
                );
                shim.add_peer(
                    hit_lb,
                    PeerInfo {
                        locators: vec![lb.addr],
                        via_rvs: None,
                    },
                );
                topo.host_mut(web).set_shim(b.shim(shim));
                web_db_addrs.push(IpAddr::V4(db_lsi));
            }
            for (&web, db_addr) in webs.iter().zip(web_db_addrs) {
                install_web(
                    &mut topo,
                    web,
                    db_addr,
                    DbSecurity::Plain,
                    ServerSecurity::Plain,
                    cfg,
                    b,
                );
            }

            let mut shim = HipShim::new(id_lb, hip_cfg);
            let backends = webs
                .iter()
                .zip(&hits_web)
                .map(|(web, &hit)| {
                    let lsi = shim.add_peer(
                        hit,
                        PeerInfo {
                            locators: vec![web.addr],
                            via_rvs: None,
                        },
                    );
                    (IpAddr::V4(lsi), WEB_PORT)
                })
                .collect();
            topo.host_mut(lb).set_shim(b.shim(shim));
            install_lb(&mut topo, lb, backends, BackendSecurity::Plain, b);
        }
        Scenario::Ssl => {
            let costs = tls_costs(&cfg.crypto_costs);
            let ca = b.keygen(|| CertificateAuthority::new(512, &mut key_rng));
            let db_keys = b.keygen(|| RsaKeyPair::generate(512, &mut key_rng));
            let db_cert = ca.issue("db.rubis.cloud", db_keys.public());
            install_db(
                &mut topo,
                db,
                cfg,
                ServerSecurity::Tls {
                    cert: db_cert,
                    keys: db_keys,
                    costs,
                },
                b,
            );
            for (i, &web) in webs.iter().enumerate() {
                let web_keys = b.keygen(|| RsaKeyPair::generate(512, &mut key_rng));
                let web_cert = ca.issue(&format!("web{i}.rubis.cloud"), web_keys.public());
                let frontend = ServerSecurity::Tls {
                    cert: web_cert,
                    keys: web_keys,
                    costs,
                };
                let db_security = DbSecurity::Tls {
                    ca: ca.public().clone(),
                    costs,
                };
                install_web(&mut topo, web, db.addr, db_security, frontend, cfg, b);
            }
            let security = BackendSecurity::Tls {
                ca: ca.public().clone(),
                costs,
            };
            install_lb(&mut topo, lb, web_backends(&webs), security, b);
        }
        Scenario::Hip => unreachable!("the benchmark runs HIP with LSIs, as the paper measured"),
    }
    Rubis {
        topo,
        lb,
        webs,
        frontend: (lb.addr, LB_PORT),
    }
}

fn install_db(
    topo: &mut CloudTopology,
    db: VmHandle,
    cfg: &RubisConfig,
    security: ServerSecurity,
    b: &mut Assembler,
) {
    let data = b.dataset(|| RubisData::generate(cfg.users, cfg.items, cfg.seed ^ 0xdb));
    let app = DbServerApp::new(DB_PORT, data, cfg.query_costs, cfg.query_cache, security);
    topo.host_mut(db).add_app(b.app(Layer::Db, Box::new(app)));
}

fn install_web(
    topo: &mut CloudTopology,
    web: VmHandle,
    db_addr: IpAddr,
    db_security: DbSecurity,
    frontend_security: ServerSecurity,
    cfg: &RubisConfig,
    b: &Assembler,
) {
    let mut web_cfg = WebConfig::new(db_addr, DB_PORT);
    web_cfg.port = WEB_PORT;
    web_cfg.db_security = db_security;
    web_cfg.frontend_security = frontend_security;
    web_cfg.request_cost = cfg.web_request_cost;
    topo.host_mut(web)
        .add_app(b.app(Layer::Web, Box::new(WebServerApp::new(web_cfg))));
}

fn install_lb(
    topo: &mut CloudTopology,
    lb: VmHandle,
    backends: Vec<(IpAddr, u16)>,
    security: BackendSecurity,
    b: &Assembler,
) {
    let app = ProxyApp::new(LB_PORT, backends, security);
    topo.host_mut(lb)
        .add_app(b.app(Layer::Proxy, Box::new(app)));
}

/// Port of the bulk receiver.
pub const BULK_PORT: u16 = 5001;

/// The bulk-flow deployment.
pub struct Bulk {
    /// The world.
    pub topo: CloudTopology,
    /// The receiving VM; its app 0 is the sink.
    pub receiver: VmHandle,
}

/// `bench::datapath::bulk_transfer`'s two-VM topology for `scn`
/// (default `GsoMode`; HIP addresses the receiver by HIT), moving
/// `bytes` from `vm-a` to `vm-b`.
pub fn bulk(scn: Scn, bytes: u64, seed: u64, b: &mut Assembler) -> Bulk {
    let mut topo = CloudTopology::new(seed);
    let cloud = topo.add_cloud("ec2", CloudKind::Public);
    topo.set_cloud_link_params(cloud, LinkParams::datacenter().with_bandwidth(150_000_000));
    let a = topo.launch_vm(cloud, "vm-a", Flavor::Small);
    let r = topo.launch_vm(cloud, "vm-b", Flavor::Small);
    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x33);
    // Let the HIP base exchange settle before the flow starts.
    let start_delay = SimDuration::from_secs(1);

    let (sink, sender): (Box<dyn App>, Box<dyn App>) = match scn {
        Scn::Basic | Scn::Hip => {
            let target = if scn == Scn::Hip {
                let id_a = b.keygen(|| HostIdentity::generate_rsa(512, &mut key_rng));
                let id_b = b.keygen(|| HostIdentity::generate_rsa(512, &mut key_rng));
                let (hit_a, hit_b) = (id_a.hit(), id_b.hit());
                let cfg = HipConfig {
                    costs: CostModel::paper_era(),
                    ..HipConfig::default()
                };
                let mut shim_a = HipShim::new(id_a, cfg.clone());
                shim_a.add_peer(
                    hit_b,
                    PeerInfo {
                        locators: vec![r.addr],
                        via_rvs: None,
                    },
                );
                let mut shim_b = HipShim::new(id_b, cfg);
                shim_b.add_peer(
                    hit_a,
                    PeerInfo {
                        locators: vec![a.addr],
                        via_rvs: None,
                    },
                );
                topo.host_mut(a).set_shim(b.shim(shim_a));
                topo.host_mut(r).set_shim(b.shim(shim_b));
                hit_b.to_ip()
            } else {
                r.addr
            };
            let mut client = BulkSendApp::new((target, BULK_PORT), bytes);
            client.start_delay = start_delay;
            (Box::new(IperfServerApp::new(BULK_PORT)), Box::new(client))
        }
        Scn::Ssl => {
            let costs = tls_costs(&CostModel::paper_era());
            let ca = b.keygen(|| CertificateAuthority::new(512, &mut key_rng));
            let keys = b.keygen(|| RsaKeyPair::generate(512, &mut key_rng));
            let cert = ca.issue("vm-b.cloud", keys.public());
            let mut client =
                TlsBulkSendApp::new((r.addr, BULK_PORT), bytes, ca.public().clone(), costs);
            client.start_delay = start_delay;
            (
                Box::new(TlsSinkApp::new(BULK_PORT, cert, keys, costs)),
                Box::new(client),
            )
        }
    };
    topo.host_mut(r).add_app(b.app(Layer::Loadgen, sink));
    topo.host_mut(a).add_app(b.app(Layer::Loadgen, sender));
    Bulk { topo, receiver: r }
}
