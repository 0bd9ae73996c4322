//! # websvc
//!
//! The multi-tier web-service substrate: everything the paper's
//! evaluation (§V) runs on top of the cloud and HIP layers.
//!
//! - [`http`] — HTTP/1.0 codec
//! - [`rubis`] — the RUBiS auction data model, query language, per-query
//!   cost table and interaction mix
//! - [`db`] — the MySQL-like database server app (+ query cache)
//! - [`webserver`] — the web-tier application server
//! - [`proxy`] — the HAProxy-like reverse proxy / round-robin LB that
//!   terminates HIP toward consumers
//! - [`secure`] — the Basic / HIP / SSL scenario plumbing
//! - [`loadgen`] — jmeter (closed loop), httperf (open loop), iperf
//!   (bulk TCP), ping (ICMP RTT)
//! - [`deploy`] — one-call assembly of the paper's Figure 1 testbed
//! - [`dns_server`] — a DNS server app serving HIP resource records

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
pub mod dns_server;
pub mod deploy;
pub mod http;
pub mod loadgen;
pub mod proxy;
pub mod rubis;
pub mod secure;
pub mod webserver;

pub use deploy::{deploy_rubis, RubisConfig, RubisDeployment, DB_PORT, LB_PORT, WEB_PORT};
pub use loadgen::{HttperfApp, IperfClientApp, IperfServerApp, JmeterApp, LatencyStats, PingApp, Timeline};
pub use proxy::{FailoverConfig, Health, ProxyApp, ProxyStats};
pub use secure::Scenario;
