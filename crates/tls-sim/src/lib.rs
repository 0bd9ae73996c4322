//! # tls-sim
//!
//! A simplified TLS-1.2-style protocol: the **SSL baseline** the paper
//! compares HIP against ("one of the popular alternatives, OpenVPN uses
//! OpenSSL and hence SSL was used as an alternative to compare the
//! performance of HIP", §V-A).
//!
//! The protocol is a byte-stream session layer (run it over any reliable
//! transport): a DHE-RSA handshake with certificates, then an
//! encrypt-then-MAC record layer using AES-128-CBC + HMAC-SHA-256 — the
//! same primitives as HIP's BEX + ESP-BEET, which is the point: the
//! paper's processing-cost claim (§IV-B) is that HIP and SSL pay for the
//! same cryptography.
//!
//! Like `hip-core`, all cryptography is real (a tampered record fails
//! its MAC); CPU time is *accounted* through [`TlsCosts`] so the
//! simulator can charge it to a VM's virtual CPU.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cert;
pub mod record;
pub mod session;

pub use cert::{Certificate, CertificateAuthority};
pub use session::{TlsCosts, TlsError, TlsOutput, TlsSession};
