//! # sim-crypto
//!
//! From-scratch cryptographic primitives for the `hipcloud` workspace.
//!
//! No cryptography crates are available in this environment, so everything
//! the Host Identity Protocol and the TLS baseline need is implemented
//! here directly from the standards and pinned to published test vectors:
//!
//! - [`bigint`] — arbitrary-precision unsigned arithmetic (Knuth division,
//!   Montgomery modular exponentiation)
//! - [`prime`] — Miller–Rabin and prime generation
//! - [`rsa`] — PKCS#1 v1.5 signatures (the default HIP host identity)
//! - [`dh`] — RFC 3526 MODP Diffie–Hellman (the BEX key agreement)
//! - [`ecdsa`] — P-256 signatures (the HIP ECC extension)
//! - [`mod@sha256`], [`hmac`] — FIPS 180-4 / RFC 2104
//! - [`aes`] — AES-128 in CBC mode (ESP + TLS record payloads)
//! - [`kdf`] — HIP KEYMAT (RFC 5201 §6.5) and a TLS-style PRF
//!
//! On x86-64, AES and SHA-256 run on AES-NI and SHA-NI kernels when the
//! CPU reports those features at runtime, and on portable code
//! otherwise; both give the same bytes. `unsafe` appears only in those
//! two kernel modules, and every block carries a `// SAFETY:` note.
//!
//! **Security disclaimer:** this crate exists to reproduce a systems
//! paper inside a simulator. It is *not* constant-time, side-channel
//! hardened, or audited — the portable T-table AES and the bigint
//! arithmetic leak timing. Do not use it to protect real data.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod aes;
pub mod bigint;
pub mod dh;
pub mod ecdsa;
pub mod hmac;
pub mod kdf;
pub mod prime;
pub mod rsa;
pub mod sha256;

pub use aes::Aes128;
pub use bigint::BigUint;
pub use dh::{DhGroup, DhKeyPair};
pub use ecdsa::{EcdsaKeyPair, EcdsaPublicKey, EcdsaSignature};
pub use hmac::{hmac_sha256, HmacKey, HmacSha256};
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha256::{sha256, Sha256};
