//! RSA key generation, signing and verification.
//!
//! HIP Host Identifiers (HIs) are RSA public keys (RFC 5201 uses
//! RSA/SHA-1 or RSA/SHA-256 host identities); all HIP control packets are
//! signed with them, and the TLS baseline uses the same keys for its
//! certificates so the two protocols pay identical asymmetric costs.
//!
//! Signature scheme: PKCS#1 v1.5-style — SHA-256 digest, DER-ish prefix,
//! `00 01 FF..FF 00 || prefix || digest` padded to the modulus size, then
//! RSA with the private exponent (accelerated via CRT).

use crate::bigint::BigUint;
use crate::prime::generate_rsa_factor;
use crate::sha256::sha256;
use rand::Rng;

/// The ASN.1 DigestInfo prefix for SHA-256 (PKCS#1 v1.5).
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
    0x05, 0x00, 0x04, 0x20,
];

/// Smallest modulus, in bytes, that fits an EMSA-PKCS1-v1_5 SHA-256
/// encoding: DigestInfo prefix, digest and at least 11 bytes of padding.
const PKCS1_SHA256_MIN_LEN: usize = SHA256_PREFIX.len() + 32 + 11;

/// An RSA public key `(n, e)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    /// Full private exponent; CRT parameters below are used for signing,
    /// `d` is retained for cross-checking (see the keygen test).
    #[cfg_attr(not(test), allow(dead_code))]
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

/// An RSA key pair.
#[derive(Clone)]
pub struct RsaKeyPair {
    private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// Modulus size in bytes (the signature length).
    pub fn modulus_len(&self) -> usize {
        self.n.to_bytes_be().len()
    }

    /// Serializes as `len(n) || n || len(e) || e` (big-endian u32 lengths).
    /// This is the canonical byte form hashed into a HIT.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the serialization produced by [`Self::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        if data.len() < 4 {
            return None;
        }
        let n_len = u32::from_be_bytes(data[..4].try_into().ok()?) as usize;
        let rest = &data[4..];
        if rest.len() < n_len + 4 {
            return None;
        }
        let n = BigUint::from_bytes_be(&rest[..n_len]);
        let rest = &rest[n_len..];
        let e_len = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
        let rest = &rest[4..];
        if rest.len() < e_len {
            return None;
        }
        let e = BigUint::from_bytes_be(&rest[..e_len]);
        if n.is_zero() || e.is_zero() {
            return None;
        }
        Some(RsaPublicKey { n, e })
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// A key whose modulus is too short to hold the encoding (possible
    /// for one parsed off the wire) verifies nothing.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        let k = self.modulus_len();
        if k < PKCS1_SHA256_MIN_LEN || signature.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_mag(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let em = s.modpow(&self.e, &self.n).to_bytes_be_padded(k);
        em == encode_pkcs1(&sha256(message), k)
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of about `bits` bits and
    /// public exponent 65537.
    ///
    /// # Panics
    /// Panics if `bits < 32`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 32, "RSA modulus too small");
        let e = BigUint::from_u64(65537);
        loop {
            let p = generate_rsa_factor(bits / 2, &e, rng);
            let q = generate_rsa_factor(bits - bits / 2, &e, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.modinv(&phi) else { continue };
            let dp = d.rem(&p.sub(&one));
            let dq = d.rem(&q.sub(&one));
            let Some(qinv) = q.modinv(&p) else { continue };
            return RsaKeyPair {
                private: RsaPrivateKey {
                    public: RsaPublicKey { n, e },
                    d,
                    p,
                    q,
                    dp,
                    dq,
                    qinv,
                },
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.private.public
    }

    /// Signs `message` (PKCS#1 v1.5, SHA-256). Output length equals the
    /// modulus length.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.public().modulus_len();
        let em = encode_pkcs1(&sha256(message), k);
        let m = BigUint::from_bytes_be(&em);
        self.private.crt_exp(&m).to_bytes_be_padded(k)
    }
}

impl RsaPrivateKey {
    /// `m^d mod n` via the Chinese Remainder Theorem (≈4x faster than a
    /// straight exponentiation with the full-size exponent).
    fn crt_exp(&self, m: &BigUint) -> BigUint {
        let m1 = m.modpow(&self.dp, &self.p);
        let m2 = m.modpow(&self.dq, &self.q);
        // h = qinv * (m1 - m2) mod p
        let diff = if m1.cmp_mag(&m2) != std::cmp::Ordering::Less {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p with borrow from p
            let deficit = m2.sub(&m1).rem(&self.p);
            if deficit.is_zero() { deficit } else { self.p.sub(&deficit) }
        };
        let h = self.qinv.mulmod(&diff, &self.p);
        m2.add(&h.mul(&self.q))
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `k` bytes.
fn encode_pkcs1(digest: &[u8; 32], k: usize) -> Vec<u8> {
    let t_len = SHA256_PREFIX.len() + digest.len();
    assert!(k >= PKCS1_SHA256_MIN_LEN, "modulus too small for PKCS#1 SHA-256");
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xffu8, k - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(&SHA256_PREFIX);
    em.extend_from_slice(digest);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(512, &mut r);
        let msg = b"the host identity protocol";
        let sig = kp.sign(msg);
        assert_eq!(sig.len(), kp.public().modulus_len());
        assert!(kp.public().verify(msg, &sig));
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(512, &mut r);
        let sig = kp.sign(b"original");
        assert!(!kp.public().verify(b"tampered", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(512, &mut r);
        let mut sig = kp.sign(b"message");
        sig[10] ^= 0x01;
        assert!(!kp.public().verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut r = rng();
        let kp1 = RsaKeyPair::generate(512, &mut r);
        let kp2 = RsaKeyPair::generate(512, &mut r);
        let sig = kp1.sign(b"message");
        assert!(!kp2.public().verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(512, &mut r);
        let sig = kp.sign(b"message");
        assert!(!kp.public().verify(b"message", &sig[..sig.len() - 1]));
        let mut long = sig;
        long.push(0);
        assert!(!kp.public().verify(b"message", &long));
    }

    #[test]
    fn verify_rejects_modulus_too_short_for_pkcs1() {
        // n = 3, e = 3: parses, but no PKCS#1 SHA-256 encoding fits.
        let key = RsaPublicKey::from_bytes(&[0, 0, 0, 1, 3, 0, 0, 0, 1, 3]).unwrap();
        assert!(!key.verify(b"msg", &[1]));
        // The largest modulus one byte short of the minimum is refused too.
        let n = BigUint::one().shl(8 * (PKCS1_SHA256_MIN_LEN - 1)).sub(&BigUint::one());
        let key = RsaPublicKey { n, e: BigUint::from_u64(65537) };
        assert!(!key.verify(b"msg", &[1; PKCS1_SHA256_MIN_LEN - 1]));
    }

    #[test]
    fn seeded_signature_matches_recorded_value() {
        // Known answer: pins key generation (Miller–Rabin) and CRT
        // signing byte for byte across changes to the exponentiation.
        let kp = RsaKeyPair::generate(512, &mut rng());
        let sig = kp.sign(b"the host identity protocol");
        let hex: String = sig.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "00f0bd69adc0df4008b2a867d3873ce3e568c77861ab966aeee827c92b9a1089\
             826b4e445685856927d0cc79b190a0564ad6c778ff5eaf8b22f779aff8e4d17c"
        );
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(512, &mut r);
        let bytes = kp.public().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, kp.public());
        // Truncated input is rejected.
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(RsaPublicKey::from_bytes(&[]).is_none());
    }

    #[test]
    fn keygen_produces_working_crt() {
        // Cross-check CRT exponentiation against plain d exponentiation.
        let mut r = rng();
        let kp = RsaKeyPair::generate(256, &mut r);
        let m = BigUint::from_u64(0x1234_5678);
        let crt = kp.private.crt_exp(&m);
        let plain = m.modpow(&kp.private.d, &kp.private.public.n);
        assert_eq!(crt, plain);
    }

    #[test]
    fn different_keys_for_different_seeds() {
        let kp1 = RsaKeyPair::generate(256, &mut rand::rngs::StdRng::seed_from_u64(1));
        let kp2 = RsaKeyPair::generate(256, &mut rand::rngs::StdRng::seed_from_u64(2));
        assert_ne!(kp1.public(), kp2.public());
    }
}
