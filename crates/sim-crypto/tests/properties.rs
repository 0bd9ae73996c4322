//! Property-based tests for the cryptographic substrate: algebraic laws
//! for the big-integer engine, round-trip and tamper properties for the
//! symmetric primitives.

use proptest::prelude::*;
use sim_crypto::aes::{reference, Aes128};
use sim_crypto::bigint::BigUint;
use sim_crypto::hmac::{hmac_sha256, verify_mac, HmacKey};
use sim_crypto::kdf::{keymat, prf_expand};
use sim_crypto::sha256::{sha256, Sha256};

fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(|v| BigUint::from_bytes_be(&v))
}

fn nonzero_biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 1..32)
        .prop_map(|v| BigUint::from_bytes_be(&v).add(&BigUint::one()))
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in biguint(), b in biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn div_rem_reconstructs(a in biguint(), d in nonzero_biguint()) {
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
        prop_assert!(r.cmp_mag(&d) == std::cmp::Ordering::Less);
    }

    #[test]
    fn bytes_round_trip(v in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&v);
        // Canonical form strips leading zeros.
        let stripped: Vec<u8> = v.iter().skip_while(|&&b| b == 0).copied().collect();
        prop_assert_eq!(n.to_bytes_be(), stripped);
    }

    #[test]
    fn hex_round_trip(a in biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).expect("parses"), a);
    }

    #[test]
    fn shifts_invert(a in biguint(), n in 0usize..200) {
        prop_assert_eq!(a.shl(n).shr(n), a);
    }

    #[test]
    fn modpow_small_exponent_matches_naive(
        base in biguint(),
        e in 0u64..24,
        m in nonzero_biguint(),
    ) {
        prop_assume!(!m.is_one());
        let expect = {
            let mut acc = BigUint::one().rem(&m);
            for _ in 0..e {
                acc = acc.mulmod(&base, &m);
            }
            acc
        };
        prop_assert_eq!(base.modpow(&BigUint::from_u64(e), &m), expect);
    }

    #[test]
    fn modpow_matches_square_and_multiply(
        m_limbs in 1usize..10,
        m_bytes in proptest::collection::vec(any::<u8>(), 72),
        base_bytes in proptest::collection::vec(any::<u8>(), 144),
        base_len in 0usize..145,
        e_bytes in proptest::collection::vec(any::<u8>(), 0..76),
    ) {
        // A modulus of exactly m_limbs limbs (odd or even), a base up to
        // twice its width (zero included), an exponent up to 600 bits.
        let mut m_bytes = m_bytes[..8 * m_limbs].to_vec();
        m_bytes[0] |= 0x80;
        let m = BigUint::from_bytes_be(&m_bytes);
        let base = BigUint::from_bytes_be(&base_bytes[..base_len % (16 * m_limbs + 1)]);
        let e = BigUint::from_bytes_be(&e_bytes);
        let square_and_multiply = |b: &BigUint| {
            let mut acc = BigUint::one().rem(&m);
            for i in (0..e.bits()).rev() {
                acc = acc.mulmod(&acc, &m);
                if e.bit(i) {
                    acc = acc.mulmod(b, &m);
                }
            }
            acc
        };
        prop_assert_eq!(base.modpow(&e, &m), square_and_multiply(&base));
        prop_assert_eq!(BigUint::zero().modpow(&e, &m), square_and_multiply(&BigUint::zero()));
    }

    #[test]
    fn modinv_is_inverse(a in nonzero_biguint(), m in nonzero_biguint()) {
        prop_assume!(!m.is_one());
        if let Some(inv) = a.modinv(&m) {
            prop_assert!(a.mulmod(&inv, &m).is_one());
        } else {
            // Not coprime: gcd must be > 1 (or a ≡ 0 mod m).
            let g = a.gcd(&m);
            prop_assert!(!g.is_one() || a.rem(&m).is_zero());
        }
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        cuts in proptest::collection::vec(1usize..64, 0..8),
    ) {
        let mut h = Sha256::new();
        let mut off = 0;
        for c in cuts {
            let end = (off + c).min(data.len());
            h.update(&data[off..end]);
            off = end;
        }
        h.update(&data[off..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn aes_cbc_round_trips(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let aes = Aes128::new(&key);
        let ct = aes.cbc_encrypt(&iv, &msg);
        prop_assert_eq!(aes.cbc_decrypt(&iv, &ct).expect("valid"), msg);
    }

    // The AES properties below reach whichever backend this CPU selects;
    // the unit tests in `aes.rs` pin the AES-NI and T-table paths one by
    // one.
    #[test]
    fn encrypt_block_matches_bytewise_reference(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = block;
        aes.encrypt_block(&mut fast);
        let mut slow = block;
        reference::encrypt_block(&aes, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn decrypt_block_matches_bytewise_reference(
        key in any::<[u8; 16]>(),
        block in any::<[u8; 16]>(),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = block;
        aes.decrypt_block(&mut fast);
        let mut slow = block;
        reference::decrypt_block(&aes, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn cbc_encrypt_into_matches_reference(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..2048),
        prefix in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let aes = Aes128::new(&key);
        let mut fast = prefix.clone();
        aes.cbc_encrypt_into(&iv, &msg, &mut fast);
        let mut slow = prefix.clone();
        reference::cbc_encrypt_into(&aes, &iv, &msg, &mut slow);
        prop_assert_eq!(&fast[..prefix.len()], &prefix[..], "the prefix is kept");
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn cbc_decrypt_into_matches_reference(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..2048),
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
        prefix in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let aes = Aes128::new(&key);
        let ct = aes.cbc_encrypt(&iv, &msg);
        // A valid ciphertext, then arbitrary bytes of any length and of
        // a whole number of blocks (bad length, bad padding): both paths
        // must agree on the verdict and the output.
        let blocks = &garbage[..garbage.len() / 16 * 16];
        for input in [&ct[..], &garbage[..], blocks] {
            let mut fast = prefix.clone();
            let fast_ok = aes.cbc_decrypt_into(&iv, input, &mut fast);
            let mut slow = prefix.clone();
            let slow_ok = reference::cbc_decrypt_into(&aes, &iv, input, &mut slow);
            prop_assert_eq!(fast_ok, slow_ok);
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn aes_cbc_round_trips_all_short_lengths(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        fill in any::<u8>(),
        len in 0usize..64,
    ) {
        let msg = vec![fill; len];
        let aes = Aes128::new(&key);
        let ct = aes.cbc_encrypt(&iv, &msg);
        prop_assert_eq!(aes.cbc_decrypt(&iv, &ct).expect("valid"), msg);
    }

    #[test]
    fn cached_hmac_key_matches_oneshot(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..500),
        cut in 0usize..500,
    ) {
        let cached = HmacKey::new(&key);
        prop_assert_eq!(cached.mac(&msg), hmac_sha256(&key, &msg));
        let split = cut.min(msg.len());
        prop_assert_eq!(
            cached.mac_multi(&[&msg[..split], &msg[split..]]),
            hmac_sha256(&key, &msg)
        );
    }

    #[test]
    fn hmac_verifies_and_detects_flips(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        msg in proptest::collection::vec(any::<u8>(), 0..500),
        flip in 0usize..32,
    ) {
        let mac = hmac_sha256(&key, &msg);
        prop_assert!(verify_mac(&mac, &mac));
        let mut bad = mac;
        bad[flip] ^= 0x01;
        prop_assert!(!verify_mac(&mac, &bad));
    }

    #[test]
    fn keymat_is_order_independent_and_prefix_stable(
        kij in proptest::collection::vec(any::<u8>(), 1..64),
        a in any::<[u8; 16]>(),
        b in any::<[u8; 16]>(),
        i in any::<u64>(),
        j in any::<u64>(),
    ) {
        let k1 = keymat(&kij, &a, &b, i, j, 96);
        let k2 = keymat(&kij, &b, &a, i, j, 96);
        prop_assert_eq!(&k1, &k2, "HIT order must not matter");
        let shorter = keymat(&kij, &a, &b, i, j, 48);
        prop_assert_eq!(&k1[..48], &shorter[..]);
    }

    #[test]
    fn prf_prefix_property(
        secret in proptest::collection::vec(any::<u8>(), 1..48),
        seed in proptest::collection::vec(any::<u8>(), 0..48),
        len_a in 1usize..100,
        len_b in 1usize..100,
    ) {
        let (short, long) = if len_a < len_b { (len_a, len_b) } else { (len_b, len_a) };
        let a = prf_expand(&secret, b"label", &seed, short);
        let b = prf_expand(&secret, b"label", &seed, long);
        prop_assert_eq!(&b[..short], &a[..]);
    }
}
