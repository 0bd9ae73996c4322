//! Probabilistic prime generation (trial division + Miller–Rabin),
//! used by the RSA key generator.

use crate::bigint::BigUint;
use rand::Rng;

/// Small primes for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Miller–Rabin primality test with `rounds` random bases.
///
/// Deterministically handles small inputs; for the key sizes used here
/// (≥256 bits) 20 rounds gives an error probability below 2^-40.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    let two = BigUint::from_u64(2);
    if n == &two {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.bits() <= 64 && n.low_u64() == p {
            return true;
        }
        if n.rem_u64(p) == 0 {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = loop {
            let a = BigUint::random_below(rng, &n_minus_1);
            if !a.is_zero() && !a.is_one() {
                break a;
            }
        };
        let mut x = a.modpow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = x.mulmod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
/// Panics if `bits < 8`.
pub fn generate_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    loop {
        let mut candidate = BigUint::random_exact_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        if is_probable_prime(&candidate, 20, rng) {
            return candidate;
        }
    }
}

/// Generates a "safe-enough" prime `p` such that `gcd(p-1, e) == 1`,
/// as required for an RSA factor with public exponent `e`.
pub fn generate_rsa_factor<R: Rng + ?Sized>(bits: usize, e: &BigUint, rng: &mut R) -> BigUint {
    loop {
        let p = generate_prime(bits, rng);
        if p.sub(&BigUint::one()).gcd(e).is_one() {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 211, 65537] {
            assert!(is_probable_prime(&BigUint::from_u64(p), 10, &mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 21, 91, 561, 41041, 825265] {
            // 561, 41041, 825265 are Carmichael numbers.
            assert!(!is_probable_prime(&BigUint::from_u64(c), 10, &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&p, 20, &mut rng()));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, 20, &mut rng()));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, 20, &mut r));
        }
    }

    #[test]
    fn rsa_factor_coprime_to_e() {
        let mut r = rng();
        let e = BigUint::from_u64(65537);
        let p = generate_rsa_factor(128, &e, &mut r);
        assert!(p.sub(&BigUint::one()).gcd(&e).is_one());
    }
}
