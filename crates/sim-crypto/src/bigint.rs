//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This is the numeric substrate for the RSA, Diffie-Hellman and ECDSA
//! implementations in this crate. Limbs are stored little-endian as `u64`
//! and every value is kept *normalized* (no most-significant zero limbs),
//! so equality and comparison are plain limb comparisons.
//!
//! Division uses Knuth's Algorithm D. Modular exponentiation with an odd
//! modulus (RSA, Diffie-Hellman, Miller–Rabin) works in the Montgomery
//! domain: CIOS multiplication into caller-owned `n`-limb buffers with one
//! reused `n + 2`-limb scratch, so no multiply allocates, driven by a
//! left-to-right sliding window over a table of odd powers whose width
//! grows with the exponent (plain square-and-multiply up to 24 bits, so
//! RSA verification with e = 65537 builds no table). Even moduli fall
//! back to square-and-multiply with explicit reduction.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero (no limbs).
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single machine word.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from big-endian bytes (the usual wire representation).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<char> = s.chars().collect();
        let mut idx = 0;
        if chars.len() % 2 == 1 {
            bytes.push(chars[0].to_digit(16)? as u8);
            idx = 1;
        }
        while idx < chars.len() {
            let hi = chars[idx].to_digit(16)? as u8;
            let lo = chars[idx + 1].to_digit(16)? as u8;
            bytes.push((hi << 4) | lo);
            idx += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Lower-case hexadecimal rendering without a prefix (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the lowest bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (counting from the least-significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// The low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    #[allow(clippy::needless_range_loop)] // parallel walk of two limb arrays
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; returns `None` if `other > self`.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        if self.cmp_mag(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// Subtraction that panics on underflow.
    pub fn sub(&self, other: &Self) -> Self {
        self.checked_sub(other).expect("BigUint subtraction underflow")
    }

    /// Magnitude comparison.
    pub fn cmp_mag(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication (O(n·m) with 128-bit partial products).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&l| l << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder (Knuth Algorithm D).
    ///
    /// # Panics
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_mag(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, Self::from_u64(r));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q_limbs = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top limbs.
            let num = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut qhat = num / u128::from(v_top);
            let mut rhat = num % u128::from(v_top);
            while qhat >= 1u128 << 64
                || qhat * u128::from(v_next) > (rhat << 64) + u128::from(un[j + n - 2])
            {
                qhat -= 1;
                rhat += u128::from(v_top);
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from the dividend window.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(un[j + i]) - i128::from(p as u64) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = i128::from(un[j + n]) - i128::from(carry as u64) + borrow;
            un[j + n] = sub as u64;

            let mut q_digit = qhat as u64;
            if sub < 0 {
                // Estimate was one too large: add the divisor back.
                q_digit -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = un[j + i].overflowing_add(vn[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    un[j + i] = s2;
                    carry = u64::from(c1) + u64::from(c2);
                }
                un[j + n] = un[j + n].wrapping_add(carry);
            }
            q_limbs[j] = q_digit;
        }

        let mut q = BigUint { limbs: q_limbs };
        q.normalize();
        let mut r = BigUint { limbs: un[..n].to_vec() };
        r.normalize();
        (q, r.shr(shift))
    }

    /// Division by a single limb.
    fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        let mut rem = 0u128;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | u128::from(self.limbs[i]);
            q[i] = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        let mut qn = BigUint { limbs: q };
        qn.normalize();
        (qn, rem as u64)
    }

    /// `self mod d` for a one-word divisor, without allocating.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "BigUint division by zero");
        let d = u128::from(d);
        self.limbs
            .iter()
            .rev()
            .fold(0u64, |r, &l| (((u128::from(r) << 64) | u128::from(l)) % d) as u64)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.div_rem(m).1
    }

    /// `self * other mod m`.
    pub fn mulmod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// `self ^ exp mod m`, using Montgomery multiplication when `m` is odd.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return Self::zero();
        }
        if exp.is_zero() {
            return Self::one();
        }
        if !m.is_even() {
            return MontgomeryCtx::new(m).modpow(&self.rem(m), exp);
        }
        // Fallback: left-to-right square and multiply with full reduction.
        let base = self.rem(m);
        let mut acc = Self::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mulmod(&acc, m);
            if exp.bit(i) {
                acc = acc.mulmod(&base, m);
            }
        }
        acc
    }

    /// Greatest common divisor (binary-free Euclid; division is fast here).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: `self^-1 mod m`, or `None` if not coprime.
    ///
    /// Extended Euclid tracking only the coefficient of `self`, with the
    /// sign carried separately so everything stays unsigned.
    pub fn modinv(&self, m: &Self) -> Option<Self> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Invariants: old_r = old_s * a (mod m), r = s * a (mod m),
        // with signs tracked in old_neg / neg.
        let (mut old_r, mut r) = (a, m.clone());
        let (mut old_s, mut s) = (Self::one(), Self::zero());
        let (mut old_neg, mut neg) = (false, false);
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // new_s = old_s - q * s  (signed)
            let qs = q.mul(&s);
            let (new_s, new_neg) = if old_neg == neg {
                match old_s.cmp_mag(&qs) {
                    Ordering::Less => (qs.sub(&old_s), !old_neg),
                    _ => (old_s.sub(&qs), old_neg),
                }
            } else {
                (old_s.add(&qs), old_neg)
            };
            old_s = std::mem::replace(&mut s, new_s);
            old_neg = std::mem::replace(&mut neg, new_neg);
        }
        if !old_r.is_one() {
            return None;
        }
        let inv = old_s.rem(m);
        Some(if old_neg && !inv.is_zero() { m.sub(&inv) } else { inv })
    }

    /// Uniform random value in `[0, bound)` (rejection sampling).
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::RngExt + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if candidate.cmp_mag(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random value with at most `bits` bits.
    pub fn random_bits<R: rand::RngExt + ?Sized>(rng: &mut R, bits: usize) -> Self {
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.random::<u64>());
        }
        let excess = limbs_needed * 64 - bits;
        if excess > 0 {
            if let Some(top) = limbs.last_mut() {
                *top &= u64::MAX >> excess;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Random value with *exactly* `bits` bits (top bit forced to 1).
    ///
    /// # Panics
    /// Panics if `bits` is zero.
    pub fn random_exact_bits<R: rand::RngExt + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0);
        let mut n = Self::random_bits(rng, bits);
        let limb = (bits - 1) / 64;
        let off = (bits - 1) % 64;
        while n.limbs.len() <= limb {
            n.limbs.push(0);
        }
        n.limbs[limb] |= 1 << off;
        n.normalize();
        n
    }
}

/// Precomputed context for Montgomery multiplication modulo an odd `m`.
///
/// Every Montgomery-form value is exactly `n = len(m)` limbs, so the
/// multiply loops index plain slices and never pad or reallocate.
struct MontgomeryCtx {
    m: Vec<u64>,
    /// -m^-1 mod 2^64
    m_inv: u64,
    /// R^2 mod m, where R = 2^(64 * n), padded to `n` limbs.
    r2: Vec<u64>,
}

/// Sliding-window width for an exponent of `exp_bits` bits. Short
/// exponents (RSA's e = 65537) stay plain square-and-multiply; longer
/// ones trade a `2^(w-1)`-entry table for fewer multiplies.
fn window_bits(exp_bits: usize) -> usize {
    match exp_bits {
        0..=24 => 1,
        25..=80 => 3,
        81..=240 => 4,
        _ => 5,
    }
}

impl MontgomeryCtx {
    fn new(m: &BigUint) -> Self {
        debug_assert!(!m.is_even() && !m.is_zero());
        // Newton iteration for the inverse of m[0] mod 2^64.
        let m0 = m.limbs[0];
        let mut inv = m0; // correct to 3 bits for odd m0
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let m_inv = inv.wrapping_neg();
        let n = m.limbs.len();
        // R^2 mod m computed by shifting.
        let mut r2 = BigUint::one().shl(2 * 64 * n).rem(m).limbs;
        r2.resize(n, 0);
        MontgomeryCtx { m: m.limbs.clone(), m_inv, r2 }
    }

    /// CIOS Montgomery multiplication: `out = a * b * R^-1 mod m`.
    ///
    /// `a`, `b` and `out` are exactly `n` limbs with `a, b < m`; `t` is
    /// caller-owned scratch of `n + 2` limbs, reused across calls.
    fn mont_mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let m = &self.m[..];
        let n = m.len();
        let (a, b, out, t) = (&a[..n], &b[..n], &mut out[..n], &mut t[..n + 2]);
        t.fill(0);
        for &ai in a {
            // t += a_i * b
            let mut carry = 0u64;
            for (tj, &bj) in t[..n].iter_mut().zip(b) {
                let cur = u128::from(*tj) + u128::from(ai) * u128::from(bj) + u128::from(carry);
                *tj = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = u128::from(t[n]) + u128::from(carry);
            t[n] = cur as u64;
            t[n + 1] = (cur >> 64) as u64;
            // t = (t + u * m) / 2^64, with u chosen to clear the low limb.
            let u = t[0].wrapping_mul(self.m_inv);
            let mut carry = ((u128::from(t[0]) + u128::from(u) * u128::from(m[0])) >> 64) as u64;
            for j in 1..n {
                let cur = u128::from(t[j]) + u128::from(u) * u128::from(m[j]) + u128::from(carry);
                t[j - 1] = cur as u64;
                carry = (cur >> 64) as u64;
            }
            let cur = u128::from(t[n]) + u128::from(carry);
            t[n - 1] = cur as u64;
            t[n] = t[n + 1] + (cur >> 64) as u64;
        }
        // Conditional final subtraction of m; t < 2m, so once suffices.
        let ge = t[n] != 0 || t[..n].iter().rev().cmp(m.iter().rev()) != Ordering::Less;
        if ge {
            let mut borrow = false;
            for ((o, &tj), &mj) in out.iter_mut().zip(&t[..n]).zip(m) {
                let (d1, b1) = tj.overflowing_sub(mj);
                let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
                *o = d2;
                borrow = b1 || b2;
            }
        } else {
            out.copy_from_slice(&t[..n]);
        }
    }

    /// `base ^ exp mod m` for `base < m` and `exp > 0`, by left-to-right
    /// sliding-window exponentiation over a table of odd powers.
    fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        debug_assert!(!exp.is_zero());
        let n = self.m.len();
        let bits = exp.bits();
        let w = window_bits(bits);
        let mut t = vec![0u64; n + 2];
        let mut acc = vec![0u64; n];
        let mut tmp = vec![0u64; n];
        // table[k] = base^(2k+1) in the Montgomery domain.
        let mut table = vec![0u64; n << (w - 1)];
        acc[..base.limbs.len()].copy_from_slice(&base.limbs);
        self.mont_mul_into(&acc, &self.r2, &mut table[..n], &mut t);
        if w > 1 {
            // tmp = base^2; each entry is the previous one times base^2.
            self.mont_mul_into(&table[..n], &table[..n], &mut tmp, &mut t);
            for k in 1..1 << (w - 1) {
                let (prev, next) = table.split_at_mut(k * n);
                self.mont_mul_into(&prev[(k - 1) * n..], &tmp, &mut next[..n], &mut t);
            }
        }
        // Scan from the top bit (always set, so the first window seeds
        // acc directly). A window spans at most w bits and ends in a 1.
        let mut top = bits;
        let mut seeded = false;
        while top > 0 {
            if !exp.bit(top - 1) {
                self.mont_mul_into(&acc, &acc, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
                top -= 1;
                continue;
            }
            let mut low = top.saturating_sub(w);
            while !exp.bit(low) {
                low += 1;
            }
            let odd = (low..top).rev().fold(0usize, |v, i| (v << 1) | usize::from(exp.bit(i)));
            let entry = &table[(odd >> 1) * n..][..n];
            if seeded {
                for _ in low..top {
                    self.mont_mul_into(&acc, &acc, &mut tmp, &mut t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                self.mont_mul_into(&acc, entry, &mut tmp, &mut t);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.copy_from_slice(entry);
                seeded = true;
            }
            top = low;
        }
        // Convert out of the Montgomery domain: acc * 1 * R^-1.
        tmp.fill(0);
        tmp[0] = 1;
        let mut out = vec![0u64; n];
        self.mont_mul_into(&acc, &tmp, &mut out, &mut t);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x51a3)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        // Leading zeros are dropped.
        let n2 = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(n2.to_bytes_be(), vec![0xff]);
        assert_eq!(n2.to_bytes_be_padded(4), vec![0, 0, 0, 0xff]);
    }

    #[test]
    fn hex_round_trip() {
        let n = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(n.to_hex(), "deadbeefcafebabe0123456789abcdef");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn add_sub_inverse() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_u64(1);
        let sum = a.add(&b);
        assert_eq!(sum.to_hex(), "100000000000000000000000000000000");
        assert_eq!(sum.sub(&b), a);
        assert!(a.checked_sub(&sum).is_none());
    }

    #[test]
    fn mul_known_value() {
        let a = BigUint::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn div_rem_exact_and_remainder() {
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let b = BigUint::from_hex("fedcba9876543210").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_mag(&b) == Ordering::Less);
    }

    #[test]
    fn div_rem_randomized() {
        let mut rng = rng();
        for _ in 0..200 {
            let a_bits = 1 + rng.random_range(0..512usize);
            let b_bits = 1 + rng.random_range(0..256usize);
            let a = BigUint::random_bits(&mut rng, a_bits);
            let b = BigUint::random_exact_bits(&mut rng, b_bits);
            let (q, r) = a.div_rem(&b);
            assert_eq!(q.mul(&b).add(&r), a, "a={a} b={b}");
            assert!(r.cmp_mag(&b) == Ordering::Less);
        }
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_hex("1234").unwrap();
        assert_eq!(a.shl(8).to_hex(), "123400");
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shr(16), BigUint::zero().add(&BigUint::from_u64(0)));
        assert_eq!(a.shl(100).shr(100), a);
    }

    #[test]
    fn modpow_small_known() {
        // 3^7 mod 10 = 2187 mod 10 = 7
        let r = BigUint::from_u64(3).modpow(&BigUint::from_u64(7), &BigUint::from_u64(10));
        assert_eq!(r, BigUint::from_u64(7));
        // even modulus path: 5^3 mod 8 = 125 mod 8 = 5
        let r = BigUint::from_u64(5).modpow(&BigUint::from_u64(3), &BigUint::from_u64(8));
        assert_eq!(r, BigUint::from_u64(5));
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 mod p for prime p.
        let p = BigUint::from_hex("ffffffffffffffc5").unwrap(); // a 64-bit prime
        let mut rng = rng();
        for _ in 0..10 {
            let a = BigUint::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            let e = p.sub(&BigUint::one());
            assert!(a.modpow(&e, &p).is_one());
        }
    }

    #[test]
    fn modpow_matches_naive() {
        let mut rng = rng();
        for _ in 0..30 {
            let m = BigUint::random_exact_bits(&mut rng, 128);
            let m = if m.is_even() { m.add(&BigUint::one()) } else { m };
            let b = BigUint::random_below(&mut rng, &m);
            let e = BigUint::from_u64(rng.random_range(0..50));
            // naive repeated multiply
            let mut expect = BigUint::one();
            for _ in 0..e.low_u64() {
                expect = expect.mulmod(&b, &m);
            }
            assert_eq!(b.modpow(&e, &m), expect);
        }
    }

    /// Left-to-right square-and-multiply over `mulmod`: the slow oracle
    /// for the windowed Montgomery path.
    fn naive_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut acc = BigUint::one().rem(m);
        for i in (0..exp.bits()).rev() {
            acc = acc.mulmod(&acc, m);
            if exp.bit(i) {
                acc = acc.mulmod(base, m);
            }
        }
        acc
    }

    #[test]
    fn window_widths_at_thresholds() {
        let widths = [(1, 1), (24, 1), (25, 3), (80, 3), (81, 4), (240, 4), (241, 5), (600, 5)];
        for (bits, w) in widths {
            assert_eq!(window_bits(bits), w, "{bits}-bit exponent");
        }
    }

    #[test]
    fn modpow_matches_naive_at_window_thresholds() {
        let mut rng = rng();
        let all_ones = BigUint::one().shl(256).sub(&BigUint::one());
        let one = BigUint::one();
        let odd = BigUint::random_exact_bits(&mut rng, 320);
        let odd = if odd.is_even() { odd.add(&one) } else { odd };
        let even = odd.add(&one);
        for m in [&all_ones, &odd, &even] {
            let base = BigUint::random_below(&mut rng, m);
            for k in [23usize, 24, 25, 79, 80, 81, 239, 240, 241] {
                let pow2 = one.shl(k);
                for e in [pow2.clone(), pow2.sub(&one)] {
                    assert_eq!(base.modpow(&e, m), naive_modpow(&base, &e, m), "m={m} e=2^{k}±");
                    // m - 1 puts every limb at its largest residue.
                    let top = m.sub(&one);
                    assert_eq!(top.modpow(&e, m), naive_modpow(&top, &e, m), "m={m} e=2^{k}±");
                }
            }
        }
    }

    #[test]
    fn rem_u64_matches_div_rem() {
        let mut rng = rng();
        for _ in 0..100 {
            let bits = rng.random_range(0..300usize);
            let a = BigUint::random_bits(&mut rng, bits);
            let d = rng.random_range(1..u64::MAX);
            assert_eq!(BigUint::from_u64(a.rem_u64(d)), a.rem(&BigUint::from_u64(d)));
        }
        assert_eq!(BigUint::zero().rem_u64(7), 0);
        assert_eq!(BigUint::from_u64(u64::MAX).rem_u64(u64::MAX), 0);
    }

    #[test]
    fn modinv_basics() {
        let m = BigUint::from_u64(17);
        for a in 1..17u64 {
            let a = BigUint::from_u64(a);
            let inv = a.modinv(&m).unwrap();
            assert!(a.mulmod(&inv, &m).is_one());
        }
        // Not coprime
        assert!(BigUint::from_u64(6).modinv(&BigUint::from_u64(9)).is_none());
        assert!(BigUint::zero().modinv(&m).is_none());
    }

    #[test]
    fn modinv_randomized() {
        let mut rng = rng();
        let p = BigUint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .unwrap(); // P-256 prime
        for _ in 0..50 {
            let a = BigUint::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            let inv = a.modinv(&p).unwrap();
            assert!(a.mulmod(&inv, &p).is_one());
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            BigUint::from_u64(48).gcd(&BigUint::from_u64(18)),
            BigUint::from_u64(6)
        );
        assert_eq!(BigUint::from_u64(7).gcd(&BigUint::from_u64(13)), BigUint::one());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp_mag(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn random_exact_bits_has_top_bit() {
        let mut rng = rng();
        for bits in [1usize, 7, 64, 65, 100, 256] {
            let v = BigUint::random_exact_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits);
        }
    }

    #[test]
    fn bit_accessors() {
        let v = BigUint::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(200));
    }
}
