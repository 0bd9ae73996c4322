//! AES-NI kernels for [`Aes128`] on x86-64.
//!
//! The kernels use the key schedule [`Aes128::new`] already built, so
//! the key carries no extra copy for them: `aesenc` takes the round
//! keys `rk`, and `aesdec` the InvMixColumns-folded `dk` of the
//! equivalent inverse cipher. Both are stored as big-endian column
//! words for the T-table rounds, so each round key is byte-swapped
//! (`pshufb`) into FIPS 197 byte order, the register's, as it is loaded.
//!
//! CBC encryption is serial: every block waits for the one before it.
//! CBC decryption is not, so it runs [`LANES`] independent blocks per
//! iteration to keep the AES unit's pipeline full.
//!
//! # Safety
//!
//! The `#[target_feature]` functions here may run only on a CPU with the
//! features they enable. They are reachable only through [`Ni`], a token
//! [`detect`] hands out on a CPU with AES-NI and SSSE3, so its methods
//! are the one place that calls into them.

use super::{pkcs7_pad, pkcs7_unpad, Aes128, BLOCK_LEN};
use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_loadu_si128, _mm_setr_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Blocks in flight per iteration of CBC decryption.
const LANES: usize = 4;

/// The eleven round keys, loaded into registers once per call.
type Keys = [__m128i; 11];

/// Proof that this CPU has AES-NI and SSSE3: the only way to run the
/// kernels.
#[derive(Clone, Copy)]
pub(super) struct Ni(());

/// Returns the token if the CPU has AES-NI and SSSE3 (`pshufb`, which
/// byte-swaps the round keys). std caches the CPUID answer,
/// so this is a load and a test per call.
#[inline]
pub(super) fn detect() -> Option<Ni> {
    (is_x86_feature_detected!("aes") && is_x86_feature_detected!("ssse3")).then_some(Ni(()))
}

impl Ni {
    /// AES-NI [`Aes128::encrypt_block`].
    #[inline]
    pub(super) fn encrypt_block(self, aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        // SAFETY: an `Ni` exists only where `detect` found AES-NI and SSSE3.
        unsafe { encrypt_block(aes, block) }
    }

    /// AES-NI [`Aes128::decrypt_block`].
    #[inline]
    pub(super) fn decrypt_block(self, aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        // SAFETY: an `Ni` exists only where `detect` found AES-NI and SSSE3.
        unsafe { decrypt_block(aes, block) }
    }

    /// AES-NI [`Aes128::cbc_encrypt_into`].
    #[inline]
    pub(super) fn cbc_encrypt_into(
        self,
        aes: &Aes128,
        iv: &[u8; BLOCK_LEN],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        // SAFETY: an `Ni` exists only where `detect` found AES-NI and SSSE3.
        unsafe { cbc_encrypt_into(aes, iv, plaintext, out) }
    }

    /// AES-NI [`Aes128::cbc_decrypt_into`].
    #[inline]
    pub(super) fn cbc_decrypt_into(
        self,
        aes: &Aes128,
        iv: &[u8; BLOCK_LEN],
        ciphertext: &[u8],
        out: &mut Vec<u8>,
    ) -> bool {
        // SAFETY: an `Ni` exists only where `detect` found AES-NI and SSSE3.
        unsafe { cbc_decrypt_into(aes, iv, ciphertext, out) }
    }
}

#[inline]
fn load(bytes: &[u8; BLOCK_LEN]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

#[inline]
fn store(bytes: &mut [u8; BLOCK_LEN], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes, and `storeu` needs no alignment.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// Loads an 11-round schedule of big-endian column words in FIPS 197
/// byte order.
#[inline]
#[target_feature(enable = "ssse3")]
fn load_keys(schedule: &[[u32; 4]; 11]) -> Keys {
    // Reverses the bytes of each 32-bit lane.
    let bswap32 = _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
    let mut k = [_mm_setzero_si128(); 11];
    for (k, words) in k.iter_mut().zip(schedule) {
        // SAFETY: `words` is four `u32`s, 16 readable bytes, and `loadu`
        // needs no alignment.
        *k = _mm_shuffle_epi8(unsafe { _mm_loadu_si128(words.as_ptr().cast()) }, bswap32);
    }
    k
}

/// Encrypts one block.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt(k: &Keys, mut s: __m128i) -> __m128i {
    s = _mm_xor_si128(s, k[0]);
    for rk in &k[1..10] {
        s = _mm_aesenc_si128(s, *rk);
    }
    _mm_aesenclast_si128(s, k[10])
}

/// Decrypts `N` independent blocks, interleaved round by round.
#[inline]
#[target_feature(enable = "aes")]
fn decrypt<const N: usize>(k: &Keys, mut s: [__m128i; N]) -> [__m128i; N] {
    for s in &mut s {
        *s = _mm_xor_si128(*s, k[0]);
    }
    for dk in &k[1..10] {
        for s in &mut s {
            *s = _mm_aesdec_si128(*s, *dk);
        }
    }
    for s in &mut s {
        *s = _mm_aesdeclast_si128(*s, k[10]);
    }
    s
}

#[target_feature(enable = "aes,ssse3")]
fn encrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
    let k = load_keys(&aes.rk);
    store(block, encrypt(&k, load(block)));
}

#[target_feature(enable = "aes,ssse3")]
fn decrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
    let k = load_keys(&aes.dk);
    store(block, decrypt(&k, [load(block)])[0]);
}

#[target_feature(enable = "aes,ssse3")]
fn cbc_encrypt_into(aes: &Aes128, iv: &[u8; BLOCK_LEN], plaintext: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    pkcs7_pad(plaintext, out);
    let k = load_keys(&aes.rk);
    let mut prev = load(iv);
    for block in out[start..].as_chunks_mut().0 {
        prev = encrypt(&k, _mm_xor_si128(load(block), prev));
        store(block, prev);
    }
}

#[target_feature(enable = "aes,ssse3")]
fn cbc_decrypt_into(
    aes: &Aes128,
    iv: &[u8; BLOCK_LEN],
    ciphertext: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
        return false;
    }
    let start = out.len();
    out.extend_from_slice(ciphertext);
    let k = load_keys(&aes.dk);
    let mut prev = load(iv);
    let (runs, rest) = out[start..].as_chunks_mut().0.as_chunks_mut::<LANES>();
    for run in runs {
        let c = run.each_ref().map(load);
        let p = decrypt(&k, c);
        for ((block, p), c) in run.iter_mut().zip(p).zip(c) {
            store(block, _mm_xor_si128(p, prev));
            prev = c;
        }
    }
    for block in rest {
        let c = load(block);
        store(block, _mm_xor_si128(decrypt(&k, [c])[0], prev));
        prev = c;
    }
    pkcs7_unpad(out, start)
}
