//! SHA-NI compression for [`Sha256`](super::Sha256) on x86-64.
//!
//! `sha256rnds2` runs two rounds on a state split across two registers,
//! `ABEF` and `CDGH`, and `sha256msg1`/`sha256msg2` extend the message
//! schedule four words at a time. The state is shuffled from FIPS order
//! into that split once at the start of a run of blocks and back once at
//! the end, which is why [`Sha256::update`](super::Sha256::update) hands
//! over every whole block of its input in one call.
//!
//! # Safety
//!
//! The `#[target_feature]` functions here may run only on a CPU with the
//! features they enable. They are reachable only through [`Ni`], a token
//! [`detect`] hands out on a CPU with the SHA extensions, SSE2, SSSE3
//! and SSE4.1, so its method is the one place that calls into them.

use super::{BLOCK_LEN, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_setr_epi8,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that this CPU has SHA-NI, SSE2, SSSE3 and SSE4.1: the only way
/// to run the kernel.
#[derive(Clone, Copy)]
pub(super) struct Ni(());

/// Returns the token if the CPU has every feature the kernel uses. std
/// caches the CPUID answer, so this is a few loads and tests per call.
#[inline]
pub(super) fn detect() -> Option<Ni> {
    (is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1"))
    .then_some(Ni(()))
}

impl Ni {
    /// Compresses a run of whole blocks into `state`.
    #[inline]
    pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // SAFETY: an `Ni` exists only where `detect` found SHA-NI, SSE2,
        // SSSE3 and SSE4.1.
        unsafe { compress_blocks(state, blocks) }
    }
}

/// Loads four big-endian message words into one register.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_be_words(bytes: &[u8; 16]) -> __m128i {
    let bswap32 = _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` needs no alignment.
    _mm_shuffle_epi8(unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }, bswap32)
}

/// Four new message-schedule words `W[t..t+4]` from the sixteen before
/// them, held four to a register (`w0` oldest).
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    // W[t-16] + σ0(W[t-15]), plus W[t-7], then σ1 of the two newest.
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// Four rounds: `w` holds `W[t..t+4]` and `k` the matching constants.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32; 4]) {
    // SAFETY: `k` is four `u32`s, 16 readable bytes, and `loadu` needs no
    // alignment.
    let wk = _mm_add_epi32(w, unsafe { _mm_loadu_si128(k.as_ptr().cast()) });
    // Two rounds on the low pair of W+K, two on the high pair. Each call
    // returns the new ABEF, and the old ABEF becomes the new CDGH.
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    let k: &[[u32; 4]; 16] = K.as_chunks().0.try_into().expect("64 round constants");
    let (dcba, hgfe) = state.as_chunks_mut::<4>().0.split_at_mut(1);
    // SAFETY: `dcba` and `hgfe` are four `u32`s each, 16 readable bytes,
    // and `loadu` needs no alignment.
    let (dcba_v, hgfe_v) = unsafe {
        (
            _mm_loadu_si128(dcba[0].as_ptr().cast()),
            _mm_loadu_si128(hgfe[0].as_ptr().cast()),
        )
    };
    let cdab = _mm_shuffle_epi32(dcba_v, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe_v, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let words = block.as_chunks::<16>().0;
        let [mut w0, mut w1, mut w2, mut w3] = [0, 1, 2, 3].map(|i| load_be_words(&words[i]));
        rounds4(&mut abef, &mut cdgh, w0, &k[0]);
        rounds4(&mut abef, &mut cdgh, w1, &k[1]);
        rounds4(&mut abef, &mut cdgh, w2, &k[2]);
        rounds4(&mut abef, &mut cdgh, w3, &k[3]);
        for k16 in k[4..].as_chunks::<4>().0 {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, &k16[0]);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, &k16[1]);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, &k16[2]);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, &k16[3]);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    // SAFETY: `dcba` and `hgfe` are four `u32`s each, 16 writable bytes,
    // and `storeu` needs no alignment.
    unsafe {
        _mm_storeu_si128(
            dcba[0].as_mut_ptr().cast(),
            _mm_blend_epi16(feba, dchg, 0xF0),
        );
        _mm_storeu_si128(hgfe[0].as_mut_ptr().cast(), _mm_alignr_epi8(dchg, feba, 8));
    }
}
