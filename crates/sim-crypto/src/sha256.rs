//! SHA-256 (FIPS 180-4).
//!
//! Used for HIT generation (ORCHID hashing), HIP puzzles, HMACs, signature
//! digests and the KEYMAT KDF. Implemented from the standard and pinned to
//! the FIPS test vectors below.
//!
//! Two compression functions sit behind [`Sha256`]: the SHA-NI kernel
//! (private `ni` module, x86-64 only), run whenever the CPU reports the
//! SHA extensions, and the portable scalar rounds everywhere else.
//! [`Sha256::update`] hands the compression every whole block of its
//! input in one call, so the SHA-NI state shuffle is paid once per run
//! rather than once per block. [`backend`] names the one in use; the
//! tests below pin both to the FIPS vectors and to each other.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

#[cfg(target_arch = "x86_64")]
mod ni;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0; BLOCK_LEN], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data`. Whole blocks are compressed directly from the
    /// input slice, as one run — no staging copy through the internal
    /// buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finalize_with(compress_blocks)
    }

    /// [`Self::update`] through the given compression function.
    #[inline]
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[[u8; BLOCK_LEN]])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Self::finalize`] through the given compression function. The
    /// padding — 0x80, zeros, the 64-bit big-endian bit length — is
    /// written in one step into the one or two blocks it ends.
    #[inline]
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[[u8; BLOCK_LEN]])) -> [u8; DIGEST_LEN] {
        let mut tail = [[0u8; BLOCK_LEN]; 2];
        let bytes = tail.as_flattened_mut();
        bytes[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        bytes[self.buf_len] = 0x80;
        let blocks = if self.buf_len < BLOCK_LEN - 8 { 1 } else { 2 };
        let end = blocks * BLOCK_LEN;
        bytes[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &tail[..blocks]);
        let mut out = [0u8; DIGEST_LEN];
        for (out, word) in out.chunks_exact_mut(4).zip(&self.state) {
            out.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses a run of whole blocks into `state`, on SHA-NI where the
/// CPU has it and with [`compress_scalar`] elsewhere.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::detect() {
        return ni.compress_blocks(state, blocks);
    }
    compress_scalar(state, blocks)
}

/// The SHA-256 implementation [`Sha256`] runs on this CPU: `"sha-ni"`
/// or `"scalar"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ni::detect().is_some() {
        return "sha-ni";
    }
    "scalar"
}

/// The portable compression function, FIPS 180-4 §6.2.2 one block at a
/// time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (w, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *w = u32::from_be_bytes(*word);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over several segments without concatenating them.
pub fn sha256_multi(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Compress = fn(&mut [u32; 8], &[[u8; BLOCK_LEN]]);

    /// Every compression function this CPU runs, by name. Without SHA-NI
    /// the hardware cases are skipped, with a note.
    fn backends() -> Vec<(&'static str, Compress)> {
        let mut all: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if ni::detect().is_some() {
            all.push(("sha-ni", |state, blocks| {
                ni::detect().expect("detected above").compress_blocks(state, blocks)
            }));
            return all;
        }
        eprintln!("note: this CPU has no SHA-NI; the hardware case is skipped");
        all
    }

    /// Hashes `parts`, one `update` each, through `compress`.
    fn digest_with(compress: Compress, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, compress);
        }
        h.finalize_with(compress)
    }

    /// FIPS 180-4 padding spelled out on a copy of the whole message,
    /// hashed by the scalar rounds: an oracle for the one-step padding.
    fn padded_oracle(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut m = data.to_vec();
        m.push(0x80);
        while m.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            m.push(0);
        }
        m.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_scalar(&mut state, m.as_chunks().0);
        let mut out = [0u8; DIGEST_LEN];
        for (out, word) in out.chunks_exact_mut(4).zip(&state) {
            out.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks a FIPS 180-4 vector through [`sha256`] and through every
    /// backend on its own.
    fn assert_vector(data: &[u8], expect: &str) {
        assert_eq!(hex(&sha256(data)), expect, "sha256()");
        for (name, compress) in backends() {
            assert_eq!(hex(&digest_with(compress, &[data])), expect, "{name}");
        }
    }

    #[test]
    fn fips_vector_empty() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn fips_vector_abc() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn multi_matches_concat() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_multi(&[a, b]), sha256(b"hello world"));
    }

    /// Message lengths where the padding changes shape: the length field
    /// just fits (55), spills into a second block (56), the 0x80 byte
    /// ends a block (63), whole blocks (64), and the same one block on.
    fn padding_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(55usize),
            Just(56usize),
            Just(63usize),
            Just(64usize),
            Just(119usize),
            Just(120usize),
            0usize..300,
        ]
    }

    proptest! {
        #[test]
        fn sha_ni_compression_matches_scalar(
            state in any::<[u8; 32]>(),
            data in proptest::collection::vec(any::<u8>(), 0..640),
        ) {
            let state: [u32; 8] = std::array::from_fn(|i| {
                u32::from_le_bytes(state[4 * i..4 * i + 4].try_into().expect("4 bytes"))
            });
            let blocks = data.as_chunks().0;
            let mut expect = state;
            compress_scalar(&mut expect, blocks);
            for (name, compress) in backends() {
                let mut got = state;
                compress(&mut got, blocks);
                prop_assert_eq!(got, expect, "{} on {} blocks", name, blocks.len());
            }
        }

        #[test]
        fn split_updates_match_oneshot(
            len in padding_len(),
            fill in proptest::collection::vec(any::<u8>(), 300),
            cuts in proptest::collection::vec(0usize..300, 0..4),
        ) {
            let data = &fill[..len];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                parts.push(&data[from..cut]);
                from = cut;
            }
            let expect = padded_oracle(data);
            prop_assert_eq!(sha256(data), expect, "one-shot, len {}", len);
            prop_assert_eq!(sha256_multi(&parts), expect, "split, len {}", len);
            for (name, compress) in backends() {
                prop_assert_eq!(digest_with(compress, &parts), expect, "{} split, len {}", name, len);
            }
        }
    }
}
