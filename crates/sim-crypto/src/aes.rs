//! AES-128 (FIPS 197) in CBC mode.
//!
//! This is the symmetric cipher for the HIP ESP-BEET data plane and the
//! TLS record layer. Three implementations live here:
//!
//! - The **AES-NI kernels** (private `ni` module, x86-64 only): one
//!   `aesenc`/`aesdec` per round, CBC decryption pipelined four blocks
//!   per iteration. [`Aes128`]'s methods run them whenever the
//!   CPU reports AES-NI and SSSE3 at runtime.
//! - The **portable T-table path** ([`portable`]): four 256×u32
//!   encryption tables and their inverses, built once via `OnceLock`
//!   *from the S-box itself* (so a table bug cannot silently diverge
//!   from the byte-wise math — both derive from the same constants),
//!   fuse SubBytes/ShiftRows/MixColumns into one lookup-XOR round over
//!   four column words. CBC encryption folds the prev-block XOR into the
//!   first AddRoundKey.
//!   [`Aes128`]'s methods fall back to it on CPUs without AES-NI.
//! - The **byte-wise reference** ([`reference`](mod@reference)): the
//!   original straightforward separate-pass implementation as free
//!   functions mirroring every entry point (`encrypt_block`, `decrypt_block`,
//!   `cbc_encrypt_into`, `cbc_decrypt_into`). It is only an oracle:
//!   proptests pin both other paths to it byte for byte, and `perf_gates`
//!   times it as the baseline. Nothing at runtime calls it.
//!
//! All three share one key schedule and are pinned to the FIPS 197 /
//! SP 800-38A CBC vectors below. Nothing selects a backend but the CPU:
//! [`backend`] names the one in use.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod ni;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, generated once at first use.
fn inv_sbox() -> &'static [u8; 256] {
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// The fused encryption/decryption lookup tables.
///
/// `te[k][x]` is the MixColumns-weighted contribution of S-box output
/// `SBOX[x]` when it lands in byte position `k` of a column;
/// `td[k][x]` is the same for the inverse cipher (InvSBox +
/// InvMixColumns). One round becomes four lookups + XORs per column.
struct Tables {
    te: [[u32; 256]; 4],
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let isb = inv_sbox();
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            // Forward: MixColumns matrix column (02, 01, 01, 03) applied
            // to the S-box output, then rotated for byte positions 1..3.
            let s = SBOX[x];
            let s2 = xtime(s);
            let s3 = s2 ^ s;
            te[0][x] = u32::from_be_bytes([s2, s, s, s3]);
            te[1][x] = te[0][x].rotate_right(8);
            te[2][x] = te[0][x].rotate_right(16);
            te[3][x] = te[0][x].rotate_right(24);
            // Inverse: InvMixColumns column (0e, 09, 0d, 0b) applied to
            // the inverse S-box output.
            let v = isb[x];
            td[0][x] = u32::from_be_bytes([gmul(v, 14), gmul(v, 9), gmul(v, 13), gmul(v, 11)]);
            td[1][x] = td[0][x].rotate_right(8);
            td[2][x] = td[0][x].rotate_right(16);
            td[3][x] = td[0][x].rotate_right(24);
        }
        Tables { te, td }
    })
}

/// Applies InvMixColumns to one big-endian column word (used to derive
/// the equivalent-inverse-cipher round keys).
fn inv_mix_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        gmul(a, 14) ^ gmul(b, 11) ^ gmul(c, 13) ^ gmul(d, 9),
        gmul(a, 9) ^ gmul(b, 14) ^ gmul(c, 11) ^ gmul(d, 13),
        gmul(a, 13) ^ gmul(b, 9) ^ gmul(c, 14) ^ gmul(d, 11),
        gmul(a, 11) ^ gmul(b, 13) ^ gmul(c, 9) ^ gmul(d, 14),
    ])
}

#[inline]
fn load_words(block: &[u8]) -> [u32; 4] {
    [
        u32::from_be_bytes(block[0..4].try_into().expect("4 bytes")),
        u32::from_be_bytes(block[4..8].try_into().expect("4 bytes")),
        u32::from_be_bytes(block[8..12].try_into().expect("4 bytes")),
        u32::from_be_bytes(block[12..16].try_into().expect("4 bytes")),
    ]
}

#[inline]
fn store_words(w: [u32; 4], block: &mut [u8]) {
    block[0..4].copy_from_slice(&w[0].to_be_bytes());
    block[4..8].copy_from_slice(&w[1].to_be_bytes());
    block[8..12].copy_from_slice(&w[2].to_be_bytes());
    block[12..16].copy_from_slice(&w[3].to_be_bytes());
}

/// An expanded AES-128 key: the round keys as big-endian column words
/// and the InvMixColumns-folded decryption round keys (equivalent
/// inverse cipher), both in the form the T-table rounds use. The AES-NI
/// kernels and the byte-wise [`reference`](mod@reference) derive the
/// byte order they need as they load a round key, so the key holds no
/// third copy.
#[derive(Clone)]
pub struct Aes128 {
    rk: [[u32; 4]; 11],
    dk: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expands a 16-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut rk = [[0u32; 4]; 11];
        for (words, bytes) in rk.as_flattened_mut().iter_mut().zip(&w) {
            *words = u32::from_be_bytes(*bytes);
        }
        // Equivalent inverse cipher: decryption round keys are the
        // encryption keys in reverse order, with InvMixColumns applied
        // to all but the first and last.
        let mut dk = [[0u32; 4]; 11];
        dk[0] = rk[10];
        dk[10] = rk[0];
        for r in 1..10 {
            for c in 0..4 {
                dk[r][c] = inv_mix_word(rk[10 - r][c]);
            }
        }
        Aes128 { rk, dk }
    }

    /// One fused table round per call site: 9 main rounds + the S-box
    /// final round. `s` must already have round key 0 absorbed.
    #[inline]
    fn encrypt_words(&self, t: &Tables, mut s: [u32; 4]) -> [u32; 4] {
        for r in 1..10 {
            let rk = &self.rk[r];
            s = [
                t.te[0][(s[0] >> 24) as usize]
                    ^ t.te[1][((s[1] >> 16) & 0xff) as usize]
                    ^ t.te[2][((s[2] >> 8) & 0xff) as usize]
                    ^ t.te[3][(s[3] & 0xff) as usize]
                    ^ rk[0],
                t.te[0][(s[1] >> 24) as usize]
                    ^ t.te[1][((s[2] >> 16) & 0xff) as usize]
                    ^ t.te[2][((s[3] >> 8) & 0xff) as usize]
                    ^ t.te[3][(s[0] & 0xff) as usize]
                    ^ rk[1],
                t.te[0][(s[2] >> 24) as usize]
                    ^ t.te[1][((s[3] >> 16) & 0xff) as usize]
                    ^ t.te[2][((s[0] >> 8) & 0xff) as usize]
                    ^ t.te[3][(s[1] & 0xff) as usize]
                    ^ rk[2],
                t.te[0][(s[3] >> 24) as usize]
                    ^ t.te[1][((s[0] >> 16) & 0xff) as usize]
                    ^ t.te[2][((s[1] >> 8) & 0xff) as usize]
                    ^ t.te[3][(s[2] & 0xff) as usize]
                    ^ rk[3],
            ];
        }
        let rk = &self.rk[10];
        let sub = |s: &[u32; 4], a: usize, b: usize, c: usize, d: usize| -> u32 {
            (u32::from(SBOX[(s[a] >> 24) as usize]) << 24)
                | (u32::from(SBOX[((s[b] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(SBOX[((s[c] >> 8) & 0xff) as usize]) << 8)
                | u32::from(SBOX[(s[d] & 0xff) as usize])
        };
        [
            sub(&s, 0, 1, 2, 3) ^ rk[0],
            sub(&s, 1, 2, 3, 0) ^ rk[1],
            sub(&s, 2, 3, 0, 1) ^ rk[2],
            sub(&s, 3, 0, 1, 2) ^ rk[3],
        ]
    }

    /// Inverse of [`Self::encrypt_words`]; `s` must already have
    /// decryption round key 0 (= encryption key 10) absorbed.
    #[inline]
    fn decrypt_words(&self, t: &Tables, mut s: [u32; 4]) -> [u32; 4] {
        for r in 1..10 {
            let dk = &self.dk[r];
            s = [
                t.td[0][(s[0] >> 24) as usize]
                    ^ t.td[1][((s[3] >> 16) & 0xff) as usize]
                    ^ t.td[2][((s[2] >> 8) & 0xff) as usize]
                    ^ t.td[3][(s[1] & 0xff) as usize]
                    ^ dk[0],
                t.td[0][(s[1] >> 24) as usize]
                    ^ t.td[1][((s[0] >> 16) & 0xff) as usize]
                    ^ t.td[2][((s[3] >> 8) & 0xff) as usize]
                    ^ t.td[3][(s[2] & 0xff) as usize]
                    ^ dk[1],
                t.td[0][(s[2] >> 24) as usize]
                    ^ t.td[1][((s[1] >> 16) & 0xff) as usize]
                    ^ t.td[2][((s[0] >> 8) & 0xff) as usize]
                    ^ t.td[3][(s[3] & 0xff) as usize]
                    ^ dk[2],
                t.td[0][(s[3] >> 24) as usize]
                    ^ t.td[1][((s[2] >> 16) & 0xff) as usize]
                    ^ t.td[2][((s[1] >> 8) & 0xff) as usize]
                    ^ t.td[3][(s[0] & 0xff) as usize]
                    ^ dk[3],
            ];
        }
        let dk = &self.dk[10];
        let isb = inv_sbox();
        let sub = |s: &[u32; 4], a: usize, b: usize, c: usize, d: usize| -> u32 {
            (u32::from(isb[(s[a] >> 24) as usize]) << 24)
                | (u32::from(isb[((s[b] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(isb[((s[c] >> 8) & 0xff) as usize]) << 8)
                | u32::from(isb[(s[d] & 0xff) as usize])
        };
        [
            sub(&s, 0, 3, 2, 1) ^ dk[0],
            sub(&s, 1, 0, 3, 2) ^ dk[1],
            sub(&s, 2, 1, 0, 3) ^ dk[2],
            sub(&s, 3, 2, 1, 0) ^ dk[3],
        ]
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::detect() {
            return ni.encrypt_block(self, block);
        }
        portable::encrypt_block(self, block)
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::detect() {
            return ni.decrypt_block(self, block);
        }
        portable::decrypt_block(self, block)
    }

    /// CBC ciphertext length for a plaintext of `plain_len` bytes under
    /// the PKCS#7 padding [`Self::cbc_encrypt`] applies (pad is always
    /// 1..=16 bytes, so an exact multiple grows by one block). Lets
    /// batched callers account per-frame wire bytes analytically without
    /// running the cipher per frame.
    pub const fn cbc_padded_len(plain_len: usize) -> usize {
        plain_len + (BLOCK_LEN - plain_len % BLOCK_LEN)
    }

    /// CBC encryption with PKCS#7 padding. Output is a multiple of 16 bytes
    /// and always at least one block longer than an exact-multiple input.
    pub fn cbc_encrypt(&self, iv: &[u8; BLOCK_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.cbc_encrypt_into(iv, plaintext, &mut out);
        out
    }

    /// Like [`Self::cbc_encrypt`], but *appends* the ciphertext to `out`
    /// (which is not cleared), so callers can pool one buffer per
    /// association or prepend a header before the ciphertext.
    pub fn cbc_encrypt_into(&self, iv: &[u8; BLOCK_LEN], plaintext: &[u8], out: &mut Vec<u8>) {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::detect() {
            return ni.cbc_encrypt_into(self, iv, plaintext, out);
        }
        portable::cbc_encrypt_into(self, iv, plaintext, out)
    }

    /// CBC decryption undoing PKCS#7 padding. Returns `None` on malformed
    /// input (length not a block multiple, or invalid padding).
    pub fn cbc_decrypt(&self, iv: &[u8; BLOCK_LEN], ciphertext: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        if self.cbc_decrypt_into(iv, ciphertext, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Like [`Self::cbc_decrypt`], but *appends* the plaintext to `out`.
    /// Returns false (leaving `out` as it was) on malformed input.
    pub fn cbc_decrypt_into(&self, iv: &[u8; BLOCK_LEN], ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = ni::detect() {
            return ni.cbc_decrypt_into(self, iv, ciphertext, out);
        }
        portable::cbc_decrypt_into(self, iv, ciphertext, out)
    }
}

/// The AES implementation [`Aes128`]'s methods run on this CPU:
/// `"aes-ni"` or `"t-table"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ni::detect().is_some() {
        return "aes-ni";
    }
    "t-table"
}

/// Appends `plaintext` and its PKCS#7 padding (always 1..=16 bytes).
fn pkcs7_pad(plaintext: &[u8], out: &mut Vec<u8>) {
    let pad = BLOCK_LEN - plaintext.len() % BLOCK_LEN;
    out.reserve(plaintext.len() + pad);
    out.extend_from_slice(plaintext);
    out.extend(std::iter::repeat_n(pad as u8, pad));
}

/// Strips the PKCS#7 padding of the plaintext at `out[start..]`. On
/// invalid padding, truncates `out` back to `start` and returns false.
fn pkcs7_unpad(out: &mut Vec<u8>, start: usize) -> bool {
    let pad = out[out.len() - 1] as usize;
    if pad == 0 || pad > BLOCK_LEN || pad > out.len() - start
        || !out[out.len() - pad..].iter().all(|&b| b == pad as u8)
    {
        out.truncate(start);
        return false;
    }
    out.truncate(out.len() - pad);
    true
}

pub mod portable {
    //! The T-table path: runs on every CPU, and is what [`Aes128`]'s
    //! methods use where AES-NI is missing. Each function has the
    //! signature of the [`Aes128`] method it mirrors (with the key as
    //! first argument), so the criterion benches and the tests can run
    //! it on a CPU that has AES-NI too.

    use super::{load_words, pkcs7_pad, pkcs7_unpad, store_words, tables, Aes128, BLOCK_LEN};

    /// T-table [`Aes128::encrypt_block`].
    pub fn encrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        let t = tables();
        let mut s = load_words(block);
        for (w, k) in s.iter_mut().zip(&aes.rk[0]) {
            *w ^= k;
        }
        store_words(aes.encrypt_words(t, s), block);
    }

    /// T-table [`Aes128::decrypt_block`].
    pub fn decrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        let t = tables();
        let mut s = load_words(block);
        for (w, k) in s.iter_mut().zip(&aes.dk[0]) {
            *w ^= k;
        }
        store_words(aes.decrypt_words(t, s), block);
    }

    /// T-table [`Aes128::cbc_encrypt_into`].
    pub fn cbc_encrypt_into(aes: &Aes128, iv: &[u8; BLOCK_LEN], plaintext: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        pkcs7_pad(plaintext, out);
        let t = tables();
        let rk0 = aes.rk[0];
        // The chaining XOR and round key 0 are folded into one pass.
        let mut prev = load_words(iv);
        for chunk in out[start..].chunks_mut(BLOCK_LEN) {
            let mut s = load_words(chunk);
            for i in 0..4 {
                s[i] ^= prev[i] ^ rk0[i];
            }
            prev = aes.encrypt_words(t, s);
            store_words(prev, chunk);
        }
    }

    /// T-table [`Aes128::cbc_decrypt_into`].
    pub fn cbc_decrypt_into(aes: &Aes128, iv: &[u8; BLOCK_LEN], ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
            return false;
        }
        let start = out.len();
        out.extend_from_slice(ciphertext);
        let t = tables();
        let dk0 = aes.dk[0];
        let mut prev = load_words(iv);
        for chunk in out[start..].chunks_mut(BLOCK_LEN) {
            let saved = load_words(chunk);
            let mut s = saved;
            for i in 0..4 {
                s[i] ^= dk0[i];
            }
            let mut p = aes.decrypt_words(t, s);
            for i in 0..4 {
                p[i] ^= prev[i];
            }
            store_words(p, chunk);
            prev = saved;
        }
        pkcs7_unpad(out, start)
    }
}

pub mod reference {
    //! The original byte-oriented AES implementation: separate SubBytes/
    //! ShiftRows/MixColumns/AddRoundKey passes, exactly as in FIPS 197's
    //! pseudocode, and CBC as plain loops over single blocks. Slower
    //! but obviously correct; each function has the signature of the
    //! [`Aes128`] method it mirrors (with the key as first argument), and
    //! proptests prove the AES-NI and T-table paths equivalent to it on
    //! random keys, IVs and lengths.

    use super::{
        inv_sbox, gmul, pkcs7_pad, pkcs7_unpad, store_words, xtime, Aes128, BLOCK_LEN, SBOX,
    };

    /// Byte-wise [`Aes128::cbc_encrypt_into`].
    pub fn cbc_encrypt_into(aes: &Aes128, iv: &[u8; BLOCK_LEN], plaintext: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        pkcs7_pad(plaintext, out);
        let mut prev = *iv;
        for chunk in out[start..].chunks_mut(BLOCK_LEN) {
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().expect("block");
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            encrypt_block(aes, block);
            prev = *block;
        }
    }

    /// Byte-wise [`Aes128::cbc_decrypt_into`].
    pub fn cbc_decrypt_into(aes: &Aes128, iv: &[u8; BLOCK_LEN], ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
            return false;
        }
        let start = out.len();
        out.extend_from_slice(ciphertext);
        let mut prev = *iv;
        for chunk in out[start..].chunks_mut(BLOCK_LEN) {
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().expect("block");
            let saved = *block;
            decrypt_block(aes, block);
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            prev = saved;
        }
        pkcs7_unpad(out, start)
    }

    /// Encrypts one block with the byte-wise reference rounds.
    pub fn encrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, aes, 0);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, aes, round);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, aes, 10);
    }

    /// Decrypts one block with the byte-wise reference rounds.
    pub fn decrypt_block(aes: &Aes128, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, aes, 10);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..10).rev() {
            add_round_key(block, aes, round);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, aes, 0);
    }

    /// XORs encryption round key `round`, as FIPS 197 bytes, into `state`.
    fn add_round_key(state: &mut [u8; 16], aes: &Aes128, round: usize) {
        let mut rk = [0u8; 16];
        store_words(aes.rk[round], &mut rk);
        for (s, k) in state.iter_mut().zip(&rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        let inv = inv_sbox();
        for b in state.iter_mut() {
            *b = inv[*b as usize];
        }
    }

    // State is column-major: state[4*c + r] is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbc_padded_len_matches_cbc_encrypt() {
        let key = Aes128::new(&[7u8; 16]);
        let iv = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 23 + 1448, 23 + 65160, 100] {
            let pt = vec![0x5au8; len];
            let ct = key.cbc_encrypt(&iv, &pt);
            assert_eq!(ct.len(), Aes128::cbc_padded_len(len), "len {len}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    /// SP 800-38A's AES-128 key.
    const NIST_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    /// SP 800-38A's four plaintext blocks.
    fn nist_plaintext() -> Vec<u8> {
        unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ))
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS 197 Appendix B worked example.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "3925841d02dc09fbdc118597196a0b32");
        aes.decrypt_block(&mut block);
        assert_eq!(hex(&block), "3243f6a8885a308d313198a2e0370734");
    }

    #[test]
    fn fips197_appendix_c1_encrypt_and_decrypt() {
        let key: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().expect("16");
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes128::new(&key);
        let mut block = plain;
        aes.encrypt_block(&mut block);
        assert_eq!(hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        // The C.1 vector run backwards pins the fast decrypt path too.
        aes.decrypt_block(&mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn sp800_38a_cbc_vectors() {
        // SP 800-38A F.2.1/F.2.2. Our CBC always appends PKCS#7 padding,
        // so the first four ciphertext blocks must match the vector
        // exactly and one padding block follows.
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f").try_into().expect("iv");
        let aes = Aes128::new(&NIST_KEY);
        let ct = aes.cbc_encrypt(&iv, &nist_plaintext());
        assert_eq!(ct.len(), 80);
        assert_eq!(
            hex(&ct[..64]),
            concat!(
                "7649abac8119b246cee98e9b12e9197d",
                "5086cb9b507219ee95db113a917678b2",
                "73bed6b8e3c1743b7116e69e22229516",
                "3ff1caa1681fac09120eca307586e1a7",
            )
        );
        assert_eq!(aes.cbc_decrypt(&iv, &ct).expect("valid"), nist_plaintext());
    }

    #[test]
    fn fast_path_matches_reference_blocks() {
        // Deterministic pseudo-random keys/blocks; the proptest suite in
        // tests/properties.rs covers truly random ones.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            for c in key.chunks_mut(8) {
                c.copy_from_slice(&next().to_be_bytes());
            }
            for c in block.chunks_mut(8) {
                c.copy_from_slice(&next().to_be_bytes());
            }
            let aes = Aes128::new(&key);
            let mut fast = block;
            aes.encrypt_block(&mut fast);
            let mut slow = block;
            reference::encrypt_block(&aes, &mut slow);
            assert_eq!(fast, slow, "encrypt diverged for key {key:02x?}");
            let mut fast_d = fast;
            aes.decrypt_block(&mut fast_d);
            let mut slow_d = slow;
            reference::decrypt_block(&aes, &mut slow_d);
            assert_eq!(fast_d, block);
            assert_eq!(slow_d, block);
        }
    }

    #[test]
    fn cbc_matches_reference() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = *b"fedcba9876543210";
        let msg: Vec<u8> = (0..777).map(|i| (i * 13 % 256) as u8).collect();
        let fast_ct = aes.cbc_encrypt(&iv, &msg);
        let mut ref_ct = Vec::new();
        reference::cbc_encrypt_into(&aes, &iv, &msg, &mut ref_ct);
        let mut ref_pt = Vec::new();
        assert!(reference::cbc_decrypt_into(&aes, &iv, &fast_ct, &mut ref_pt), "cross decrypt");
        assert_eq!(fast_ct, ref_ct, "CBC fast path must be byte-identical");
        assert_eq!(ref_pt, msg);
        assert_eq!(aes.cbc_decrypt(&iv, &ref_ct).as_deref(), Some(&msg[..]));
    }

    #[test]
    fn cbc_round_trip_various_lengths() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = *b"fedcba9876543210";
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1500] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = aes.cbc_encrypt(&iv, &msg);
            assert_eq!(ct.len() % BLOCK_LEN, 0);
            assert!(ct.len() > msg.len(), "padding always adds bytes");
            let pt = aes.cbc_decrypt(&iv, &ct).unwrap();
            assert_eq!(pt, msg, "len={len}");
        }
    }

    #[test]
    fn cbc_rejects_malformed() {
        let aes = Aes128::new(b"0123456789abcdef");
        let iv = [0u8; 16];
        assert!(aes.cbc_decrypt(&iv, &[]).is_none());
        assert!(aes.cbc_decrypt(&iv, &[0u8; 15]).is_none());
        // Random data is overwhelmingly unlikely to have valid padding with
        // this fixed vector (checked: it doesn't).
        let garbage = [0x5au8; 32];
        let result = aes.cbc_decrypt(&iv, &garbage);
        if let Some(pt) = result {
            assert!(pt.len() < 32);
        }
    }

    #[test]
    fn cbc_wrong_iv_garbles_first_block_only() {
        let aes = Aes128::new(b"0123456789abcdef");
        let msg = vec![0xabu8; 48];
        let ct = aes.cbc_encrypt(&[0u8; 16], &msg);
        if let Some(pt) = aes.cbc_decrypt(&[1u8; 16], &ct) {
            assert_ne!(pt[..16], msg[..16]);
            assert_eq!(pt[16..], msg[16..pt.len()]);
        }
    }

    #[test]
    fn key_holds_two_schedules() {
        // Encryption and decryption round keys, 11 × 16 bytes each: the
        // AES-NI and reference paths derive their byte order at load
        // time instead of storing a third schedule.
        assert_eq!(std::mem::size_of::<Aes128>(), 2 * 11 * BLOCK_LEN);
    }

    /// Pins each backend, not only the one the CPU selects, to the
    /// byte-wise reference: a CPU with AES-NI would otherwise never run
    /// the T-table path under test.
    mod backends {
        use super::super::*;
        use proptest::prelude::*;

        /// One implementation's four entry points as free functions.
        struct Backend {
            encrypt_block: fn(&Aes128, &mut [u8; BLOCK_LEN]),
            decrypt_block: fn(&Aes128, &mut [u8; BLOCK_LEN]),
            cbc_encrypt_into: fn(&Aes128, &[u8; BLOCK_LEN], &[u8], &mut Vec<u8>),
            cbc_decrypt_into: fn(&Aes128, &[u8; BLOCK_LEN], &[u8], &mut Vec<u8>) -> bool,
        }

        const T_TABLE: Backend = Backend {
            encrypt_block: portable::encrypt_block,
            decrypt_block: portable::decrypt_block,
            cbc_encrypt_into: portable::cbc_encrypt_into,
            cbc_decrypt_into: portable::cbc_decrypt_into,
        };

        /// The AES-NI kernels, or `None` (with a note) on a CPU without
        /// AES-NI, where the hardware cases pass vacuously.
        fn aes_ni() -> Option<Backend> {
            #[cfg(target_arch = "x86_64")]
            if ni::detect().is_some() {
                fn ni() -> ni::Ni {
                    ni::detect().expect("detected above")
                }
                return Some(Backend {
                    encrypt_block: |aes, block| ni().encrypt_block(aes, block),
                    decrypt_block: |aes, block| ni().decrypt_block(aes, block),
                    cbc_encrypt_into: |aes, iv, pt, out| ni().cbc_encrypt_into(aes, iv, pt, out),
                    cbc_decrypt_into: |aes, iv, ct, out| ni().cbc_decrypt_into(aes, iv, ct, out),
                });
            }
            eprintln!("note: this CPU has no AES-NI; the hardware case is skipped");
            None
        }

        struct Case {
            key: [u8; 16],
            iv: [u8; 16],
            block: [u8; 16],
            msg: Vec<u8>,
            garbage: Vec<u8>,
            prefix: Vec<u8>,
        }

        fn case() -> impl Strategy<Value = Case> {
            (
                (any::<[u8; 16]>(), any::<[u8; 16]>(), any::<[u8; 16]>()),
                proptest::collection::vec(any::<u8>(), 0..2048),
                proptest::collection::vec(any::<u8>(), 0..2048),
                proptest::collection::vec(any::<u8>(), 1..40),
            )
                .prop_map(|((key, iv, block), msg, garbage, prefix)| Case {
                    key,
                    iv,
                    block,
                    msg,
                    garbage,
                    prefix,
                })
        }

        /// Runs all four entry points of `b` and of the reference on one
        /// case and demands identical bytes and verdicts.
        fn check(b: &Backend, c: &Case) {
            let aes = Aes128::new(&c.key);

            let mut fast = c.block;
            (b.encrypt_block)(&aes, &mut fast);
            let mut slow = c.block;
            reference::encrypt_block(&aes, &mut slow);
            assert_eq!(fast, slow, "encrypt_block");
            (b.decrypt_block)(&aes, &mut fast);
            reference::decrypt_block(&aes, &mut slow);
            assert_eq!(fast, slow, "decrypt_block");
            assert_eq!(fast, c.block, "decrypt_block inverts encrypt_block");

            let mut fast = c.prefix.clone();
            (b.cbc_encrypt_into)(&aes, &c.iv, &c.msg, &mut fast);
            let mut slow = c.prefix.clone();
            reference::cbc_encrypt_into(&aes, &c.iv, &c.msg, &mut slow);
            assert_eq!(fast, slow, "cbc_encrypt_into keeps the prefix and matches");

            // A valid ciphertext, then malformed ones: any length, a whole
            // number of blocks with (almost surely) bad padding, empty.
            let ct = fast[c.prefix.len()..].to_vec();
            let blocks = &c.garbage[..c.garbage.len() / BLOCK_LEN * BLOCK_LEN];
            for input in [&ct[..], &c.garbage[..], blocks, &[]] {
                let mut fast = c.prefix.clone();
                let fast_ok = (b.cbc_decrypt_into)(&aes, &c.iv, input, &mut fast);
                let mut slow = c.prefix.clone();
                let slow_ok = reference::cbc_decrypt_into(&aes, &c.iv, input, &mut slow);
                assert_eq!(fast_ok, slow_ok, "cbc_decrypt_into verdict, {} bytes", input.len());
                assert_eq!(fast, slow, "cbc_decrypt_into output, {} bytes", input.len());
            }
        }

        proptest! {
            #[test]
            fn t_table_matches_reference(c in case()) {
                check(&T_TABLE, &c);
            }

            #[test]
            fn aes_ni_matches_reference(c in case()) {
                let Some(ni) = aes_ni() else { return Ok(()) };
                check(&ni, &c);
            }
        }

        #[test]
        fn every_backend_meets_the_fips_and_sp800_38a_vectors() {
            let iv: [u8; 16] = super::unhex("000102030405060708090a0b0c0d0e0f").try_into().expect("iv");
            let aes = Aes128::new(&super::NIST_KEY);
            for (name, b) in [("t-table", Some(T_TABLE)), ("aes-ni", aes_ni())] {
                let Some(b) = b else { continue };
                let mut block: [u8; 16] = super::unhex("3243f6a8885a308d313198a2e0370734")
                    .try_into()
                    .expect("block");
                (b.encrypt_block)(&aes, &mut block);
                assert_eq!(super::hex(&block), "3925841d02dc09fbdc118597196a0b32", "{name}");
                let mut ct = Vec::new();
                (b.cbc_encrypt_into)(&aes, &iv, &super::nist_plaintext(), &mut ct);
                assert_eq!(
                    super::hex(&ct[..64]),
                    concat!(
                        "7649abac8119b246cee98e9b12e9197d",
                        "5086cb9b507219ee95db113a917678b2",
                        "73bed6b8e3c1743b7116e69e22229516",
                        "3ff1caa1681fac09120eca307586e1a7",
                    ),
                    "{name}"
                );
            }
        }
    }
}
