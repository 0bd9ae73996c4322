//! Machine-speed calibration.
//!
//! On a shared 2-core box the whole machine speeds up and slows down by
//! 10–25% over tens of seconds, which swamps any code change worth
//! measuring. [`kernel`] is a fixed piece of work owned by the benchmark
//! and independent of the simulator, with the simulator's mix of work:
//! multi-word integer arithmetic (RSA/DH), hashing and sorting (flow
//! tables, registries), and allocating and copying packet-sized buffers
//! (the datapath). It runs between every two timed scenarios. A run's
//! host times are scaled by [`REF_NS`] over the kernel's median time in
//! that run, giving seconds at the reference machine speed: a slower
//! simulator still reads slower, only the machine's drift between runs
//! cancels. Raw seconds are printed beside them.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's typical time on the reference machine (2-core Intel
/// Xeon at 2.1 GHz, shared), in ns.
pub const REF_NS: f64 = 10_000_000.0;

/// Runs the calibration kernel once and returns its host ns.
pub fn kernel() -> u64 {
    let t = Instant::now();
    black_box(bignum(black_box(60_000)));
    black_box(hash_sort(black_box(30_000)));
    black_box(buffers(black_box(12_000)));
    t.elapsed().as_nanos() as u64
}

/// The factor that converts a run's raw host times to the reference
/// speed, given every kernel time measured in the run.
pub fn factor(kernel_ns: &[u64]) -> f64 {
    let mut v: Vec<f64> = kernel_ns.iter().map(|&k| k as f64).collect();
    REF_NS / crate::report::median(&mut v)
}

/// Schoolbook 8-limb multiply-accumulate chains.
fn bignum(rounds: u32) -> u64 {
    let mut a = [0x9e37_79b9_7f4a_7c15u64; 8];
    let b = [0xc2b2_ae3d_27d4_eb4fu64; 8];
    for r in 0..rounds {
        let mut acc = [0u64; 16];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = u128::from(x) * u128::from(y) + u128::from(acc[i + j]) + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
            acc[i + 8] = carry as u64;
        }
        for (k, limb) in a.iter_mut().enumerate() {
            *limb = acc[k] ^ acc[k + 8] ^ u64::from(r);
        }
    }
    a.iter().fold(0, |h, &x| h ^ x)
}

/// Hash-map inserts and lookups over sorted pseudo-random keys.
fn hash_sort(n: u64) -> usize {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut keys: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let map: HashMap<u64, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    keys.iter()
        .rev()
        .map(|k| map[k])
        .fold(0, usize::wrapping_add)
}

/// Allocate, fill and copy packet-sized buffers, keeping a small window
/// live.
fn buffers(n: usize) -> usize {
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(64);
    let mut total = 0;
    for i in 0..n {
        let buf = vec![i as u8; 64 + (i * 37) % 1460];
        total += buf.len();
        if live.len() == 64 {
            let old = std::mem::replace(&mut live[i % 64], buf);
            total += old.iter().map(|&b| usize::from(b)).sum::<usize>() & 1;
        } else {
            live.push(buf);
        }
    }
    total
}
