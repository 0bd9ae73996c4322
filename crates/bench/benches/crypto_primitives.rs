//! Microbenchmarks of the from-scratch crypto primitives — the real
//! wall-clock costs underlying the simulator's calibrated cost model.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;
use sim_crypto::aes::{portable, reference, Aes128};
use sim_crypto::bigint::BigUint;
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::hmac::{hmac_sha256, HmacKey};
use sim_crypto::rsa::RsaKeyPair;
use sim_crypto::sha256::sha256;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(1)
}

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    for size in [64usize, 1500, 16384] {
        let data = vec![0xa5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("sha256/{size}"), |b| b.iter(|| sha256(std::hint::black_box(&data))));
        g.bench_function(format!("hmac_sha256/{size}"), |b| {
            b.iter(|| hmac_sha256(b"key", std::hint::black_box(&data)))
        });
        // The per-SA cached transcript path: ipad/opad absorbed once at
        // key-install time, cloned per MAC.
        let key = HmacKey::new(b"key");
        g.bench_function(format!("hmac_sha256_cached/{size}"), |b| {
            b.iter(|| key.mac(std::hint::black_box(&data)))
        });
    }
    g.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut g = c.benchmark_group("aes");
    let aes = Aes128::new(b"0123456789abcdef");
    for size in [64usize, 1448, 16384] {
        let data = vec![0x5au8; size];
        let iv = [7u8; 16];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("cbc_encrypt/{size}"), |b| {
            b.iter(|| aes.cbc_encrypt(&iv, std::hint::black_box(&data)))
        });
        let ct = aes.cbc_encrypt(&iv, &data);
        g.bench_function(format!("cbc_decrypt/{size}"), |b| {
            b.iter(|| aes.cbc_decrypt(&iv, std::hint::black_box(&ct)).expect("valid"))
        });
    }
    // Single block through the path this CPU selects (AES-NI where
    // detected), the portable T-table path and the retained byte-wise
    // reference, so the per-round cost difference is directly visible.
    let mut block = [0x5au8; 16];
    g.bench_function("encrypt_block_fast", |b| {
        b.iter(|| {
            aes.encrypt_block(std::hint::black_box(&mut block));
        })
    });
    g.bench_function("encrypt_block_portable", |b| {
        b.iter(|| {
            portable::encrypt_block(&aes, std::hint::black_box(&mut block));
        })
    });
    g.bench_function("encrypt_block_reference", |b| {
        b.iter(|| {
            reference::encrypt_block(&aes, std::hint::black_box(&mut block));
        })
    });
    g.bench_function("decrypt_block_fast", |b| {
        b.iter(|| {
            aes.decrypt_block(std::hint::black_box(&mut block));
        })
    });
    g.bench_function("decrypt_block_portable", |b| {
        b.iter(|| {
            portable::decrypt_block(&aes, std::hint::black_box(&mut block));
        })
    });
    g.bench_function("decrypt_block_reference", |b| {
        b.iter(|| {
            reference::decrypt_block(&aes, std::hint::black_box(&mut block));
        })
    });
    g.finish();
}

fn bench_bigint(c: &mut Criterion) {
    let mut g = c.benchmark_group("bigint");
    let mut r = rng();
    let a = BigUint::random_exact_bits(&mut r, 1024);
    let b = BigUint::random_exact_bits(&mut r, 1024);
    let m = {
        let m = BigUint::random_exact_bits(&mut r, 1024);
        if m.is_even() { m.add(&BigUint::one()) } else { m }
    };
    g.bench_function("mul_1024", |bch| bch.iter(|| std::hint::black_box(&a).mul(&b)));
    g.bench_function("div_rem_2048_by_1024", |bch| {
        let big = a.mul(&b);
        bch.iter(|| std::hint::black_box(&big).div_rem(&m))
    });
    let e = BigUint::from_u64(65537);
    g.bench_function("modpow_1024_e65537", |bch| {
        bch.iter(|| std::hint::black_box(&a).modpow(&e, &m))
    });
    g.finish();
}

fn bench_asymmetric(c: &mut Criterion) {
    let mut g = c.benchmark_group("asymmetric");
    g.sample_size(10);
    let mut r = rng();
    let kp = RsaKeyPair::generate(1024, &mut r);
    let msg = b"hip control packet bytes";
    let sig = kp.sign(msg);
    g.bench_function("rsa1024_sign", |b| b.iter(|| kp.sign(std::hint::black_box(msg))));
    g.bench_function("rsa1024_verify", |b| {
        b.iter(|| kp.public().verify(std::hint::black_box(msg), &sig))
    });
    let dh_a = DhKeyPair::generate(DhGroup::Modp1536, &mut r);
    let dh_b = DhKeyPair::generate(DhGroup::Modp1536, &mut r);
    let pub_b = dh_b.public_bytes();
    g.bench_function("dh1536_shared_secret", |b| {
        b.iter(|| dh_a.shared_secret(std::hint::black_box(&pub_b)).expect("valid"))
    });
    g.finish();
}

criterion_group!(benches, bench_hash, bench_aes, bench_bigint, bench_asymmetric);
criterion_main!(benches);
