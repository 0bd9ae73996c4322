//! Unit costs: host time of the primitives each layer calls, timed by
//! calling their public functions directly, with input sizes taken from
//! the traced run (frame size from `engine.pkt.bytes`, TLS record size
//! from the workload's response or record size).

use hip_core::esp::{EspSa, InnerMode};
use netsim::packet::{v4, Payload, TcpFlags, TcpSegment};
use netsim::sched::CalendarQueue;
use netsim::{SimDuration, SimTime};
use obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_crypto::dh::{DhGroup, DhKeyPair};
use sim_crypto::hmac::HmacKey;
use sim_crypto::rsa::RsaKeyPair;
use sim_crypto::Aes128;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tls_sim::record::RecordCipher;
use tls_sim::{CertificateAuthority, TlsCosts, TlsSession};
use websvc::http::{HttpRequest, HttpResponse, RequestParser, ResponseParser};
use websvc::rubis::{self, RubisData, WorkloadMix};

/// Input sizes for the unit costs, taken from a traced run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Mean bytes per packet on the wire (`engine.pkt.bytes`).
    pub frame: usize,
    /// Plaintext bytes per TLS record.
    pub record: usize,
    /// RUBiS query mix: read-only when the workload uses it.
    pub read_only: bool,
}

/// Each unit cost by metric name, with its unit, then the input sizes.
pub type Costs = Vec<(&'static str, &'static str, f64)>;

/// IPv4 + TCP header bytes inside a frame.
const HEADERS: usize = 40;
/// Batch timings per unit cost; the median is reported.
const BATCHES: usize = 7;
/// Minimum length of one batch.
const BATCH_MIN: Duration = Duration::from_millis(2);

/// Median host ns per call of `f` (its result kept opaque), over [`BATCHES`] batches each at
/// least [`BATCH_MIN`] long.
fn per_call_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        if t.elapsed() >= BATCH_MIN || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / f64::from(reps)
        })
        .collect();
    crate::report::median(&mut per_call)
}

/// Median host ns per item when `f` processes `n` items prepared by
/// `prepare` (preparation untimed).
fn per_item_ns<T>(n: usize, mut prepare: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut per_item: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            f(input);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    crate::report::median(&mut per_item)
}

fn tcp_payload(len: usize) -> Payload {
    Payload::Tcp(TcpSegment {
        src_port: 1,
        dst_port: 2,
        seq: 0,
        ack: 0,
        flags: TcpFlags::ACK,
        window: 65535,
        data: bytes::Bytes::from(vec![0x61u8; len]),
        gso_mss: 0,
    })
}

fn esp_sa() -> EspSa {
    EspSa::new(1, [3; 16], [4; 32], v4(1, 0, 0, 1), v4(1, 0, 0, 2))
}

/// The FIG2 dataset size (users, items), as `RubisConfig::fig2` sets it.
pub const DATASET: (u32, u32) = (300, 600);

/// The workload's query mix.
fn mix(read_only: bool) -> WorkloadMix {
    if read_only {
        WorkloadMix::read_only()
    } else {
        WorkloadMix::default()
    }
}

/// Rendered RUBiS responses for a sample of the workload's queries, as
/// the web tier builds them (DB result wrapped in the default padding).
fn sample_responses(read_only: bool, seed: u64) -> (Vec<HttpRequest>, Vec<Vec<u8>>) {
    let (users, items) = DATASET;
    let mix = mix(read_only);
    let mut data = RubisData::generate(users, items, seed ^ 0xdb);
    let mut rng = StdRng::seed_from_u64(seed);
    let padding = websvc::webserver::WebConfig::new(v4(0, 0, 0, 0), 0).html_padding;
    let queries: Vec<_> = (0..256)
        .map(|_| mix.sample(users, items, rng.random(), rng.random()))
        .collect();
    let requests = queries
        .iter()
        .map(|q| HttpRequest::get(&q.to_path()))
        .collect();
    let responses = queries
        .iter()
        .map(|q| {
            let body = rubis::execute(&mut data, q);
            let mut html = b"<html><body>".to_vec();
            html.extend_from_slice(body.as_bytes());
            html.extend(std::iter::repeat_n(b' ', padding));
            html.extend_from_slice(b"</body></html>");
            HttpResponse::ok(html).encode()
        })
        .collect();
    (requests, responses)
}

/// Mean encoded size of the workload's RUBiS responses.
pub fn mean_response_bytes(read_only: bool, seed: u64) -> usize {
    let (_, responses) = sample_responses(read_only, seed);
    responses.iter().map(Vec::len).sum::<usize>() / responses.len()
}

/// Times every unit cost at `sizes`.
pub fn measure(sizes: Sizes, seed: u64) -> Costs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c05_7000);
    let frame = sizes.frame.max(HEADERS + 16);
    let data_len = frame - HEADERS;
    let buf = vec![0x61u8; frame];
    let mut out: Costs = Vec::new();

    // sim-crypto primitives.
    let aes = Aes128::new(&[7; 16]);
    let mut ct = Vec::with_capacity(frame + 32);
    out.push((
        "sim_crypto.aes_cbc.ns_per_frame",
        "ns",
        per_call_ns(|| {
            ct.clear();
            aes.cbc_encrypt_into(&[1; 16], black_box(&buf), &mut ct);
        }),
    ));
    let mac = HmacKey::new(&[9; 32]);
    out.push((
        "sim_crypto.hmac.ns_per_frame",
        "ns",
        per_call_ns(|| mac.mac(black_box(&buf))),
    ));
    let keys = RsaKeyPair::generate(512, &mut rng);
    let msg = [0x42u8; 64];
    let sig = keys.sign(&msg);
    out.push((
        "sim_crypto.rsa512_sign.ns",
        "ns",
        per_call_ns(|| keys.sign(black_box(&msg))),
    ));
    out.push((
        "sim_crypto.rsa512_verify.ns",
        "ns",
        per_call_ns(|| assert!(keys.public().verify(black_box(&msg), &sig))),
    ));
    let dh_a = DhKeyPair::generate(DhGroup::Test512, &mut rng);
    let dh_b = DhKeyPair::generate(DhGroup::Test512, &mut rng);
    let peer = dh_b.public_bytes();
    out.push((
        "sim_crypto.dh.ns",
        "ns",
        per_call_ns(|| dh_a.shared_secret(black_box(&peer))),
    ));
    out.push((
        "sim_crypto.rsa512_keygen.ns",
        "ns",
        per_call_ns(|| RsaKeyPair::generate(512, &mut rng)),
    ));

    // ESP, at the run's frame size: single, GSO batch, decapsulation.
    let payload = tcp_payload(data_len);
    let mut tx = esp_sa();
    let mut iv = 0u64;
    out.push((
        "core.esp.encap.ns_per_frame",
        "ns",
        per_call_ns(|| {
            iv += 1;
            tx.encapsulate(InnerMode::Lsi, black_box(&payload), iv)
        }),
    ));
    let batch: Vec<Payload> = (0..(64 * 1024 / data_len).clamp(1, 64))
        .map(|_| tcp_payload(data_len))
        .collect();
    let gso = per_call_ns(|| {
        iv += 1;
        tx.encapsulate_gso(InnerMode::Lsi, black_box(&batch), iv)
    });
    out.push((
        "core.esp.encap_gso.ns_per_frame",
        "ns",
        gso / batch.len() as f64,
    ));
    const FRAMES: usize = 512;
    let decap = per_item_ns(
        FRAMES,
        || {
            let mut tx = esp_sa();
            (1..=FRAMES as u64)
                .map(|i| tx.encapsulate(InnerMode::Lsi, &payload, i))
                .collect::<Vec<_>>()
        },
        |pkts| {
            let mut rx = esp_sa();
            for p in &pkts {
                black_box(rx.decapsulate(p).expect("authentic frame"));
            }
        },
    );
    out.push(("core.esp.decap.ns_per_frame", "ns", decap));

    // TLS record layer at the workload's record size, and a handshake.
    let record = vec![0x62u8; sizes.record.max(1)];
    let mut seal = RecordCipher::new([5; 16], [6; 32]);
    out.push((
        "tls_sim.record_seal.ns",
        "ns",
        per_call_ns(|| {
            iv += 1;
            seal.seal(black_box(&record), iv)
        }),
    ));
    const RECORDS: usize = 256;
    let open = per_item_ns(
        RECORDS,
        || {
            let mut tx = RecordCipher::new([5; 16], [6; 32]);
            (0..RECORDS as u64)
                .map(|i| tx.seal(&record, i))
                .collect::<Vec<_>>()
        },
        |bodies| {
            let mut rx = RecordCipher::new([5; 16], [6; 32]);
            for b in &bodies {
                black_box(rx.open(b).expect("authentic record"));
            }
        },
    );
    out.push(("tls_sim.record_open.ns", "ns", open));
    let ca = CertificateAuthority::new(512, &mut rng);
    let server_keys = RsaKeyPair::generate(512, &mut rng);
    let cert = ca.issue("server", server_keys.public());
    out.push((
        "tls_sim.handshake.ns",
        "ns",
        per_call_ns(|| handshake(&ca, &cert, &server_keys, &mut rng)),
    ));

    // The engine's scheduler: hold model at a fixed depth.
    let mut q: CalendarQueue<u64> = CalendarQueue::new();
    let mut seq = 0u64;
    const DEPTH: u64 = 1024;
    for _ in 0..DEPTH {
        seq += 1;
        q.push(at_ns(rng.random_range(0..1_000_000u64)), seq, seq);
    }
    out.push((
        "netsim.sched.ns_per_op",
        "ns",
        per_call_ns(|| {
            let (at, _, item) = q.pop().expect("queue held at depth");
            seq += 1;
            q.push(
                at_ns(at.as_nanos() + 1 + (item * 7919) % 1_000_000),
                seq,
                item,
            );
        }) / 2.0,
    ));

    // websvc: HTTP parsing and RUBiS query execution on the workload's mix.
    let (requests, responses) = sample_responses(sizes.read_only, seed);
    let wire_requests: Vec<Vec<u8>> = requests.iter().map(HttpRequest::encode).collect();
    let mut i = 0;
    out.push((
        "websvc.http_parse.ns",
        "ns",
        per_call_ns(|| {
            i = (i + 1) % wire_requests.len();
            let mut rp = RequestParser::default();
            rp.push(&wire_requests[i]);
            black_box(rp.next_request().expect("request parses"));
            let mut sp = ResponseParser::default();
            sp.push(&responses[i]);
            black_box(sp.next_response().expect("response parses"));
        }),
    ));
    let (users, items) = DATASET;
    let mix = mix(sizes.read_only);
    let mut data = RubisData::generate(users, items, seed ^ 0xdb);
    out.push((
        "websvc.rubis_execute.ns",
        "ns",
        per_call_ns(|| {
            let q = mix.sample(users, items, rng.random(), rng.random());
            rubis::execute(&mut data, &q)
        }),
    ));

    // obs: one histogram observation.
    let mut m = MetricsRegistry::new();
    let h = m.hist("engine.pkt.bytes");
    let mut v = frame as u64;
    out.push((
        "obs.observe.ns",
        "ns",
        per_call_ns(|| {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.observe(h, black_box(frame as u64 + (v >> 54)));
        }),
    ));
    out.push(("unit.frame_bytes", "B", frame as f64));
    out.push(("unit.record_bytes", "B", record.len() as f64));
    out
}

fn at_ns(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// One complete DHE-RSA handshake, both ends, in memory.
fn handshake(
    ca: &CertificateAuthority,
    cert: &tls_sim::Certificate,
    keys: &RsaKeyPair,
    rng: &mut StdRng,
) {
    let mut client = TlsSession::client(ca.public().clone(), TlsCosts::free());
    let mut server = TlsSession::server(cert.clone(), keys.clone(), TlsCosts::free());
    let mut to_server = client.start_handshake(rng);
    // Two round trips: hello/server-hello, then key exchange/finished.
    for _ in 0..2 {
        let s = server.on_bytes(&to_server, rng);
        assert!(s.error.is_none(), "server handshake failed");
        let c = client.on_bytes(&s.to_peer, rng);
        assert!(c.error.is_none(), "client handshake failed");
        to_server = c.to_peer;
    }
    assert!(
        client.is_established() && server.is_established(),
        "handshake incomplete"
    );
}
