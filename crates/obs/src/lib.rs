//! Observability primitives for the simulator.
//!
//! Everything here is dependency-free and deterministic: metrics
//! *observe* simulation state, they never draw randomness, allocate on
//! the dispatch fast path, or otherwise perturb the event schedule, so
//! a run produces bit-identical results whether metrics are on or off.
//!
//! - [`hist::Histogram`] — HdrHistogram-style log-linear buckets for
//!   latencies and sizes: ~3% relative error, mergeable across sweep
//!   shards, constant memory.
//! - [`registry::MetricsRegistry`] — named counters, gauges and
//!   histograms with pre-registered integer handles for hot paths and
//!   by-name lazy registration for rare events.
//! - [`json`] — minimal JSON escaping/writing plus a flat-object parser
//!   (numbers kept as raw text so `u64` nanosecond values round-trip
//!   without `f64` precision loss).
//! - [`manifest::RunManifest`] — the per-run record every bench binary
//!   writes under `results/`: seed, config, git rev, wall-clock, event
//!   count, full metric dump.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod manifest;
pub mod registry;

pub use hist::Histogram;
pub use manifest::RunManifest;
pub use registry::{CtrId, GaugeId, HistId, MetricsRegistry};
