//! The calendar queue must be *observationally identical* to the global
//! `BinaryHeap` it replaced: for any schedule, the sequence of popped
//! `(time, seq)` keys is the same, so simulation traces are unchanged.
//!
//! The property tests drive both structures with the same random
//! interleaving of pushes and pops (deltas spanning all three tiers:
//! current bucket, wheel, overflow) and with tombstone-style
//! cancellations mirroring the engine's lazy timer discard.

use netsim::sched::CalendarQueue;
use netsim::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;

/// Reference model: the old scheduler, a min-heap on `(time, seq)`.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl RefHeap {
    fn push(&mut self, at: u64, seq: u64) {
        self.heap.push(Reverse((at, seq)));
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse(k)| k)
    }
    fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|Reverse(k)| *k)
    }
}

/// Spread a raw delta over the tiers the engine actually exercises:
/// sub-bucket, wheel-scale, and beyond-horizon delays.
fn scale_delta(class: u8, delta: u64) -> u64 {
    match class % 3 {
        0 => delta % 4_000,                  // within one 4.1 µs bucket
        1 => delta % 50_000_000,             // wheel scale (≤ 50 ms)
        _ => 100_000_000 + delta % 2_000_000_000, // overflow (0.1 s – 2.1 s)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleaved push/pop: identical pop sequences.
    #[test]
    fn pops_match_reference_heap(
        ops in prop::collection::vec((0u8..4u8, 0u8..3u8, 0u64..u64::MAX), 1..400)
    ) {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::default();
        let mut now = 0u64;
        let mut seq = 0u64;
        for &(op, class, raw) in &ops {
            if op < 3 {
                // Push (3:1 push/pop mix keeps the queues populated).
                let at = now + scale_delta(class, raw);
                cal.push(SimTime(at), seq, seq);
                reference.push(at, seq);
                seq += 1;
            } else {
                let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
                let want = reference.pop();
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t; // like the engine: time only moves at pops
                }
            }
        }
        // Drain what's left; every key must still agree.
        loop {
            let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
            let want = reference.pop();
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
    }

    /// Equal timestamps pop in schedule (seq) order — the FIFO tie-break
    /// that keeps same-seed traces bit-identical.
    #[test]
    fn fifo_tie_break_preserved(
        times in prop::collection::vec(0u64..200_000_000u64, 1..200)
    ) {
        let mut cal: CalendarQueue<usize> = CalendarQueue::new();
        let mut reference = RefHeap::default();
        for (seq, &t) in times.iter().enumerate() {
            cal.push(SimTime(t), seq as u64, seq);
            reference.push(t, seq as u64);
        }
        while let Some(want) = reference.pop() {
            let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s)).expect("same length");
            prop_assert_eq!(got, want);
        }
        prop_assert!(cal.is_empty());
    }

    /// Lazy cancellation (the engine's generation-stamped timers) is a
    /// pop-time filter: with the same tombstone set applied to both
    /// queues, the surviving (dispatched) sequences are identical.
    #[test]
    fn cancellation_filter_is_order_independent(
        ops in prop::collection::vec((0u8..5u8, 0u8..3u8, 0u64..u64::MAX), 1..400)
    ) {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::default();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut live: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut cal_dispatched = Vec::new();
        let mut ref_dispatched = Vec::new();
        for &(op, class, raw) in &ops {
            match op {
                0..=2 => {
                    let at = now + scale_delta(class, raw);
                    cal.push(SimTime(at), seq, seq);
                    reference.push(at, seq);
                    live.push(seq);
                    seq += 1;
                }
                3 => {
                    // Cancel a pseudo-random still-scheduled event.
                    if !live.is_empty() {
                        let victim = live.swap_remove((raw % live.len() as u64) as usize);
                        cancelled.insert(victim);
                    }
                }
                _ => {
                    // Pop once from each; discard tombstones like
                    // `Sim::run_until` does.
                    if let Some((t, s, _)) = cal.pop() {
                        now = t.as_nanos();
                        if !cancelled.contains(&s) {
                            cal_dispatched.push((t.as_nanos(), s));
                        }
                    }
                    if let Some((t, s)) = reference.pop() {
                        if !cancelled.contains(&s) {
                            ref_dispatched.push((t, s));
                        }
                    }
                }
            }
        }
        while let Some((t, s, _)) = cal.pop() {
            if !cancelled.contains(&s) {
                cal_dispatched.push((t.as_nanos(), s));
            }
        }
        while let Some((t, s)) = reference.pop() {
            if !cancelled.contains(&s) {
                ref_dispatched.push((t, s));
            }
        }
        prop_assert_eq!(cal_dispatched, ref_dispatched);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's access pattern (`Sim::dispatch_run`): pop one event,
    /// take every further event at the same time through the
    /// non-advancing `peek_current`, then let the "handler" schedule at
    /// `now + δ` across all three tiers (δ = 0 included). The pop
    /// sequence matches the reference heap, `peek_current` sees exactly
    /// the heap's same-tick events, and no push lands behind the window.
    #[test]
    fn engine_access_pattern_matches_reference_heap(
        seed in prop::collection::vec((0u8..3u8, 0u64..u64::MAX), 1..20),
        steps in prop::collection::vec(
            prop::collection::vec((0u8..4u8, 0u64..u64::MAX), 0..4),
            1..150,
        )
    ) {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut reference = RefHeap::default();
        let mut seq = 0u64;
        for &(class, raw) in &seed {
            let at = scale_delta(class, raw);
            cal.push(SimTime(at), seq, seq);
            reference.push(at, seq);
            seq += 1;
        }
        for pushes in &steps {
            let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
            prop_assert_eq!(got, reference.pop());
            let Some((now, _)) = got else { break };
            // Coalesce the same-tick run.
            loop {
                let next = reference.peek();
                let peeked = cal.peek_current().map(|(t, s, _)| (t.as_nanos(), s));
                match next {
                    Some((t, _)) if t == now => {
                        prop_assert_eq!(peeked, next);
                        let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
                        prop_assert_eq!(got, reference.pop());
                    }
                    _ => {
                        prop_assert!(peeked.is_none_or(|(t, _)| t != now));
                        break;
                    }
                }
            }
            // The handler schedules after the run.
            for &(class, raw) in pushes {
                let delta = if class == 3 { 0 } else { scale_delta(class, raw) };
                cal.push(SimTime(now + delta), seq, seq);
                reference.push(now + delta, seq);
                seq += 1;
            }
        }
        loop {
            let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
            prop_assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(cal.stats().pushed_behind_window, 0);
    }
}

/// Deliberately tiny geometry (1 µs × 64 buckets = 64 µs horizon) so
/// constant window advances and overflow migrations are exercised far
/// more often than the default geometry would allow.
#[test]
fn tiny_geometry_stress_matches_reference() {
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_geometry(10, 6);
    let mut reference = RefHeap::default();
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let mut xorshift = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut now = 0u64;
    let mut seq = 0u64;
    for _ in 0..20_000 {
        let r = xorshift();
        if r % 3 != 0 {
            let at = now + scale_delta((r >> 8) as u8, r >> 16);
            cal.push(SimTime(at), seq, seq);
            reference.push(at, seq);
            seq += 1;
        } else {
            let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
            let want = reference.pop();
            assert_eq!(got, want);
            if let Some((t, _)) = got {
                now = t;
            }
        }
    }
    loop {
        let got = cal.pop().map(|(t, s, _)| (t.as_nanos(), s));
        let want = reference.pop();
        assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    let stats = cal.stats();
    assert!(stats.pushed_overflow > 0, "stress must hit the overflow tier");
    assert!(stats.migrated > 0, "stress must migrate overflow events");
}
