//! Property suite pinning the event queue's exact behaviour: the
//! binary-heap [`EventQueue`] drains every schedule in the same
//! `(time, seq)` total order as a sorted-`Vec` reference model — same pop
//! order to the last tie, same `processed` / `depth_high_water`
//! accounting, same final clock.
//!
//! The schedules are adversarial: same-timestamp bursts,
//! microsecond-vs-day time spans, interleaved schedule/pop, handlers
//! that schedule offspring mid-`run_until` — the shape the packet engine
//! produces (each departure schedules the next) — and timestamps at the
//! edges of the queue's integer key (`-0.0`, subnormals, `>= 1e300` up
//! to `f64::MAX`). A [`NetSim`] run is a pure function of its scenario
//! only if this order is exact.
//!
//! [`NetSim`]: openspace_core::netsim::NetSim

use openspace_sim::prelude::{EventQueue, SimRng};

/// Reference model of [`EventQueue`]: a `Vec` kept sorted by
/// `(time, seq)` under `f64` comparison and popped from the front.
#[derive(Default)]
struct SortedVecQueue {
    pending: Vec<(f64, u64, u32)>,
    now: f64,
    seq: u64,
    processed: u64,
    depth_high_water: usize,
}

impl SortedVecQueue {
    fn schedule(&mut self, at: f64, payload: u32) {
        // `-0.0` equals `0.0`, so it sorts by seq among zeros; the queue
        // documents that it pops as `+0.0`.
        let at = at + 0.0;
        let seq = self.seq;
        let pos = self
            .pending
            .partition_point(|&(t, s, _)| t < at || (t == at && s < seq));
        self.pending.insert(pos, (at, seq, payload));
        self.seq += 1;
        self.depth_high_water = self.depth_high_water.max(self.pending.len());
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        let (t, _, payload) = self.pending.remove(0);
        self.now = t;
        self.processed += 1;
        Some((t, payload))
    }

    fn next_time(&self) -> Option<f64> {
        self.pending.first().map(|&(t, _, _)| t)
    }

    /// The model of [`EventQueue::run_until`]: pop every event due by
    /// `until`, letting the handler schedule more, then advance the
    /// clock to the horizon.
    fn run_until(&mut self, until: f64, mut handler: impl FnMut(&mut Self, f64, u32)) {
        while self.next_time().is_some_and(|t| t <= until) {
            let (t, e) = self.pop().expect("peeked event exists");
            handler(self, t, e);
        }
        self.now = self.now.max(until);
    }
}

fn bits((t, payload): (f64, u32)) -> (u64, u32) {
    (t.to_bits(), payload)
}

fn assert_matches_oracle(
    q: &EventQueue<u32>,
    got: &[(u64, u32)],
    oracle: &SortedVecQueue,
    want: &[(u64, u32)],
    ctx: &str,
) {
    assert_eq!(got, want, "{ctx}: pop sequences diverge");
    assert_eq!(q.processed(), oracle.processed, "{ctx}: processed");
    assert_eq!(
        q.depth_high_water(),
        oracle.depth_high_water,
        "{ctx}: depth high-water"
    );
    assert_eq!(
        q.now().to_bits(),
        oracle.now.to_bits(),
        "{ctx}: final clock"
    );
    assert_eq!(q.pending(), oracle.pending.len(), "{ctx}: pending");
}

/// Drive a seeded mix of schedule bursts and pops against the heap and
/// the oracle in lock step, then drain both; each burst lands at
/// `time(rng, now)`. The op stream depends only on the seed and on the
/// heap's clock, so a divergence surfaces as a sequence mismatch.
fn assert_bursts_match(rng: &mut SimRng, mut time: impl FnMut(&mut SimRng, f64) -> f64, ctx: &str) {
    let mut q = EventQueue::new();
    let mut oracle = SortedVecQueue::default();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut next_id = 0u32;
    for _ in 0..600 {
        if rng.uniform() < 0.55 {
            // A burst of 1-4 events; every event in the burst lands on
            // the *same* timestamp, so ties must break by schedule order.
            let at = time(rng, q.now());
            for _ in 0..1 + rng.index(4) {
                q.schedule(at, next_id);
                oracle.schedule(at, next_id);
                next_id += 1;
            }
        } else {
            got.extend(q.pop().map(bits));
            want.extend(oracle.pop().map(bits));
        }
    }
    got.extend(std::iter::from_fn(|| q.pop()).map(bits));
    want.extend(std::iter::from_fn(|| oracle.pop()).map(bits));
    assert_matches_oracle(&q, &got, &oracle, &want, ctx);
}

/// [`assert_bursts_match`] with each burst up to a random span of
/// `spans` after the clock.
fn assert_schedule_matches(seed: u64, spans: &[f64], ctx: &str) {
    let mut rng = SimRng::substream(0xE9E9, seed);
    let time = |rng: &mut SimRng, now: f64| now + spans[rng.index(spans.len())] * rng.uniform();
    assert_bursts_match(&mut rng, time, &format!("{ctx} seed {seed}"));
}

#[test]
fn adversarial_schedules_pop_identically() {
    // Dense sub-second offsets: many near-collisions.
    for seed in 0..20 {
        assert_schedule_matches(seed, &[1e-4, 2e-3, 0.5], "dense");
    }
    // Mixed microsecond-vs-day spans.
    for seed in 0..20 {
        assert_schedule_matches(seed, &[1e-6, 3e-5, 1.0, 86_400.0], "mixed-span");
    }
    // Degenerate: every event at one of two timestamps — ordering is
    // decided almost entirely by the seq tie-break.
    for seed in 0..10 {
        assert_schedule_matches(seed, &[0.0, 1.0], "two-timestamp");
    }
}

/// A timestamp at an edge of the bit-pattern order, at or after `now`:
/// signed zero, subnormals, the smallest normal, the clock itself and
/// the next double above it, and values from 1e300 to `f64::MAX` (where
/// adding a span rounds back to the same time).
fn extreme_time(rng: &mut SimRng, now: f64) -> f64 {
    let candidates = [
        -0.0,
        0.0,
        f64::from_bits(1 + rng.below(1 << 20)), // subnormal
        f64::from_bits(1 << 51),                // subnormal, top mantissa bit
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE * (1.0 + rng.uniform()),
        now,
        now.next_up(),
        now + 1e-6,
        1.0 + rng.uniform(),
        1e300,
        1e300 * (1.0 + 1e8 * rng.uniform()),
        now + 1.0,
        f64::MAX,
    ];
    loop {
        let at = candidates[rng.index(candidates.len())];
        if at >= now && at.is_finite() {
            return at;
        }
    }
}

#[test]
fn extreme_timestamps_pop_identically() {
    for seed in 0..64 {
        let mut rng = SimRng::substream(0xE9EB, seed);
        assert_bursts_match(&mut rng, extreme_time, &format!("extremes seed {seed}"));
    }
    // Signed zeros alone: `-0.0` and `0.0` are one instant, so a mixed
    // burst pops in schedule order, every time as `+0.0`.
    let mut q = EventQueue::new();
    for (i, at) in [0.0, -0.0, -0.0, 0.0, -0.0].into_iter().enumerate() {
        q.schedule(at, i as u32);
    }
    let popped: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).map(bits).collect();
    let zero = 0.0f64.to_bits();
    assert_eq!(
        popped,
        vec![(zero, 0), (zero, 1), (zero, 2), (zero, 3), (zero, 4)]
    );
}

/// Children of the `n`-th popped event: one a microsecond-scale step
/// later, and every third pop one up to a day later; none once `n`
/// reaches `limit`, so the cascade drains.
fn offspring(n: usize, limit: usize, t: f64, e: u32) -> Vec<(f64, u32)> {
    let mut out = Vec::new();
    if n < limit {
        out.push((t + 1e-6 * (e as f64 + 1.0), e.wrapping_add(32)));
        if n.is_multiple_of(3) {
            out.push((t + 86_400.0 / (e as f64 + 1.0), e.wrapping_add(33)));
        }
    }
    out
}

/// Run a handler cascade from `roots` events up to `until` on the heap
/// and on the oracle, returning the heap's pop count.
fn assert_cascade_matches(roots: u32, limit: usize, until: f64, ctx: &str) -> usize {
    let mut q = EventQueue::new();
    let mut oracle = SortedVecQueue::default();
    for i in 0..roots {
        q.schedule(i as f64 * 0.125, i);
        oracle.schedule(i as f64 * 0.125, i);
    }
    let mut got = Vec::new();
    q.run_until(until, |q, t, e| {
        got.push(bits((t, e)));
        for (at, child) in offspring(got.len(), limit, t, e) {
            q.schedule(at, child);
        }
    });
    let mut want = Vec::new();
    oracle.run_until(until, |oracle, t, e| {
        want.push(bits((t, e)));
        for (at, child) in offspring(want.len(), limit, t, e) {
            oracle.schedule(at, child);
        }
    });
    assert_matches_oracle(&q, &got, &oracle, &want, ctx);
    got.len()
}

#[test]
fn handler_cascades_pop_identically() {
    // A long cascade at deliberately mixed time scales, run to a
    // horizon past every event.
    let popped = assert_cascade_matches(32, 6_000, 2.0e6, "long cascade");
    assert!(popped > 5_000, "cascade must actually cascade");
    // Seeded cascades whose horizon may leave events queued.
    for case in 0..64 {
        let mut rng = SimRng::substream(0xE9EA, case);
        let roots = 1 + rng.index(32) as u32;
        let limit = 100 + rng.index(900);
        let until = rng.uniform_range(1.0, 2.0e5);
        assert_cascade_matches(roots, limit, until, &format!("cascade case {case}"));
    }
}
