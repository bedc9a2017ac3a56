//! The discrete-event engine: a time-ordered event queue with stable
//! tie-breaking, and a run loop.
//!
//! Determinism contract: two events at the same timestamp fire in the
//! order they were scheduled (a monotone sequence number breaks ties), so
//! a simulation's outcome is a pure function of its inputs and seed.
//!
//! [`EventQueue`] is the simulator's one event queue: a binary heap
//! ordered lexicographically by `(time, seq)`, `O(log n)` per operation.
//! The order is realised as one `u128` key per entry,
//! `(time.to_bits() << 64) | seq`, so each heap comparison is a single
//! integer compare; for the finite, non-negative times
//! [`EventQueue::schedule`] admits, bit order is numeric order.
//! `tests/tests/engine_equivalence.rs` pins its exact pop order against
//! a sorted-`Vec` oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation timestamp (seconds since simulation epoch).
pub type SimTime = f64;

/// A queued event under its ordering key
/// `(time.to_bits() << 64) | seq`.
///
/// [`EventQueue::schedule`] admits only finite times `at >= now >= 0`.
/// For non-negative finite doubles the IEEE bit pattern, read as an
/// unsigned integer, orders exactly as the value does, so comparing keys
/// as integers is comparing `(time, seq)` lexicographically. The one
/// exception, `-0.0` (sign bit set, yet equal to `0.0`), is normalised
/// to `+0.0` before the key is built.
struct Scheduled<E> {
    key: u128,
    event: E,
}

impl<E> Scheduled<E> {
    fn time(&self) -> SimTime {
        SimTime::from_bits((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time (then the
        // lowest sequence number) pops first.
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event scheduler.
///
/// `E` is the caller's event payload. The engine owns time; handlers run
/// strictly in timestamp order and may schedule further events (at or
/// after the current time).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    depth_high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
            processed: 0,
            depth_high_water: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events waiting.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Highest number of events ever waiting at once — the queue-depth
    /// high-water mark telemetry reports for capacity planning.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Schedule `event` at absolute time `at`. An event scheduled at
    /// `-0.0` pops as `+0.0`, the same instant.
    ///
    /// # Panics
    /// Panics if `at` is NaN/infinite or earlier than the current time
    /// (causality violation — always a caller bug).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at.is_finite(), "event time must be finite, got {at}");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        // `+ 0.0` turns `-0.0` into `+0.0` and leaves every other
        // admitted time unchanged (see `Scheduled`).
        let bits = (at + 0.0).to_bits();
        self.heap.push(Scheduled {
            key: (u128::from(bits) << 64) | u128::from(self.seq),
            event,
        });
        self.seq += 1;
        self.depth_high_water = self.depth_high_water.max(self.heap.len());
    }

    /// Schedule `event` `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.schedule(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time();
        self.processed += 1;
        Some((self.now, s.event))
    }

    /// Run until the queue drains or the clock passes `until`, feeding
    /// each event to `handler` (which may schedule more via the `&mut
    /// Self` it receives). Events with timestamps beyond `until` remain
    /// queued.
    pub fn run_until<F>(&mut self, until: SimTime, mut handler: F)
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        while let Some(s) = self.heap.peek() {
            if s.time() > until {
                break;
            }
            let (t, e) = self.pop().expect("peeked event exists");
            handler(self, t, e);
        }
        // Advance the clock to the horizon even if the queue drained early,
        // so successive run_until calls see monotone time.
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let mut order = Vec::new();
        q.run_until(10.0, |_, _, e| order.push(e));
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        let mut order = Vec::new();
        q.run_until(2.0, |_, _, e| order.push(e));
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut q = EventQueue::new();
        q.schedule(0.0, 0u32);
        let mut fired = 0;
        q.run_until(10.0, |q, t, n| {
            fired += 1;
            if n < 5 {
                q.schedule(t + 1.0, n + 1);
            }
        });
        assert_eq!(fired, 6);
        assert_eq!(q.processed(), 6);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(5.0, ());
        let mut fired = 0;
        q.run_until(2.0, |_, _, _| fired += 1);
        assert_eq!(fired, 1);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.now(), 2.0);
        // The remaining event still fires later.
        q.run_until(10.0, |_, _, _| fired += 1);
        assert_eq!(fired, 2);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(4.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 4.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "first");
        q.pop();
        q.schedule_in(3.0, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 5.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn depth_high_water_tracks_peak_not_current() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(i as f64, ());
        }
        assert_eq!(q.depth_high_water(), 5);
        q.run_until(10.0, |_, _, _| {});
        assert_eq!(q.pending(), 0);
        assert_eq!(q.depth_high_water(), 5, "high water survives the drain");
    }

    #[test]
    fn empty_run_advances_clock_to_horizon() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.run_until(7.0, |_, _, _| {});
        assert_eq!(q.now(), 7.0);
    }
}
