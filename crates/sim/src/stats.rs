//! Statistics collectors for experiment output.
//!
//! [`Summary`] accumulates scalar samples (Welford mean/variance plus a
//! reservoir-free exact quantile store) and prints the rows the
//! experiment harness reports. [`TimeWeighted`] integrates a step signal
//! over time (queue occupancy, state-of-charge).

/// Scalar sample accumulator with exact quantiles.
///
/// Stores all samples; experiments here produce at most a few million
/// scalars, which is cheap, and exactness beats sketch error in a
/// reproduction artefact.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    ///
    /// # Panics
    /// Panics on NaN (a NaN sample is always an upstream bug).
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        let n = self.samples.len() as f64 + 1.0;
        let delta = x - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (x - self.mean);
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation; 0 with fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            (self.m2 / (self.samples.len() as f64 - 1.0)).sqrt()
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fold another summary into this one.
    ///
    /// Implemented by **replaying** `other`'s samples through
    /// [`add`](Summary::add) in insertion order, so
    /// `a.merge(&b)` is bit-identical to feeding `a` the concatenated
    /// sample stream — which makes the merge associative at the bit
    /// level and lets per-worker summaries fold into exactly what a
    /// serial run would have produced. (Combining Welford moments with
    /// Chan's formula would be O(1) but rounds differently than
    /// sequential accumulation, breaking that contract.)
    ///
    /// The contract holds only while `other` still stores its samples in
    /// insertion order: a [`quantile`](Summary::quantile) query sorts
    /// them in place, after which a replay would feed sorted order.
    /// Merging a summary that has been queried is therefore a caller
    /// bug, caught by a debug assertion.
    pub fn merge(&mut self, other: &Summary) {
        debug_assert!(
            !other.sorted,
            "merging a quantile-sorted summary replays sorted order, not insertion order"
        );
        self.samples.reserve(other.samples.len());
        for &x in &other.samples {
            self.add(x);
        }
    }

    /// Exact quantile by linear interpolation, `q` in `[0, 1]`.
    ///
    /// The sample store sorts lazily: the first quantile query after an
    /// [`add`](Summary::add) sorts once (unstable, by `total_cmp` —
    /// NaN is already excluded at `add`) and the sorted state is cached,
    /// so `median()` + `p95()` + `p99()` on a settled summary cost one
    /// sort total, not three. The `&mut self` signature exists for this
    /// cache; results are unaffected.
    ///
    /// # Panics
    /// Panics if empty or `q` out of range.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.samples.is_empty(), "quantile of empty summary");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
}

/// Time-weighted average of a piecewise-constant signal.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_t: f64,
    last_v: f64,
    integral: f64,
    start_t: f64,
}

impl TimeWeighted {
    /// Start integrating at `t0` with initial value `v0`.
    pub fn new(t0: f64, v0: f64) -> Self {
        Self {
            last_t: t0,
            last_v: v0,
            integral: 0.0,
            start_t: t0,
        }
    }

    /// Record that the signal changed to `v` at time `t`.
    ///
    /// # Panics
    /// Panics if `t` moves backwards.
    pub fn update(&mut self, t: f64, v: f64) {
        assert!(
            t >= self.last_t,
            "time moved backwards: {t} < {}",
            self.last_t
        );
        self.integral += self.last_v * (t - self.last_t);
        self.last_t = t;
        self.last_v = v;
    }

    /// Time-weighted mean over `[t0, t]`, closing the last segment at `t`.
    pub fn mean_until(&self, t: f64) -> f64 {
        assert!(t >= self.last_t, "horizon before last update");
        let total = t - self.start_t;
        if total <= 0.0 {
            return self.last_v;
        }
        (self.integral + self.last_v * (t - self.last_t)) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_set() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138).abs() < 1e-3);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.add(x as f64);
        }
        assert!((s.median() - 50.5).abs() < 1e-9);
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.quantile(1.0) - 100.0).abs() < 1e-12);
        assert!((s.p95() - 95.05).abs() < 0.01);
    }

    #[test]
    fn quantile_works_after_more_adds() {
        let mut s = Summary::new();
        s.add(1.0);
        s.add(3.0);
        assert_eq!(s.median(), 2.0);
        s.add(100.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn merge_matches_sequential_feed_bitwise() {
        let xs = [2.0, 4.0, 4.0, 5.0];
        let ys = [7.0, 9.0, 1.0];
        let mut serial = Summary::new();
        for x in xs.iter().chain(&ys) {
            serial.add(*x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        xs.iter().for_each(|&x| a.add(x));
        ys.iter().for_each(|&y| b.add(y));
        a.merge(&b);
        assert_eq!(a.count(), serial.count());
        assert_eq!(a.mean().to_bits(), serial.mean().to_bits());
        assert_eq!(a.std_dev().to_bits(), serial.std_dev().to_bits());
        assert_eq!(a.median().to_bits(), serial.median().to_bits());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "quantile-sorted")]
    fn merge_of_a_queried_summary_panics_in_debug() {
        let mut b = Summary::new();
        b.add(2.0);
        b.add(1.0);
        b.median(); // sorts `b` in place
        Summary::new().merge(&b);
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let mut a = Summary::new();
        a.add(3.0);
        let before = (a.count(), a.mean().to_bits());
        a.merge(&Summary::new());
        assert_eq!((a.count(), a.mean().to_bits()), before);
        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean().to_bits(), a.mean().to_bits());
    }

    #[test]
    fn quantile_sort_is_cached_until_the_next_add() {
        let mut s = Summary::new();
        for x in [5.0, 1.0, 3.0] {
            s.add(x);
        }
        // Three queries, one sort: answers must agree and stay exact.
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        s.add(0.0); // invalidates the cache
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        Summary::new().quantile(0.5);
    }

    #[test]
    fn time_weighted_step_signal() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.update(5.0, 10.0); // 0 for 5 s
        tw.update(10.0, 0.0); // 10 for 5 s
                              // mean over [0,10] = (0*5 + 10*5)/10 = 5
        assert!((tw.mean_until(10.0) - 5.0).abs() < 1e-12);
        // extend: 0 for 10 more seconds → mean 2.5 over [0,20]
        assert!((tw.mean_until(20.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_constant_signal() {
        let tw = TimeWeighted::new(2.0, 7.0);
        assert!((tw.mean_until(12.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_backwards_panics() {
        let mut tw = TimeWeighted::new(5.0, 0.0);
        tw.update(4.0, 1.0);
    }
}
