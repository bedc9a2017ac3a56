//! Randomized property tests of the statistics collectors: merge
//! associativity at the bit level and quantile monotonicity in the query
//! point.
//!
//! Cases are drawn from a seeded [`SimRng`] stream (see
//! `proptest_orbit.rs` for the scheme) — deterministic, dependency-free
//! property testing.

use openspace_sim::prelude::*;

const CASES: u64 = 256;

fn for_cases(seed: u64, mut f: impl FnMut(&mut SimRng)) {
    for case in 0..CASES {
        let mut rng = SimRng::substream(seed, case);
        f(&mut rng);
    }
}

fn filled(samples: &[f64]) -> Summary {
    let mut s = Summary::new();
    for &x in samples {
        s.add(x);
    }
    s
}

#[test]
fn merge_is_associative_at_the_bit_level() {
    for_cases(0xC1, |rng| {
        let draw = |rng: &mut SimRng, n: usize| -> Vec<f64> {
            (0..n).map(|_| rng.uniform_range(-1e6, 1e6)).collect()
        };
        let (nx, ny, nz) = (rng.index(100), rng.index(100), 1 + rng.index(99));
        let xs = draw(rng, nx);
        let ys = draw(rng, ny);
        let zs = draw(rng, nz);

        // (x ⊕ y) ⊕ z
        let mut left = filled(&xs);
        left.merge(&filled(&ys));
        left.merge(&filled(&zs));
        // x ⊕ (y ⊕ z)
        let mut tail = filled(&ys);
        tail.merge(&filled(&zs));
        let mut right = filled(&xs);
        right.merge(&tail);
        // serial replay of the concatenation
        let all: Vec<f64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        let mut serial = filled(&all);

        assert_eq!(left.count(), serial.count());
        assert_eq!(left.mean().to_bits(), right.mean().to_bits());
        assert_eq!(left.mean().to_bits(), serial.mean().to_bits());
        assert_eq!(left.std_dev().to_bits(), right.std_dev().to_bits());
        assert_eq!(left.std_dev().to_bits(), serial.std_dev().to_bits());
        assert_eq!(left.median().to_bits(), right.median().to_bits());
        assert_eq!(left.median().to_bits(), serial.median().to_bits());
    });
}

#[test]
fn quantile_is_monotone_in_the_query_point() {
    for_cases(0xC2, |rng| {
        let n = 1 + rng.index(299);
        let mut s = Summary::new();
        for _ in 0..n {
            s.add(rng.uniform_range(-1e9, 1e9));
        }
        // A random ascending ladder of query points must give a
        // non-decreasing ladder of answers, all within [min, max].
        let mut qs: Vec<f64> = (0..8).map(|_| rng.uniform()).collect();
        qs.sort_unstable_by(f64::total_cmp);
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = s.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} fell below {last}");
            assert!(v >= s.min() && v <= s.max());
            last = v;
        }
    });
}

#[test]
fn quantile_answers_are_stable_across_cache_rebuilds() {
    for_cases(0xC3, |rng| {
        let n = 2 + rng.index(98);
        let samples: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1e3, 1e3)).collect();
        let q = rng.uniform();
        let mut s = filled(&samples);
        let first = s.quantile(q);
        // Re-querying a settled summary (cache hit) and re-building the
        // summary from scratch (fresh sort) must agree bitwise.
        assert_eq!(s.quantile(q).to_bits(), first.to_bits());
        let mut rebuilt = filled(&samples);
        assert_eq!(rebuilt.quantile(q).to_bits(), first.to_bits());
    });
}
