//! Memoized ephemeris and visibility sampling.
//!
//! The Figure 2 sweeps evaluate the *same* orbits at the *same* epochs
//! over and over: `random_constellation(n, seed)` draws satellites
//! sequentially, so the size-`n` constellation of a trial is a prefix of
//! every larger size point of that trial, and each size point samples the
//! identical epoch grid. Re-propagating those orbits per size point is
//! the dominant redundant work in `latency_vs_satellites` /
//! `coverage_vs_satellites` (one Kepler solve plus two frame rotations
//! per satellite-epoch).
//!
//! [`EphemerisCache`] memoizes the per-satellite sample — ECI and ECEF
//! position — keyed by the exact bit patterns of
//! `(orbital elements, perturbation model, sample time)`, so any two
//! queries for the same orbit at the same epoch hit the cache regardless
//! of which sweep point asks. [`VisibilityCache`] layers a
//! ground-visibility memo (elevation-mask test per satellite sample and
//! ground point) on top — the contact-window building block.
//!
//! Both caches are internally locked and shareable across the scenario
//! harness's worker threads. Cached values are pure functions of the key,
//! so cache hits can never change a result — parallel sweeps stay
//! bitwise-identical to serial ones no matter the hit pattern.

use crate::frames::{eci_to_ecef, Vec3};
use crate::propagator::{PerturbationModel, Propagator};
use crate::visibility::is_visible;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Exact-bits cache key for one `(orbit, model, time)` sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleKey {
    bits: [u64; 8],
}

impl SampleKey {
    /// Key for `prop` sampled at `t_s`.
    pub fn new(prop: &Propagator, t_s: f64) -> Self {
        let el = prop.elements();
        let model = match prop.model() {
            PerturbationModel::TwoBody => 0u64,
            PerturbationModel::SecularJ2 => 1u64,
        };
        Self {
            bits: [
                el.semi_major_axis_m.to_bits(),
                el.eccentricity.to_bits(),
                el.inclination_rad.to_bits(),
                el.raan_rad.to_bits(),
                el.arg_perigee_rad.to_bits(),
                el.mean_anomaly_rad.to_bits(),
                model,
                t_s.to_bits(),
            ],
        }
    }
}

/// One cached ephemeris sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EphemerisSample {
    /// ECI position (m).
    pub eci: Vec3,
    /// ECEF position (m) at the same instant.
    pub ecef: Vec3,
}

/// A memo table of ephemeris samples, shareable across threads.
#[derive(Debug, Default)]
pub struct EphemerisCache {
    map: Mutex<HashMap<SampleKey, EphemerisSample>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EphemerisCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (ECI, ECEF) sample of `prop` at `t_s`, computed at most once
    /// per distinct `(elements, model, t_s)` key.
    pub fn sample(&self, prop: &Propagator, t_s: f64) -> EphemerisSample {
        let key = SampleKey::new(prop, t_s);
        if let Some(&s) = self.map.lock().expect("ephemeris cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return s;
        }
        // Compute outside the lock: propagation is the expensive part,
        // and recomputing a sample another thread races us to is
        // harmless (pure function, identical value). Only the thread
        // whose insert creates the entry counts a miss; a race loser
        // counts a hit, so `misses == len()` whatever the interleaving.
        let eci = prop.position_eci(t_s);
        let sample = EphemerisSample {
            eci,
            ecef: eci_to_ecef(eci, t_s),
        };
        let fresh = self
            .map
            .lock()
            .expect("ephemeris cache lock")
            .insert(key, sample)
            .is_none();
        let counter = if fresh { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        sample
    }

    /// Samples for a whole constellation at `t_s`, in satellite order.
    pub fn samples(&self, props: &[Propagator], t_s: f64) -> Vec<EphemerisSample> {
        props.iter().map(|p| self.sample(p, t_s)).collect()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= distinct samples computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct samples currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("ephemeris cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key of a ground-visibility query: satellite sample key + ground point
/// + elevation mask, all exact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VisibilityKey {
    sample: SampleKey,
    ground: [u64; 3],
    mask: u64,
}

/// A memo of elevation-mask visibility tests layered over an
/// [`EphemerisCache`] — the repeated kernel of contact-window and access
/// computations.
#[derive(Debug, Default)]
pub struct VisibilityCache {
    ephemeris: EphemerisCache,
    map: Mutex<HashMap<VisibilityKey, bool>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VisibilityCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared ephemeris memo underneath.
    pub fn ephemeris(&self) -> &EphemerisCache {
        &self.ephemeris
    }

    /// Whether `prop` at `t_s` is visible from `ground_ecef` above
    /// `min_elevation_rad`, memoized; also returns the satellite sample
    /// so callers get the slant-range inputs for free.
    pub fn visible(
        &self,
        prop: &Propagator,
        t_s: f64,
        ground_ecef: Vec3,
        min_elevation_rad: f64,
    ) -> (bool, EphemerisSample) {
        let sample_key = SampleKey::new(prop, t_s);
        let key = VisibilityKey {
            sample: sample_key,
            ground: [
                ground_ecef.x.to_bits(),
                ground_ecef.y.to_bits(),
                ground_ecef.z.to_bits(),
            ],
            mask: min_elevation_rad.to_bits(),
        };
        let sample = self.ephemeris.sample(prop, t_s);
        if let Some(&v) = self.map.lock().expect("visibility cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v, sample);
        }
        // As in `EphemerisCache::sample`: a race loser counts a hit.
        let v = is_visible(ground_ecef, sample.ecef, min_elevation_rad);
        let fresh = self
            .map
            .lock()
            .expect("visibility cache lock")
            .insert(key, v)
            .is_none();
        let counter = if fresh { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (v, sample)
    }

    /// Cache hits so far (visibility layer only).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= distinct visibility tests stored) so far
    /// (visibility layer only).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::km_to_m;
    use crate::frames::{geodetic_to_ecef, Geodetic};
    use crate::kepler::OrbitalElements;

    fn prop(ma_deg: f64) -> Propagator {
        Propagator::new(
            OrbitalElements::circular(km_to_m(780.0), 86.4, 0.0, ma_deg).unwrap(),
            PerturbationModel::TwoBody,
        )
    }

    #[test]
    fn cached_sample_matches_direct_propagation() {
        let cache = EphemerisCache::new();
        let p = prop(12.0);
        let s = cache.sample(&p, 345.6);
        assert_eq!(s.eci, p.position_eci(345.6));
        assert_eq!(s.ecef, eci_to_ecef(p.position_eci(345.6), 345.6));
    }

    #[test]
    fn repeat_queries_hit() {
        let cache = EphemerisCache::new();
        let p = prop(45.0);
        let a = cache.sample(&p, 100.0);
        let b = cache.sample(&p, 100.0);
        assert_eq!(a, b);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_orbits_and_times_miss() {
        let cache = EphemerisCache::new();
        cache.sample(&prop(0.0), 0.0);
        cache.sample(&prop(1.0), 0.0); // different orbit
        cache.sample(&prop(0.0), 60.0); // different epoch
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn visibility_memo_hits_and_agrees() {
        let cache = VisibilityCache::new();
        let p = prop(0.0);
        let ground = geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0));
        let (a, sample) = cache.visible(&p, 0.0, ground, 0.0);
        let (b, _) = cache.visible(&p, 0.0, ground, 0.0);
        assert_eq!(a, b);
        assert_eq!(a, is_visible(ground, sample.ecef, 0.0));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // The underlying ephemeris sample was shared.
        assert_eq!(cache.ephemeris().misses(), 1);
        assert_eq!(cache.ephemeris().hits(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let cache = EphemerisCache::new();
        let p = prop(30.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..16 {
                        cache.sample(&p, k as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.hits() + cache.misses(), 64);
    }

    #[test]
    fn racing_threads_count_one_miss_per_stored_entry() {
        // Many threads ask for the same keys at once, so several of them
        // compute a sample and race to insert it. Only the insert that
        // creates an entry may count a miss; every other lookup is a hit.
        let threads = 8;
        let keys = 64;
        for round in 0..8 {
            let vis = VisibilityCache::new();
            let p = prop(round as f64);
            let ground = geodetic_to_ecef(Geodetic::from_degrees(10.0, 20.0, 0.0));
            let barrier = std::sync::Barrier::new(threads);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        barrier.wait();
                        for k in 0..keys {
                            vis.visible(&p, k as f64, ground, 0.0);
                        }
                    });
                }
            });
            let eph = vis.ephemeris();
            let lookups = (threads * keys) as u64;
            assert_eq!(eph.len(), keys);
            assert_eq!(eph.misses(), keys as u64, "round {round}");
            assert_eq!(eph.hits() + eph.misses(), lookups);
            assert_eq!(vis.misses(), keys as u64, "round {round}");
            assert_eq!(vis.hits() + vis.misses(), lookups);
        }
    }
}
