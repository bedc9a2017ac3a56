//! Property test pinning the range-gated snapshot builder's contract:
//! [`build_snapshot_from_samples_recorded`] (the grid-bucketed fast
//! path behind [`build_snapshot_from_samples`]) produces a graph equal
//! to the exhaustive reference [`build_snapshot_from_samples_dense`] —
//! down to the bit patterns of every edge's latency and capacity.
//!
//! The correctness argument (see `crates/net/src/isl.rs` module docs)
//! is that any in-range pair must land in the same or an adjacent grid
//! cell, and that sorting candidates by `(distance, peer index)`
//! reproduces the dense sweep's stable-sort order exactly. These cases
//! exercise both the grid path and its fallbacks over seeded random
//! constellations, snapshot times, ISL ranges (including the infinite
//! range used by the simplified study, which must fall back to the
//! exhaustive sweep), terminal counts, LOS settings, elevation masks
//! (including negative), and station sets.

use openspace_net::isl::reference::build_snapshot_from_samples_dense;
use openspace_net::prelude::*;
use openspace_orbit::ephemeris::EphemerisSample;
use openspace_orbit::frames::{eci_to_ecef, geodetic_to_ecef, Geodetic};
use openspace_orbit::propagator::{PerturbationModel, Propagator};
use openspace_orbit::walker::random_constellation;
use openspace_sim::prelude::SimRng;
use openspace_telemetry::MemoryRecorder;

const CASES: u64 = 144;

fn assert_graphs_bitwise_equal(a: &Graph, b: &Graph, case: u64) {
    assert_eq!(a, b, "case {case}: graphs differ structurally");
    // PartialEq on f64 ignores sign-of-zero and would accept -0.0 ==
    // 0.0; pin the actual bits too.
    assert_eq!(a.node_count(), b.node_count());
    for u in 0..a.node_count() {
        for (ea, eb) in a.edges(u).iter().zip(b.edges(u)) {
            assert_eq!(ea.to, eb.to, "case {case}: edge target at node {u}");
            assert_eq!(
                ea.latency_s.to_bits(),
                eb.latency_s.to_bits(),
                "case {case}: latency bits on {u}->{:?}",
                ea.to
            );
            assert_eq!(
                ea.capacity_bps.to_bits(),
                eb.capacity_bps.to_bits(),
                "case {case}: capacity bits on {u}->{:?}",
                ea.to
            );
        }
    }
}

#[test]
fn gated_build_is_equal_to_quadratic_build() {
    let mut grid_runs = 0u64;
    let mut total_pruned = 0u64;
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x5A_905407, case);
        let n = 2 + rng.index(60);
        let altitude_m = rng.uniform_range(400_000.0, 1_400_000.0);
        let els = random_constellation(n, altitude_m, rng.uniform_range(40.0, 98.0), case).unwrap();
        let sats: Vec<SatNode> = els
            .into_iter()
            .enumerate()
            .map(|(i, el)| SatNode {
                propagator: Propagator::new(
                    el,
                    if rng.chance(0.5) {
                        PerturbationModel::SecularJ2
                    } else {
                        PerturbationModel::TwoBody
                    },
                ),
                operator: (i % 3) as u32,
                has_optical: rng.chance(0.4),
            })
            .collect();
        let t_s = rng.uniform_range(0.0, 86_400.0);
        let samples: Vec<EphemerisSample> = sats
            .iter()
            .map(|s| {
                let eci = s.propagator.position_eci(t_s);
                EphemerisSample {
                    eci,
                    ecef: eci_to_ecef(eci, t_s),
                }
            })
            .collect();
        let n_stations = rng.index(4);
        let stations: Vec<GroundNode> = (0..n_stations)
            .map(|k| GroundNode {
                position_ecef: geodetic_to_ecef(Geodetic::from_degrees(
                    rng.uniform_range(-75.0, 75.0),
                    rng.uniform_range(-180.0, 180.0),
                    0.0,
                )),
                operator: 10 + k as u32,
            })
            .collect();
        let params = SnapshotParams {
            max_isl_range_m: if rng.chance(0.15) {
                f64::INFINITY
            } else {
                rng.uniform_range(1_000_000.0, 8_000_000.0)
            },
            require_los: rng.chance(0.7),
            max_isl_per_sat: 1 + rng.index(6),
            min_elevation_rad: rng.uniform_range(-5.0, 45.0).to_radians(),
            ..SnapshotParams::default()
        };
        let mut rec = MemoryRecorder::new();
        let gated =
            build_snapshot_from_samples_recorded(&sats, &samples, &stations, &params, &mut rec);
        let dense = build_snapshot_from_samples_dense(&sats, &samples, &stations, &params);
        assert_graphs_bitwise_equal(&gated, &dense, case);
        let tested = rec.counter("snapshot.pairs_tested");
        let pruned = rec.counter("snapshot.pairs_pruned");
        assert_eq!(
            tested + pruned,
            (n as u64) * (n as u64 - 1) / 2,
            "case {case}: pair accounting"
        );
        if params.max_isl_range_m.is_finite() {
            grid_runs += 1;
            total_pruned += pruned;
        } else {
            assert_eq!(pruned, 0, "case {case}: infinite range must not prune");
        }
    }
    // The grid path must have engaged and actually cut work somewhere.
    assert!(grid_runs > CASES / 2, "grid path rarely exercised");
    assert!(total_pruned > 0, "grid never pruned a single pair");
}

#[test]
fn plain_build_is_the_gated_builder() {
    // The public entry points delegate to the gated path; pin one
    // end-to-end case against the dense reference through them.
    let els = random_constellation(40, 550_000.0, 53.0, 7).unwrap();
    let sats: Vec<SatNode> = els
        .into_iter()
        .map(|el| SatNode {
            propagator: Propagator::new(el, PerturbationModel::SecularJ2),
            operator: 0,
            has_optical: true,
        })
        .collect();
    let stations = [GroundNode {
        position_ecef: geodetic_to_ecef(Geodetic::from_degrees(40.0, -3.0, 0.0)),
        operator: 9,
    }];
    let params = SnapshotParams::default();
    let samples: Vec<EphemerisSample> = sats
        .iter()
        .map(|s| {
            let eci = s.propagator.position_eci(900.0);
            EphemerisSample {
                eci,
                ecef: eci_to_ecef(eci, 900.0),
            }
        })
        .collect();
    let via_plain = build_snapshot(900.0, &sats, &stations, &params);
    let dense = build_snapshot_from_samples_dense(&sats, &samples, &stations, &params);
    assert_graphs_bitwise_equal(&via_plain, &dense, 0);
}
