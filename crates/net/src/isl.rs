//! ISL feasibility and snapshot construction.
//!
//! Turns orbital state + hardware classes into the [`Graph`] the routers
//! run on: which satellite pairs can link (range, line of sight, terminal
//! count), at what capacity (RF vs optical link budgets from
//! `openspace-phy`), and which satellites see which ground stations.
//!
//! # Range-gated candidate enumeration
//!
//! Testing all `N(N−1)/2` satellite pairs per snapshot is the scaling
//! wall for mega-constellation runs. [`build_snapshot_from_samples`]
//! therefore buckets satellites into a coarse uniform grid with cell
//! edge `c = max_isl_range_m · (1 + 1e-6)` and only tests pairs sharing
//! a cell or in one of the 26 adjacent cells. The candidate set is
//! **provably unchanged** from the exhaustive sweep in
//! [`reference::build_snapshot_from_samples_dense`]:
//!
//! * Any pair the dense sweep accepts satisfies
//!   `|pᵢ − pⱼ| ≤ max_isl_range_m`, so each coordinate differs by at
//!   most `c / (1 + 1e-6)`. Exact cell quotients then differ by at most
//!   `(1 + 1e-6)⁻¹ < 1 − 9e-7`. The fast path only engages when every
//!   `|coordinate| / c ≤ 1e9`, so each *computed* quotient is off by at
//!   most `1e9 · 2⁻⁵² ≈ 2.3e-7`; computed quotients of an in-range pair
//!   therefore differ by `< 1 − 9e-7 + 4.6e-7 < 1`, which forces their
//!   `floor`s to differ by at most 1 per axis — the pair is enumerated.
//!   When the precondition fails (non-finite positions, infinite or
//!   absurdly small range), the builder falls back to the exhaustive
//!   sweep: same output, no pruning.
//! * Every enumerated pair is still tested with the *identical*
//!   range-and-line-of-sight predicate (evaluated with the lower index
//!   first, exactly as the dense loops do), so extra candidates from the
//!   inflated cell edge change nothing.
//! * Per-satellite candidate lists are sorted by
//!   `(distance, peer index)` before truncation. The dense sweep pushes
//!   peers in ascending index order and then stable-sorts by distance —
//!   the same lexicographic order — so neighbour ranking, truncation,
//!   and the mutual-selection loop see bit-identical lists regardless of
//!   the order the grid discovered them in. (Distance bits don't depend
//!   on operand order: `|a−b|` and `|b−a|` agree exactly in IEEE
//!   arithmetic.)
//!
//! The ground-link loop keeps its dense station×satellite shape but
//! hoists a per-station **max-slant-range prune** in front of the
//! `asin`-based elevation test: a satellite visible at elevation
//! `≥ mask` from a site at geocentric radius `R` is within
//! `slant_range_at_elevation_m(R, r_max, mask)` of it, where `r_max` is
//! the fleet's maximum geocentric radius (the pivot range grows with
//! satellite radius and shrinks with elevation). The gate is computed
//! from the *actual* `|ground|` and `|sat|` radii — immune to the
//! equatorial/mean Earth-radius convention split documented in
//! `openspace_orbit::visibility` — and inflated by `1e-9` relative,
//! several orders of magnitude beyond the fp error of a squared-norm
//! comparison, so no visible satellite is ever pruned (a mask outside
//! `[−π/2, π/2]` is clamped toward zero, which only widens the gate).
//! Pairs that survive pruning are decided by the same elevation
//! expression as before via [`visible_slant_range_m`], which also
//! returns the slant range from the one vector norm it computes.
//!
//! Equivalence is pinned by `tests/tests/snapshot_equivalence.rs`:
//! graph equality (including edge bit patterns) between the gated and
//! dense builders over ≥128 seeded random scenarios.

use crate::topology::{Graph, LinkTech};
use openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S;
use openspace_orbit::ephemeris::EphemerisSample;
use openspace_orbit::frames::{ecef_to_eci, eci_to_ecef, Vec3};
use openspace_orbit::propagator::Propagator;
use openspace_orbit::visibility::{
    line_of_sight_with_clearance, slant_range_at_elevation_m, visible_slant_range_m,
};
use openspace_phy::bands::RfBand;
use openspace_phy::linkbudget::{RfLink, RfTerminal};
use openspace_phy::optical::{achievable_rate_bps as optical_rate_bps, OpticalTerminal};
use openspace_telemetry::{NullRecorder, Recorder};
use std::collections::BTreeMap;

/// A satellite as the topology builder sees it.
#[derive(Debug, Clone, Copy)]
pub struct SatNode {
    /// Its orbit.
    pub propagator: Propagator,
    /// Owning operator (plain id; the core crate maps identities).
    pub operator: u32,
    /// Whether it carries laser terminals.
    pub has_optical: bool,
}

/// A ground station as the topology builder sees it.
#[derive(Debug, Clone, Copy)]
pub struct GroundNode {
    /// ECEF position (m).
    pub position_ecef: Vec3,
    /// Owning operator.
    pub operator: u32,
}

/// Parameters governing snapshot construction.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotParams {
    /// Hard ISL range limit (m) — beyond this no pairing is attempted
    /// even with line of sight (beam budgets close the link first).
    pub max_isl_range_m: f64,
    /// Required ray clearance above the surface (m) for ISLs.
    pub los_clearance_m: f64,
    /// Whether ISLs require line of sight at all. `true` for physical
    /// operation; `false` reproduces "simplified simulation" setups that
    /// treat the ISL graph as purely distance-based (the paper's §4).
    pub require_los: bool,
    /// Maximum ISL neighbours per satellite (terminal count). Nearest
    /// neighbours win.
    pub max_isl_per_sat: usize,
    /// Minimum elevation (rad) for ground links.
    pub min_elevation_rad: f64,
    /// RF terminal class used for RF ISL budgets.
    pub rf_terminal: RfTerminal,
    /// RF band for ISLs.
    pub isl_band: RfBand,
    /// Optical terminal class used when both ends have lasers.
    pub optical_terminal: OpticalTerminal,
    /// Ground-link capacity (bit/s) — gateway-class, modeled as constant
    /// (the gateway dish dominates the budget).
    pub ground_link_bps: f64,
}

impl Default for SnapshotParams {
    fn default() -> Self {
        Self {
            max_isl_range_m: 5_000_000.0,
            los_clearance_m: 80_000.0,
            require_los: true,
            max_isl_per_sat: 4,
            min_elevation_rad: 10f64.to_radians(),
            rf_terminal: RfTerminal::midsat(),
            isl_band: RfBand::S,
            optical_terminal: OpticalTerminal::conlct80_class(),
            ground_link_bps: 500.0e6,
        }
    }
}

/// Capacity (bit/s) of an ISL between two satellites `distance_m` apart,
/// choosing optical when both ends have terminals, RF otherwise.
pub fn isl_capacity_bps(
    a_optical: bool,
    b_optical: bool,
    distance_m: f64,
    params: &SnapshotParams,
) -> (f64, LinkTech) {
    if a_optical && b_optical {
        let rate = optical_rate_bps(
            &params.optical_terminal,
            &params.optical_terminal,
            distance_m,
        );
        (rate, LinkTech::Optical)
    } else {
        let link = RfLink {
            tx: params.rf_terminal,
            rx: params.rf_terminal,
            band: params.isl_band,
            distance_m,
            extra_loss_db: 0.0,
        };
        (link.achievable_rate_bps(), LinkTech::Rf)
    }
}

/// Build the topology snapshot at time `t_s`.
///
/// Satellite nodes come first (`0..sats.len()`), then stations. ISLs are
/// chosen greedily: each satellite ranks in-range, in-sight peers by
/// distance and keeps at most `max_isl_per_sat`; a link exists when
/// *both* ends keep each other (mutual selection, matching how terminal
/// budgets bind on both spacecraft).
pub fn build_snapshot(
    t_s: f64,
    sats: &[SatNode],
    stations: &[GroundNode],
    params: &SnapshotParams,
) -> Graph {
    build_snapshot_recorded(t_s, sats, stations, params, &mut NullRecorder)
}

/// [`build_snapshot`] with telemetry — see
/// [`build_snapshot_from_samples_recorded`] for the counters.
pub fn build_snapshot_recorded(
    t_s: f64,
    sats: &[SatNode],
    stations: &[GroundNode],
    params: &SnapshotParams,
    rec: &mut dyn Recorder,
) -> Graph {
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
    build_snapshot_from_samples_recorded(sats, &samples, stations, params, rec)
}

/// [`build_snapshot`] with the per-satellite ephemeris already in hand —
/// the entry point for callers holding an
/// [`openspace_orbit::ephemeris::EphemerisCache`], which skips the
/// propagation and frame rotations entirely on cache hits.
///
/// `samples[i]` must be satellite `i`'s state at the snapshot instant;
/// the result is identical to [`build_snapshot`] at that instant.
pub fn build_snapshot_from_samples(
    sats: &[SatNode],
    samples: &[EphemerisSample],
    stations: &[GroundNode],
    params: &SnapshotParams,
) -> Graph {
    build_snapshot_from_samples_recorded(sats, samples, stations, params, &mut NullRecorder)
}

/// Relative inflation of the grid cell edge over `max_isl_range_m`,
/// large enough that — combined with the `|coord|/cell ≤ 1e9` fast-path
/// precondition — fp rounding of the cell quotients can never push an
/// in-range pair beyond adjacent cells (see the module docs).
const CELL_MARGIN: f64 = 1e-6;

/// Quotient cap for the grid fast path: with coordinates at most
/// `1e9` cells from the origin, a cell quotient carries at most
/// `1e9 · 2⁻⁵² ≈ 2.3e-7` of absolute rounding error, comfortably inside
/// [`CELL_MARGIN`].
const MAX_CELL_QUOTIENT: f64 = 1e9;

/// Relative inflation of the ground-link range gate: several orders of
/// magnitude above the fp error of the squared-norm comparison it
/// guards, several below anything that would admit extra work.
const GROUND_GATE_MARGIN: f64 = 1e-9;

/// The 13 "forward" neighbour offsets: half of the 26 adjacent cells,
/// chosen lexicographically positive so each unordered cell pair is
/// visited exactly once.
const FORWARD_OFFSETS: [(i64, i64, i64); 13] = [
    (0, 0, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
];

/// Grid cell edge for the fast path, or `None` when the preconditions
/// fail and the builder must fall back to the exhaustive sweep
/// (infinite or non-positive range — `f64::INFINITY` is how the
/// "simplified simulation" study disables the range cut — or positions
/// too many cells from the origin for exact adjacency).
fn grid_cell_edge_m(max_isl_range_m: f64, pos_eci: &[Vec3]) -> Option<f64> {
    let cell = max_isl_range_m * (1.0 + CELL_MARGIN);
    if !cell.is_finite() || cell <= 0.0 {
        return None;
    }
    let mut max_abs: f64 = 0.0;
    for p in pos_eci {
        max_abs = max_abs.max(p.x.abs()).max(p.y.abs()).max(p.z.abs());
    }
    (max_abs.is_finite() && max_abs / cell <= MAX_CELL_QUOTIENT).then_some(cell)
}

/// [`build_snapshot_from_samples`] with telemetry: counts
/// `snapshot.pairs_tested` / `snapshot.pairs_pruned` (satellite pairs
/// that reached / never reached the range-and-LOS predicate) and
/// `snapshot.ground_tested` / `snapshot.ground_pruned` (station–satellite
/// pairs that reached / never reached the elevation test).
pub fn build_snapshot_from_samples_recorded(
    sats: &[SatNode],
    samples: &[EphemerisSample],
    stations: &[GroundNode],
    params: &SnapshotParams,
    rec: &mut dyn Recorder,
) -> Graph {
    assert_eq!(sats.len(), samples.len(), "one sample per satellite");
    let n = sats.len();
    let mut g = Graph::new(n, stations.len());
    let pos_eci: Vec<Vec3> = samples.iter().map(|s| s.eci).collect();

    // Candidate neighbour lists per satellite. The closure applies the
    // exact dense predicate to one `i < j` pair.
    let mut candidates: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut tested: u64 = 0;
    let mut test_pair = |i: usize, j: usize, candidates: &mut Vec<Vec<(usize, f64)>>| {
        debug_assert!(i < j);
        tested += 1;
        let d = pos_eci[i].distance(pos_eci[j]);
        if d <= params.max_isl_range_m
            && (!params.require_los
                || line_of_sight_with_clearance(pos_eci[i], pos_eci[j], params.los_clearance_m))
        {
            candidates[i].push((j, d));
            candidates[j].push((i, d));
        }
    };
    match grid_cell_edge_m(params.max_isl_range_m, &pos_eci) {
        Some(cell) => {
            let mut cells: BTreeMap<(i64, i64, i64), Vec<usize>> = BTreeMap::new();
            for (i, p) in pos_eci.iter().enumerate() {
                let key = (
                    (p.x / cell).floor() as i64,
                    (p.y / cell).floor() as i64,
                    (p.z / cell).floor() as i64,
                );
                cells.entry(key).or_default().push(i);
            }
            // BTreeMap iteration is key-ordered, so enumeration order is
            // deterministic — though the per-satellite sort below makes
            // the output independent of it anyway.
            for (&key, members) in &cells {
                for (a, &i) in members.iter().enumerate() {
                    for &j in &members[a + 1..] {
                        test_pair(i, j, &mut candidates);
                    }
                }
                for (dx, dy, dz) in FORWARD_OFFSETS {
                    if let Some(other) = cells.get(&(key.0 + dx, key.1 + dy, key.2 + dz)) {
                        for &i in members {
                            for &j in other {
                                test_pair(i.min(j), i.max(j), &mut candidates);
                            }
                        }
                    }
                }
            }
        }
        None => {
            for i in 0..n {
                for j in (i + 1)..n {
                    test_pair(i, j, &mut candidates);
                }
            }
        }
    }
    let total_pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
    rec.add("snapshot.pairs_tested", tested);
    rec.add("snapshot.pairs_pruned", total_pairs - tested);

    for c in candidates.iter_mut() {
        // (distance, peer index): exactly the order the dense sweep's
        // stable distance sort leaves its index-ascending pushes in.
        c.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        c.truncate(params.max_isl_per_sat);
    }
    // Mutual selection.
    for i in 0..n {
        for &(j, d) in &candidates[i] {
            if j > i && candidates[j].iter().any(|&(k, _)| k == i) {
                let (cap, tech) =
                    isl_capacity_bps(sats[i].has_optical, sats[j].has_optical, d, params);
                if cap > 0.0 {
                    g.add_bidirectional(
                        i,
                        j,
                        d / SPEED_OF_LIGHT_M_PER_S,
                        cap,
                        sats[i].operator,
                        sats[j].operator,
                        tech,
                    );
                }
            }
        }
    }

    // Ground links: every station links to every visible satellite,
    // behind the per-station max-slant-range prune (module docs).
    let r_max_fleet = samples
        .iter()
        .map(|s| s.ecef.norm())
        .fold(f64::NEG_INFINITY, f64::max);
    let mask = params
        .min_elevation_rad
        .clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
    let mut ground_tested: u64 = 0;
    let mut ground_pruned: u64 = 0;
    for (gi, st) in stations.iter().enumerate() {
        let gs_node = g.station_node(gi);
        let site_radius = st.position_ecef.norm();
        let gate_sq = if site_radius > 0.0 && r_max_fleet >= site_radius {
            let gate = slant_range_at_elevation_m(site_radius, r_max_fleet, mask)
                * (1.0 + GROUND_GATE_MARGIN);
            gate.is_finite().then_some(gate * gate)
        } else {
            None
        };
        for (si, _s) in sats.iter().enumerate() {
            let sat_ecef = samples[si].ecef;
            if let Some(gate_sq) = gate_sq {
                if (sat_ecef - st.position_ecef).norm_sq() > gate_sq {
                    ground_pruned += 1;
                    continue;
                }
            }
            ground_tested += 1;
            if let Some(d) =
                visible_slant_range_m(st.position_ecef, sat_ecef, params.min_elevation_rad)
            {
                g.add_bidirectional(
                    si,
                    gs_node,
                    d / SPEED_OF_LIGHT_M_PER_S,
                    params.ground_link_bps,
                    sats[si].operator,
                    st.operator,
                    LinkTech::Rf,
                );
            }
        }
    }
    rec.add("snapshot.ground_tested", ground_tested);
    rec.add("snapshot.ground_pruned", ground_pruned);
    g
}

/// The satellite (index into `sats`) nearest to a ground ECEF point that
/// is visible above `min_elevation_rad` at `t_s`, with its slant range.
pub fn best_access_satellite(
    ground_ecef: Vec3,
    sats: &[SatNode],
    t_s: f64,
    min_elevation_rad: f64,
) -> Option<(usize, f64)> {
    let ecefs: Vec<Vec3> = sats
        .iter()
        .map(|s| eci_to_ecef(s.propagator.position_eci(t_s), t_s))
        .collect();
    best_access_from_ecef(ground_ecef, &ecefs, min_elevation_rad)
}

/// [`best_access_satellite`] over already-computed satellite ECEF
/// positions (e.g. from an ephemeris cache).
///
/// Each candidate costs a single vector norm: the combined
/// [`visible_slant_range_m`] helper makes the visibility decision and
/// returns the slant range from the same `|sat − ground|` evaluation
/// (bitwise equal to the former `is_visible`-then-`distance` pair of
/// calls).
pub fn best_access_from_ecef(
    ground_ecef: Vec3,
    sat_ecef: &[Vec3],
    min_elevation_rad: f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &se) in sat_ecef.iter().enumerate() {
        if let Some(d) = visible_slant_range_m(ground_ecef, se, min_elevation_rad) {
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
    }
    best
}

/// Convenience: the ECI position of a ground ECEF point at time `t_s`
/// (for mixing ground points into ECI-frame computations).
pub fn ground_eci(ground_ecef: Vec3, t_s: f64) -> Vec3 {
    ecef_to_eci(ground_ecef, t_s)
}

/// Test oracle for [`build_snapshot_from_samples`], not a production
/// path: the exhaustive sweep the range-gated builder must match bit
/// for bit. The equivalence property suite and the paired bench kernels
/// call it.
pub mod reference {
    use super::{isl_capacity_bps, GroundNode, SatNode, SnapshotParams};
    use crate::topology::{Graph, LinkTech};
    use openspace_orbit::constants::SPEED_OF_LIGHT_M_PER_S;
    use openspace_orbit::ephemeris::EphemerisSample;
    use openspace_orbit::frames::Vec3;
    use openspace_orbit::visibility::{is_visible, line_of_sight_with_clearance};

    /// The exhaustive reference builder: all `N(N−1)/2` satellite pairs
    /// tested, every station×satellite elevation evaluated — the original
    /// quadratic sweep, kept verbatim as ground truth for the equivalence
    /// property test and the paired bench kernels. Production callers use
    /// [`build_snapshot_from_samples`](super::build_snapshot_from_samples).
    pub fn build_snapshot_from_samples_dense(
        sats: &[SatNode],
        samples: &[EphemerisSample],
        stations: &[GroundNode],
        params: &SnapshotParams,
    ) -> Graph {
        assert_eq!(sats.len(), samples.len(), "one sample per satellite");
        let mut g = Graph::new(sats.len(), stations.len());
        let pos_eci: Vec<Vec3> = samples.iter().map(|s| s.eci).collect();

        // Candidate neighbour lists per satellite.
        let mut candidates: Vec<Vec<(usize, f64)>> = vec![Vec::new(); sats.len()];
        for i in 0..sats.len() {
            for j in (i + 1)..sats.len() {
                let d = pos_eci[i].distance(pos_eci[j]);
                if d <= params.max_isl_range_m
                    && (!params.require_los
                        || line_of_sight_with_clearance(
                            pos_eci[i],
                            pos_eci[j],
                            params.los_clearance_m,
                        ))
                {
                    candidates[i].push((j, d));
                    candidates[j].push((i, d));
                }
            }
        }
        for c in candidates.iter_mut() {
            c.sort_by(|a, b| a.1.total_cmp(&b.1));
            c.truncate(params.max_isl_per_sat);
        }
        // Mutual selection.
        for i in 0..sats.len() {
            for &(j, d) in &candidates[i] {
                if j > i && candidates[j].iter().any(|&(k, _)| k == i) {
                    let (cap, tech) =
                        isl_capacity_bps(sats[i].has_optical, sats[j].has_optical, d, params);
                    if cap > 0.0 {
                        g.add_bidirectional(
                            i,
                            j,
                            d / SPEED_OF_LIGHT_M_PER_S,
                            cap,
                            sats[i].operator,
                            sats[j].operator,
                            tech,
                        );
                    }
                }
            }
        }

        // Ground links: every station links to every visible satellite.
        for (gi, st) in stations.iter().enumerate() {
            let gs_node = g.station_node(gi);
            for (si, _s) in sats.iter().enumerate() {
                let sat_ecef = samples[si].ecef;
                if is_visible(st.position_ecef, sat_ecef, params.min_elevation_rad) {
                    let d = st.position_ecef.distance(sat_ecef);
                    g.add_bidirectional(
                        si,
                        gs_node,
                        d / SPEED_OF_LIGHT_M_PER_S,
                        params.ground_link_bps,
                        sats[si].operator,
                        st.operator,
                        LinkTech::Rf,
                    );
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GraphDelta, TopologyError};

    use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
    use openspace_orbit::propagator::PerturbationModel;
    use openspace_orbit::visibility::is_visible;
    use openspace_orbit::walker::{iridium_params, walker_star};

    fn iridium_nodes(optical: bool) -> Vec<SatNode> {
        walker_star(&iridium_params())
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, el)| SatNode {
                propagator: Propagator::new(el, PerturbationModel::TwoBody),
                operator: (i % 4) as u32,
                has_optical: optical,
            })
            .collect()
    }

    fn station(lat: f64, lon: f64) -> GroundNode {
        GroundNode {
            position_ecef: geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 0.0)),
            operator: 99,
        }
    }

    #[test]
    fn iridium_snapshot_is_connected() {
        let sats = iridium_nodes(false);
        let g = build_snapshot(0.0, &sats, &[], &SnapshotParams::default());
        let reach = g.reachable_from(0);
        let count = reach.iter().filter(|&&r| r).count();
        assert_eq!(count, 66, "Iridium ISL mesh must be connected");
    }

    #[test]
    fn degree_bounded_by_terminal_count() {
        let sats = iridium_nodes(false);
        let p = SnapshotParams::default();
        let g = build_snapshot(0.0, &sats, &[], &p);
        for i in 0..66 {
            assert!(
                g.degree(i) <= p.max_isl_per_sat,
                "sat {i} degree {}",
                g.degree(i)
            );
        }
    }

    #[test]
    fn isl_links_are_mutual() {
        let sats = iridium_nodes(false);
        let g = build_snapshot(0.0, &sats, &[], &SnapshotParams::default());
        for i in 0..66 {
            for e in g.edges(i) {
                assert!(
                    g.find_edge(e.to, i).is_some(),
                    "edge {i}->{} not mirrored",
                    e.to
                );
            }
        }
    }

    #[test]
    fn optical_fleet_gets_optical_links() {
        let sats = iridium_nodes(true);
        let g = build_snapshot(0.0, &sats, &[], &SnapshotParams::default());
        let mut saw_optical = false;
        for i in 0..g.satellite_count() {
            for e in g.edges(i) {
                if e.to < g.satellite_count() {
                    assert_eq!(e.technology, LinkTech::Optical);
                    saw_optical = true;
                }
            }
        }
        assert!(saw_optical);
    }

    #[test]
    fn optical_capacity_beats_rf() {
        let p = SnapshotParams::default();
        let d = 2_000_000.0;
        let (rf, t1) = isl_capacity_bps(false, false, d, &p);
        let (opt, t2) = isl_capacity_bps(true, true, d, &p);
        assert_eq!(t1, LinkTech::Rf);
        assert_eq!(t2, LinkTech::Optical);
        assert!(opt > rf * 10.0, "optical {opt} vs rf {rf}");
    }

    #[test]
    fn mixed_pair_falls_back_to_rf() {
        let p = SnapshotParams::default();
        let (_, tech) = isl_capacity_bps(true, false, 1e6, &p);
        assert_eq!(tech, LinkTech::Rf);
    }

    #[test]
    fn stations_link_to_overhead_satellites() {
        let sats = iridium_nodes(false);
        let st = [station(0.0, 0.0), station(45.0, 90.0)];
        let g = build_snapshot(0.0, &sats, &st, &SnapshotParams::default());
        for gi in 0..2 {
            let node = g.station_node(gi);
            assert!(
                g.degree(node) >= 1,
                "station {gi} sees no satellite (degree 0)"
            );
        }
    }

    #[test]
    fn ground_links_respect_elevation_mask() {
        let sats = iridium_nodes(false);
        let st = [station(0.0, 0.0)];
        let strict = SnapshotParams {
            min_elevation_rad: 85f64.to_radians(),
            ..SnapshotParams::default()
        };
        let g_strict = build_snapshot(0.0, &sats, &st, &strict);
        let g_loose = build_snapshot(0.0, &sats, &st, &SnapshotParams::default());
        assert!(
            g_strict.degree(g_strict.station_node(0)) <= g_loose.degree(g_loose.station_node(0))
        );
    }

    #[test]
    fn best_access_satellite_finds_nearest() {
        let sats = iridium_nodes(false);
        let ground = geodetic_to_ecef(Geodetic::from_degrees(10.0, 20.0, 0.0));
        let got = best_access_satellite(ground, &sats, 0.0, 10f64.to_radians());
        if let Some((idx, dist)) = got {
            assert!(idx < sats.len());
            // Nearest visible: verify no other visible sat is closer.
            for (i, s) in sats.iter().enumerate() {
                let se = eci_to_ecef(s.propagator.position_eci(0.0), 0.0);
                if is_visible(ground, se, 10f64.to_radians()) {
                    assert!(ground.distance(se) >= dist - 1e-6, "sat {i} closer");
                }
            }
        } else {
            panic!("Iridium leaves no coverage gap at 10 deg mask");
        }
    }

    #[test]
    fn gated_builder_matches_dense_and_prunes() {
        use openspace_telemetry::MemoryRecorder;
        let sats = iridium_nodes(false);
        let samples: Vec<EphemerisSample> = sats
            .iter()
            .map(|s| {
                let eci = s.propagator.position_eci(1234.0);
                EphemerisSample {
                    eci,
                    ecef: eci_to_ecef(eci, 1234.0),
                }
            })
            .collect();
        let st = [station(0.0, 0.0), station(45.0, 90.0)];
        let params = SnapshotParams::default();
        let mut rec = MemoryRecorder::new();
        let gated = build_snapshot_from_samples_recorded(&sats, &samples, &st, &params, &mut rec);
        let dense = reference::build_snapshot_from_samples_dense(&sats, &samples, &st, &params);
        assert_eq!(gated, dense);
        let tested = rec.counter("snapshot.pairs_tested");
        let pruned = rec.counter("snapshot.pairs_pruned");
        assert_eq!(tested + pruned, 66 * 65 / 2);
        assert!(pruned > 0, "the grid should prune far-apart Iridium pairs");
        assert!(
            rec.counter("snapshot.ground_pruned") > 0,
            "most of the shell is beyond each station's slant-range gate"
        );
    }

    #[test]
    fn infinite_range_falls_back_to_exhaustive_sweep() {
        use openspace_telemetry::MemoryRecorder;
        // The "simplified simulation" study disables the range cut with
        // an infinite max_isl_range_m; the grid cannot bucket that and
        // must fall back to testing every pair.
        let sats = iridium_nodes(false);
        let params = SnapshotParams {
            max_isl_range_m: f64::INFINITY,
            require_los: false,
            ..SnapshotParams::default()
        };
        let mut rec = MemoryRecorder::new();
        let gated = build_snapshot_recorded(0.0, &sats, &[], &params, &mut rec);
        let samples: Vec<EphemerisSample> = sats
            .iter()
            .map(|s| {
                let eci = s.propagator.position_eci(0.0);
                EphemerisSample {
                    eci,
                    ecef: eci_to_ecef(eci, 0.0),
                }
            })
            .collect();
        let dense = reference::build_snapshot_from_samples_dense(&sats, &samples, &[], &params);
        assert_eq!(gated, dense);
        assert_eq!(rec.counter("snapshot.pairs_tested"), 66 * 65 / 2);
        assert_eq!(rec.counter("snapshot.pairs_pruned"), 0);
    }

    #[test]
    fn snapshot_delta_replays_to_fresh_build() {
        let sats = iridium_nodes(false);
        let st = [station(0.0, 0.0)];
        let params = SnapshotParams::default();
        let g0 = build_snapshot(0.0, &sats, &st, &params);
        let g1 = build_snapshot(120.0, &sats, &st, &params);
        let d = GraphDelta::between(&g0, &g1).unwrap();
        assert!(!d.is_empty(), "Iridium contacts churn over two minutes");
        let mut patched = g0.clone();
        patched.apply_delta(&d).unwrap();
        assert_eq!(patched, g1);
        // Roster disagreement is an error, not a bad patch.
        assert!(matches!(
            GraphDelta::between(&g0, &build_snapshot(120.0, &sats, &[], &params)),
            Err(TopologyError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_constellation_gives_empty_graph() {
        let g = build_snapshot(0.0, &[], &[station(0.0, 0.0)], &SnapshotParams::default());
        assert_eq!(g.edge_count(), 0);
        assert!(best_access_satellite(station(0.0, 0.0).position_ecef, &[], 0.0, 0.0).is_none());
    }
}
