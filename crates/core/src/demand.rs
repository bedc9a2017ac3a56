//! Bridging the demand layer onto the federation and the simulator.
//!
//! `openspace-demand` knows *where users are and what they offer*;
//! this module knows *which infrastructure serves them*. It attaches
//! each populated cell of a [`PopulationGrid`] to its covering access
//! satellite (and that satellite's operator) plus the nearest gateway
//! station, turns demand-model ticks into [`FlowSpec`] batches whose
//! node indices live on a concrete topology snapshot, registers one
//! representative subscriber per covered cell with the covering
//! operator, and converts demand-weighted traffic into per-operator
//! [`TrafficLedger`]s for settlement — the full path from "a million
//! users wake up" to "operator B invoices operator A".

use crate::federation::{Federation, FederationError, User};
use crate::netsim::{FlowSpec, TrafficKind};
use openspace_demand::grid::PopulationGrid;
use openspace_demand::mix::{AppClass, ArrivalKind};
use openspace_demand::model::DemandTick;
use openspace_economics::ledger::{BillingKey, TrafficLedger};
use openspace_net::isl::{best_access_from_ecef, GroundNode, SatNode};
use openspace_net::topology::Graph;
use openspace_orbit::frames::{eci_to_ecef, geodetic_to_ecef, Geodetic, Vec3};
use openspace_protocol::types::OperatorId;
use openspace_telemetry::Recorder;
use std::collections::BTreeMap;

/// One populated cell attached to serving infrastructure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellAttachment {
    /// Cell index in the population grid.
    pub cell: usize,
    /// Users in the cell.
    pub users: u64,
    /// Access satellite (index into the `sats` slice the attachment
    /// was computed against — equal to the graph's satellite index
    /// when the snapshot is built from the same slice).
    pub access_sat: usize,
    /// Operator owning the access satellite: the cell's home ISP.
    pub operator: OperatorId,
    /// Gateway station (index into the `stations` slice).
    pub gateway: usize,
    /// Operator owning the gateway station.
    pub gateway_operator: OperatorId,
    /// Slant range to the access satellite (m).
    pub slant_range_m: f64,
}

/// The demand-weighted coverage picture at one instant.
#[derive(Debug, Clone, Default)]
pub struct CellCoverage {
    /// Attachments for covered cells, ascending by cell index.
    pub attachments: Vec<CellAttachment>,
    /// Users in covered cells.
    pub covered_users: u64,
    /// Users in populated cells no satellite serves.
    pub uncovered_users: u64,
    /// Populated cells no satellite serves.
    pub uncovered_cells: u64,
}

impl CellCoverage {
    /// The attachment for `cell`, if it is covered (binary search —
    /// attachments are cell-ascending).
    pub fn attachment_for(&self, cell: usize) -> Option<&CellAttachment> {
        self.attachments
            .binary_search_by_key(&cell, |a| a.cell)
            .ok()
            .map(|i| &self.attachments[i])
    }

    /// Demand-weighted coverage: fraction of users in covered cells.
    pub fn covered_fraction(&self) -> f64 {
        let total = self.covered_users + self.uncovered_users;
        if total == 0 {
            return 0.0;
        }
        self.covered_users as f64 / total as f64
    }

    /// Users per home operator, ascending by operator id.
    pub fn users_by_operator(&self) -> BTreeMap<OperatorId, u64> {
        let mut out = BTreeMap::new();
        for a in &self.attachments {
            *out.entry(a.operator).or_insert(0) += a.users;
        }
        out
    }
}

/// Attach every populated cell of `grid` to the best visible access
/// satellite among `sats` at `t_s` (elevation-gated) and the nearest
/// station among `stations`. Cells with no visible satellite, or when
/// `stations` is empty, count as uncovered. Deterministic: ties on
/// slant range and station distance resolve to the lowest index.
pub fn attach_cells(
    grid: &PopulationGrid,
    sats: &[SatNode],
    stations: &[GroundNode],
    t_s: f64,
    min_elevation_rad: f64,
) -> CellCoverage {
    // Satellite positions once, not per cell.
    let sat_ecefs: Vec<Vec3> = sats
        .iter()
        .map(|s| eci_to_ecef(s.propagator.position_eci(t_s), t_s))
        .collect();
    let mut cov = CellCoverage::default();
    for (cell, users) in grid.populated_cells() {
        let (lat, lon) = grid.cell_center_deg(cell);
        let pos = geodetic_to_ecef(Geodetic::from_degrees(lat, lon, 0.0));
        let access = if stations.is_empty() {
            None
        } else {
            best_access_from_ecef(pos, &sat_ecefs, min_elevation_rad)
        };
        match access {
            Some((sat, slant)) => {
                let gateway = nearest_station(pos, stations);
                cov.attachments.push(CellAttachment {
                    cell,
                    users,
                    access_sat: sat,
                    operator: OperatorId(sats[sat].operator),
                    gateway,
                    gateway_operator: OperatorId(stations[gateway].operator),
                    slant_range_m: slant,
                });
                cov.covered_users += users;
            }
            None => {
                cov.uncovered_users += users;
                cov.uncovered_cells += 1;
            }
        }
    }
    cov
}

fn nearest_station(pos: Vec3, stations: &[GroundNode]) -> usize {
    let mut best = 0usize;
    let mut best_d2 = f64::INFINITY;
    for (i, s) in stations.iter().enumerate() {
        let d = [
            s.position_ecef.x - pos.x,
            s.position_ecef.y - pos.y,
            s.position_ecef.z - pos.z,
        ];
        let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        if d2 < best_d2 {
            best_d2 = d2;
            best = i;
        }
    }
    best
}

/// Statistics from mapping one demand tick onto a topology.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BridgeStats {
    /// Flows mapped onto graph nodes.
    pub flows_mapped: u64,
    /// Flows dropped because their cell is uncovered.
    pub flows_unserved: u64,
    /// Offered bits/s carried by unserved flows (unscaled).
    pub unserved_bps: f64,
}

/// Map one [`DemandTick`]'s flows onto `graph` using `coverage`:
/// each flow injects at its cell's access satellite and exits at the
/// cell's gateway station. `graph` must be built from the same
/// satellite/station slices the coverage was attached against (same
/// index space). Flows of uncovered cells are counted, not silently
/// dropped.
pub fn demand_flows_for(
    coverage: &CellCoverage,
    tick: &DemandTick,
    graph: &Graph,
) -> (Vec<FlowSpec>, BridgeStats) {
    let mut flows = Vec::with_capacity(tick.flows.len());
    let mut stats = BridgeStats::default();
    for f in &tick.flows {
        let Some(att) = coverage.attachment_for(f.cell) else {
            stats.flows_unserved += 1;
            stats.unserved_bps += f.offered_bps;
            continue;
        };
        let kind = match f.process {
            ArrivalKind::Cbr => TrafficKind::Cbr,
            ArrivalKind::Poisson => TrafficKind::Poisson,
            ArrivalKind::OnOff {
                mean_on_s,
                mean_off_s,
            } => TrafficKind::OnOff {
                mean_on_s,
                mean_off_s,
            },
        };
        flows.push(FlowSpec::new(
            graph.sat_node(att.access_sat),
            graph.station_node(att.gateway),
            f.rate_bps,
            f.packet_bytes,
            kind,
        ));
        stats.flows_mapped += 1;
    }
    (flows, stats)
}

/// Stable ledger flow id for a `(cell, class)` pair.
fn ledger_flow_id(cell: usize, class: AppClass) -> u64 {
    let class_idx = AppClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class is in ALL") as u64;
    (cell as u64) * AppClass::ALL.len() as u64 + class_idx
}

/// Convert demand ticks into per-operator traffic ledgers: each
/// covered flow bills `offered_bps · step_s / 8` bytes for the
/// interval starting at the tick's time, with the cell's home
/// operator as origin and the gateway's owner as carrier. Both sides
/// log every cross-operator item (so the pair reconciles cleanly);
/// same-operator traffic is recorded in the owner's ledger only and
/// never settles. Returns one ledger per operator appearing on either
/// side, plus the intra-operator byte total.
///
/// Each ledger is built in bulk ([`TrafficLedger::from_items`]) from
/// rows sized by a counting pass, so no row buffer ever grows.
pub fn demand_ledgers(
    coverage: &CellCoverage,
    ticks: &[DemandTick],
    step_s: f64,
) -> (BTreeMap<OperatorId, TrafficLedger>, u64) {
    // Attachment per cell index, for O(1) lookups in both passes.
    let mut by_cell: Vec<Option<&CellAttachment>> =
        vec![None; coverage.attachments.last().map_or(0, |a| a.cell + 1)];
    for a in &coverage.attachments {
        by_cell[a.cell] = Some(a);
    }
    let by_cell = &by_cell;
    // Every billable item in tick order: its key (origin = home
    // operator, carrier = gateway owner) and its bytes.
    let items = || {
        ticks.iter().flat_map(move |tick| {
            let interval_ms = (tick.t_s * 1000.0) as u64;
            tick.flows.iter().filter_map(move |f| {
                let att = (*by_cell.get(f.cell)?)?;
                let bytes = (f.offered_bps * step_s / 8.0) as u64;
                (bytes > 0).then(|| {
                    let key = BillingKey::new(
                        ledger_flow_id(f.cell, f.class),
                        att.operator,
                        att.gateway_operator,
                        interval_ms,
                    );
                    (key, bytes)
                })
            })
        })
    };
    let mut counts: BTreeMap<OperatorId, usize> = BTreeMap::new();
    for (key, _) in items() {
        *counts.entry(key.origin).or_default() += 1;
        if key.carrier != key.origin {
            *counts.entry(key.carrier).or_default() += 1;
        }
    }
    let mut rows: BTreeMap<OperatorId, Vec<(BillingKey, u64)>> = counts
        .into_iter()
        .map(|(op, n)| (op, Vec::with_capacity(n)))
        .collect();
    let mut push = |op: OperatorId, item: (BillingKey, u64)| {
        rows.get_mut(&op)
            .expect("the counting pass saw every operator")
            .push(item);
    };

    let mut intra_bytes = 0u64;
    for (key, bytes) in items() {
        push(key.origin, (key, bytes));
        if key.origin == key.carrier {
            intra_bytes += bytes;
        } else {
            // Origin logs from its route knowledge, carrier from its
            // gateway counters: identical here by construction,
            // which is exactly what reconciliation should find.
            push(key.carrier, (key, bytes));
        }
    }
    let ledgers = rows
        .into_iter()
        .map(|(op, r)| (op, TrafficLedger::from_items(r)))
        .collect();
    (ledgers, intra_bytes)
}

impl Federation {
    /// [`attach_cells`] against this federation's full fleet and
    /// ground segment at `t_s`, using the snapshot parameters'
    /// elevation mask — index-compatible with
    /// [`Federation::snapshot`].
    pub fn attach_demand_cells(&self, grid: &PopulationGrid, t_s: f64) -> CellCoverage {
        attach_cells(
            grid,
            &self.sat_nodes(),
            &self.ground_nodes(),
            t_s,
            self.snapshot_params.min_elevation_rad,
        )
    }

    /// [`attach_cells`] against a single member's solo fleet and
    /// stations (no collaboration) — index-compatible with
    /// [`Federation::solo_snapshot`].
    pub fn attach_demand_cells_solo(
        &self,
        op: OperatorId,
        grid: &PopulationGrid,
        t_s: f64,
    ) -> CellCoverage {
        attach_cells(
            grid,
            &self.sat_nodes_of(op),
            &self.ground_nodes_of(op),
            t_s,
            self.snapshot_params.min_elevation_rad,
        )
    }

    /// Register one representative subscriber per covered cell with
    /// the cell's covering operator (per-cell AAA state without
    /// deriving a million individual secrets). Returns the users in
    /// attachment (cell-ascending) order. Fails if a covering
    /// operator is not a member — attachments must come from this
    /// federation.
    pub fn register_cell_users(
        &mut self,
        coverage: &CellCoverage,
    ) -> Result<Vec<User>, FederationError> {
        let mut users = Vec::with_capacity(coverage.attachments.len());
        for att in &coverage.attachments {
            users.push(self.register_user(att.operator)?);
        }
        Ok(users)
    }
}

/// Record a coverage picture into telemetry: `demand.cells_covered` /
/// `demand.cells_uncovered` counters and the demand-weighted
/// `demand.covered_fraction` gauge.
pub fn record_coverage(coverage: &CellCoverage, rec: &mut dyn Recorder) {
    rec.add("demand.cells_covered", coverage.attachments.len() as u64);
    rec.add("demand.cells_uncovered", coverage.uncovered_cells);
    rec.gauge("demand.covered_fraction", coverage.covered_fraction());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{default_station_sites, iridium_federation};
    use openspace_demand::grid::PopulationConfig;
    use openspace_demand::mix::AppMix;
    use openspace_demand::model::{DemandConfig, DemandModel};
    use openspace_phy::hardware::SatelliteClass;

    fn small_grid() -> PopulationGrid {
        PopulationGrid::build(&PopulationConfig {
            lat_cells: 12,
            lon_cells: 24,
            total_users: 40_000,
            cities: 16,
            ..Default::default()
        })
        .unwrap()
    }

    fn test_federation(members: usize) -> Federation {
        iridium_federation(
            members,
            &[SatelliteClass::SmallSat],
            &default_station_sites(),
        )
    }

    #[test]
    fn full_fleet_covers_most_demand() {
        let fed = test_federation(4);
        let cov = fed.attach_demand_cells(&small_grid(), 0.0);
        assert!(
            cov.covered_fraction() > 0.5,
            "covered {}",
            cov.covered_fraction()
        );
        // Attachments are cell-ascending (binary-search invariant).
        for w in cov.attachments.windows(2) {
            assert!(w[0].cell < w[1].cell);
        }
    }

    #[test]
    fn solo_fleet_covers_less_than_the_federation() {
        let fed = test_federation(4);
        let grid = small_grid();
        let full = fed.attach_demand_cells(&grid, 0.0);
        let op = fed.operator_ids()[0];
        let solo = fed.attach_demand_cells_solo(op, &grid, 0.0);
        assert!(
            solo.covered_fraction() < full.covered_fraction(),
            "solo {} vs full {}",
            solo.covered_fraction(),
            full.covered_fraction()
        );
    }

    #[test]
    fn attachment_is_deterministic() {
        let fed = test_federation(4);
        let grid = small_grid();
        let a = fed.attach_demand_cells(&grid, 120.0);
        let b = fed.attach_demand_cells(&grid, 120.0);
        assert_eq!(a.attachments, b.attachments);
        assert_eq!(a.covered_users, b.covered_users);
    }

    #[test]
    fn demand_flows_map_onto_snapshot_nodes() {
        let fed = test_federation(4);
        let grid = small_grid();
        let cov = fed.attach_demand_cells(&grid, 0.0);
        let model = DemandModel::new(grid, AppMix::broadband(), DemandConfig::default()).unwrap();
        let tick = model.flows_at(12.0 * 3600.0);
        let graph = fed.snapshot(0.0);
        let (flows, stats) = demand_flows_for(&cov, &tick, &graph);
        assert!(!flows.is_empty());
        assert_eq!(stats.flows_mapped as usize, flows.len());
        assert_eq!(
            stats.flows_mapped + stats.flows_unserved,
            tick.flows.len() as u64
        );
        let n = graph.node_count();
        for f in &flows {
            assert!(f.src.0 < n && f.dst.0 < n);
            assert!(f.src != f.dst);
        }
    }

    #[test]
    fn cell_users_register_with_their_covering_operator() {
        let mut fed = test_federation(4);
        let cov = fed.attach_demand_cells(&small_grid(), 0.0);
        let users = fed.register_cell_users(&cov).unwrap();
        assert_eq!(users.len(), cov.attachments.len());
        for (u, att) in users.iter().zip(&cov.attachments) {
            assert_eq!(u.home, att.operator);
        }
        let by_op = cov.users_by_operator();
        assert_eq!(
            by_op.values().sum::<u64>(),
            cov.covered_users,
            "per-operator split must conserve users"
        );
    }

    #[test]
    fn demand_ledgers_cross_verify_and_settle() {
        use openspace_economics::settlement::{PriceBook, SettlementMatrix};
        let fed = test_federation(4);
        let grid = small_grid();
        let cov = fed.attach_demand_cells(&grid, 0.0);
        let model = DemandModel::new(grid, AppMix::broadband(), DemandConfig::default()).unwrap();
        let ticks = model.demand_timeline(21600.0, 86400.0 - 1.0, 2).unwrap();
        let (ledgers, _intra) = demand_ledgers(&cov, &ticks, 21600.0);
        assert!(!ledgers.is_empty());
        // Cross-operator items were logged by both sides: origin and
        // carrier agree on every pairwise byte count (the §3
        // cross-verification property).
        let ids = fed.operator_ids();
        let mut cross_bytes = 0u64;
        for &a in &ids {
            for &b in &ids {
                if a == b {
                    continue;
                }
                let origin_view = ledgers.get(&a).map_or(0, |l| l.bytes_carried(a, b));
                let carrier_view = ledgers.get(&b).map_or(0, |l| l.bytes_carried(a, b));
                assert_eq!(origin_view, carrier_view, "{a:?}->{b:?}");
                cross_bytes += origin_view;
            }
        }
        assert!(cross_bytes > 0, "expected cross-operator demand traffic");
        let m = SettlementMatrix::from_ledgers(&ledgers, &PriceBook::new(2.0));
        let net_sum: f64 = ids.iter().map(|&op| m.net_position(op)).sum();
        assert!(net_sum.abs() < 1e-6, "settlement must be zero-sum");
    }

    #[test]
    fn demand_ledgers_match_the_reference_ledger() {
        use openspace_economics::ledger::reference;
        use openspace_economics::settlement::{PriceBook, SettlementMatrix};
        let fed = test_federation(4);
        let grid = small_grid();
        let cov = fed.attach_demand_cells(&grid, 0.0);
        let model = DemandModel::new(grid, AppMix::broadband(), DemandConfig::default()).unwrap();
        let ticks = model.demand_timeline(3_600.0, 86_400.0 - 1.0, 1).unwrap();
        let (ledgers, intra) = demand_ledgers(&cov, &ticks, 3_600.0);

        // The oracle: one reference `record_raw` per item and side, in
        // tick order.
        let mut want: BTreeMap<OperatorId, reference::TrafficLedger> = BTreeMap::new();
        let mut want_intra = 0u64;
        for tick in &ticks {
            let interval_ms = (tick.t_s * 1000.0) as u64;
            for f in &tick.flows {
                let Some(att) = cov.attachment_for(f.cell) else {
                    continue;
                };
                let bytes = (f.offered_bps * 3_600.0 / 8.0) as u64;
                if bytes == 0 {
                    continue;
                }
                let key = BillingKey::new(
                    ledger_flow_id(f.cell, f.class),
                    att.operator,
                    att.gateway_operator,
                    interval_ms,
                );
                want.entry(att.operator).or_default().record_raw(key, bytes);
                if att.operator == att.gateway_operator {
                    want_intra += bytes;
                } else {
                    want.entry(att.gateway_operator)
                        .or_default()
                        .record_raw(key, bytes);
                }
            }
        }
        assert!(want_intra > 0, "expected intra-operator demand traffic");
        assert_eq!(intra, want_intra);
        assert_eq!(
            ledgers.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (op, l) in &ledgers {
            let got: Vec<_> = l.iter().collect();
            let exp: Vec<_> = want[op].iter().collect();
            assert_eq!(got, exp, "items of {op:?}");
            for origin in fed.operator_ids() {
                for carrier in fed.operator_ids() {
                    assert_eq!(
                        l.bytes_carried(origin, carrier),
                        want[op].bytes_carried(origin, carrier),
                        "{op:?} bytes {origin:?}->{carrier:?}"
                    );
                }
            }
        }
        // Not a power of two: at 2.0 every invoice line is a multiple of
        // 2^-30 USD and every sum is exact in any order.
        let prices = PriceBook::new(2.3);
        let got = SettlementMatrix::from_ledgers(&ledgers, &prices);
        let exp = reference::settle(&want, &prices);
        assert!(
            !exp.operators().is_empty(),
            "expected cross-operator settlement"
        );
        for op in fed.operator_ids() {
            assert_eq!(
                got.net_position(op).to_bits(),
                exp.net_position(op).to_bits(),
                "net position of {op:?}"
            );
        }
    }

    #[test]
    fn uncovered_cells_are_counted_not_dropped() {
        let fed = test_federation(1);
        let grid = small_grid();
        let op = fed.operator_ids()[0];
        let solo = fed.attach_demand_cells_solo(op, &grid, 0.0);
        let model = DemandModel::new(grid, AppMix::broadband(), DemandConfig::default()).unwrap();
        let tick = model.flows_at(12.0 * 3600.0);
        let graph = fed.solo_snapshot(op, 0.0);
        let (_, stats) = demand_flows_for(&solo, &tick, &graph);
        assert_eq!(
            stats.flows_mapped + stats.flows_unserved,
            tick.flows.len() as u64
        );
    }
}
