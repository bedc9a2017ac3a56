//! Delay-tolerant networking: contact graphs and earliest-arrival
//! routing.
//!
//! §2 warns that a non-collaborating operator's satellites "may be
//! completely disconnected from the rest of their infrastructure for
//! significant periods of time". Because orbits are public, those
//! disconnections are *scheduled*: the operator can compute every future
//! contact and route bundles store-and-forward along them — the
//! contact-graph routing used by DTN stacks. This module provides the
//! machinery, and experiment `exp_dtn` uses it to quantify the price of
//! flying solo (minutes of bundle latency) against federated relay
//! (milliseconds).
//!
//! Faults compose naturally with custody transfer:
//! [`earliest_arrival_with_retry`] routes around *unscheduled* node
//! outages by having the custodian re-attempt a failed transfer under a
//! capped exponential backoff ([`RetryPolicy`]) before the bundle is
//! considered stuck on that contact.

use crate::isl::{build_snapshot, GroundNode, SatNode, SnapshotParams};
use openspace_sim::ids::NodeId;

/// Error from the DTN routing API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtnError {
    /// A node index referred past the contact plan's node count.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the plan.
        len: usize,
    },
    /// No contact sequence delivers the bundle.
    NoRoute,
}

impl std::fmt::Display for DtnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtnError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range (plan has {len} nodes)")
            }
            DtnError::NoRoute => write!(f, "no contact sequence reaches the destination"),
        }
    }
}

impl std::error::Error for DtnError {}

/// One scheduled communication opportunity between two nodes.
///
/// Node indexing matches the snapshot convention: satellites first, then
/// ground stations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contact {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Window start (s).
    pub start_s: f64,
    /// Window end (s).
    pub end_s: f64,
    /// One-way propagation latency during the window (s, mean).
    pub latency_s: f64,
    /// Link rate during the window (bit/s, minimum over samples).
    pub rate_bps: f64,
}

impl Contact {
    /// Window duration (s).
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Sample the time-varying topology into a contact plan over
/// `[t_start_s, t_end_s)` at `step_s` resolution. Directed contacts; a
/// bidirectional link yields two.
///
/// # Panics
/// Panics if `step_s <= 0` or the interval is inverted.
pub fn sample_contacts(
    sats: &[SatNode],
    stations: &[GroundNode],
    t_start_s: f64,
    t_end_s: f64,
    step_s: f64,
    params: &SnapshotParams,
) -> Vec<Contact> {
    assert!(step_s > 0.0, "step must be positive");
    assert!(t_end_s >= t_start_s, "interval inverted");
    let n_nodes = sats.len() + stations.len();
    // open[(from, to)] = (start, latency_sum, samples, min_rate)
    let mut open: std::collections::HashMap<(NodeId, NodeId), (f64, f64, u32, f64)> =
        std::collections::HashMap::new();
    let mut out = Vec::new();
    let steps = ((t_end_s - t_start_s) / step_s).ceil() as usize;

    for k in 0..=steps {
        let t = (t_start_s + k as f64 * step_s).min(t_end_s);
        let mut present = vec![false; n_nodes * n_nodes];
        if t < t_end_s {
            let g = build_snapshot(t, sats, stations, params);
            for from in 0..n_nodes {
                for e in g.edges(from) {
                    present[from * n_nodes + e.to.0] = true;
                    let entry =
                        open.entry((NodeId(from), e.to))
                            .or_insert((t, 0.0, 0, f64::INFINITY));
                    entry.1 += e.latency_s;
                    entry.2 += 1;
                    entry.3 = entry.3.min(e.capacity_bps);
                }
            }
        }
        // Close contacts that vanished (or everything at the horizon).
        let to_close: Vec<(NodeId, NodeId)> = open
            .keys()
            .filter(|&&(f, to)| t >= t_end_s || !present[f.0 * n_nodes + to.0])
            .copied()
            .collect();
        for key in to_close {
            if let Some((start, lat_sum, n, min_rate)) = open.remove(&key) {
                out.push(Contact {
                    from: key.0,
                    to: key.1,
                    start_s: start,
                    end_s: t,
                    latency_s: lat_sum / n as f64,
                    rate_bps: min_rate,
                });
            }
        }
        if t >= t_end_s {
            break;
        }
    }
    out.sort_by(|a, b| {
        a.start_s
            .total_cmp(&b.start_s)
            .then(a.from.cmp(&b.from))
            .then(a.to.cmp(&b.to))
    });
    out
}

/// A computed DTN route.
#[derive(Debug, Clone, PartialEq)]
pub struct DtnRoute {
    /// When the bundle arrives at the destination (s).
    pub arrival_s: f64,
    /// Node sequence, source first.
    pub nodes: Vec<NodeId>,
    /// Custody-transfer retries spent along the route (0 without faults).
    pub retries: u32,
}

impl DtnRoute {
    /// Store-and-forward hops taken.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

/// Custody-transfer retry policy: capped exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Transmission attempts per contact (the first try included).
    pub max_attempts: u32,
    /// Backoff before the first retry (s); doubles per retry.
    pub base_backoff_s: f64,
    /// Backoff ceiling (s).
    pub max_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_s: 1.0,
            max_backoff_s: 60.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff (s) before retry number `retry` (1-based):
    /// `min(base · 2^(retry−1), max)`.
    pub fn backoff_s(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(52);
        (self.base_backoff_s * (1u64 << exp) as f64).min(self.max_backoff_s)
    }
}

/// A time span during which one node is failed, as seen by the DTN
/// custodians (derived from a compiled fault plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutageWindow {
    /// The failed node.
    pub node: NodeId,
    /// Outage start (s).
    pub start_s: f64,
    /// Outage end (s); `f64::INFINITY` for permanent failures.
    pub end_s: f64,
}

impl NodeOutageWindow {
    fn overlaps(&self, node: NodeId, from_s: f64, to_s: f64) -> bool {
        self.node == node && self.start_s < to_s && from_s < self.end_s
    }
}

/// Earliest-arrival routing over a contact plan (contact-graph routing's
/// core): starting at `src` at `t_start_s` with a bundle of
/// `bundle_bits`, find the earliest time the bundle can reach `dst`,
/// waiting in storage for future contacts as needed.
///
/// A contact is usable if the bundle is present at `contact.from` before
/// `contact.end`, and transmission (`bundle_bits / rate`) completes
/// within the window. Errs with [`DtnError::NoRoute`] when no contact
/// sequence delivers the bundle.
pub fn earliest_arrival(
    contacts: &[Contact],
    n_nodes: usize,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    t_start_s: f64,
    bundle_bits: f64,
) -> Result<DtnRoute, DtnError> {
    earliest_arrival_with_retry(
        contacts,
        n_nodes,
        src,
        dst,
        t_start_s,
        bundle_bits,
        &[],
        RetryPolicy::default(),
    )
}

/// [`earliest_arrival`] under unscheduled node outages, with custody
/// retry: when a transfer would overlap an outage of either endpoint,
/// the custodian holds the bundle and re-attempts after a capped
/// exponential backoff, up to `retry.max_attempts` tries per contact.
/// The returned route reports the total retries spent.
#[allow(clippy::too_many_arguments)] // routing problem + fault model, all load-bearing
pub fn earliest_arrival_with_retry(
    contacts: &[Contact],
    n_nodes: usize,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    t_start_s: f64,
    bundle_bits: f64,
    outages: &[NodeOutageWindow],
    retry: RetryPolicy,
) -> Result<DtnRoute, DtnError> {
    earliest_arrival_with_retry_recorded(
        contacts,
        n_nodes,
        src,
        dst,
        t_start_s,
        bundle_bits,
        outages,
        retry,
        &mut openspace_telemetry::NullRecorder,
    )
}

/// [`earliest_arrival_with_retry`] with telemetry: counts routed bundles
/// (`dtn.bundles_routed`), custody retries spent by delivered bundles
/// (`dtn.custody_retries`), and routing failures (`dtn.no_route`).
/// Delivered bundles also contribute a `dtn.delivery_delay_s` histogram
/// sample (arrival minus injection time).
#[allow(clippy::too_many_arguments)] // routing problem + fault model + telemetry sink
pub fn earliest_arrival_with_retry_recorded(
    contacts: &[Contact],
    n_nodes: usize,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    t_start_s: f64,
    bundle_bits: f64,
    outages: &[NodeOutageWindow],
    retry: RetryPolicy,
    rec: &mut dyn openspace_telemetry::Recorder,
) -> Result<DtnRoute, DtnError> {
    let result = earliest_arrival_inner(
        contacts,
        n_nodes,
        src,
        dst,
        t_start_s,
        bundle_bits,
        outages,
        retry,
    );
    match &result {
        Ok(route) => {
            rec.add("dtn.bundles_routed", 1);
            rec.add("dtn.custody_retries", u64::from(route.retries));
            rec.observe("dtn.delivery_delay_s", route.arrival_s - t_start_s);
        }
        Err(DtnError::NoRoute) => rec.add("dtn.no_route", 1),
        Err(DtnError::NodeOutOfRange { .. }) => {}
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn earliest_arrival_inner(
    contacts: &[Contact],
    n_nodes: usize,
    src: impl Into<NodeId>,
    dst: impl Into<NodeId>,
    t_start_s: f64,
    bundle_bits: f64,
    outages: &[NodeOutageWindow],
    retry: RetryPolicy,
) -> Result<DtnRoute, DtnError> {
    let (src, dst) = (src.into(), dst.into());
    for node in [src, dst] {
        if node.0 >= n_nodes {
            return Err(DtnError::NodeOutOfRange { node, len: n_nodes });
        }
    }
    debug_assert!(bundle_bits >= 0.0);
    // Label-correcting over contacts sorted by start time. Because a
    // later contact can never improve an earlier arrival, one forward
    // pass over start-sorted contacts with re-scans on improvement is
    // exact; we use a simple fixed-point loop (contact plans here are
    // tens of thousands of entries at most).
    let mut best = vec![f64::INFINITY; n_nodes];
    let mut retries_at = vec![0u32; n_nodes];
    let mut prev: Vec<Option<NodeId>> = vec![None; n_nodes];
    best[src.0] = t_start_s;
    let mut changed = true;
    while changed {
        changed = false;
        for c in contacts {
            let ready = best[c.from.0];
            if ready.is_infinite() {
                continue;
            }
            let tx_time = if c.rate_bps > 0.0 {
                bundle_bits / c.rate_bps
            } else {
                f64::INFINITY
            };
            // Attempt the transfer, backing off past outages.
            let mut departure = ready.max(c.start_s);
            let mut spent_retries = 0u32;
            let arrival = loop {
                if departure + tx_time > c.end_s {
                    break None; // missed the window or doesn't fit
                }
                let arrival = departure + tx_time + c.latency_s;
                let blocked = outages.iter().any(|o| {
                    o.overlaps(c.from, departure, arrival) || o.overlaps(c.to, departure, arrival)
                });
                if !blocked {
                    break Some(arrival);
                }
                spent_retries += 1;
                if spent_retries >= retry.max_attempts {
                    break None; // custodian gives up on this contact
                }
                departure += retry.backoff_s(spent_retries);
            };
            let Some(arrival) = arrival else { continue };
            if arrival < best[c.to.0] {
                best[c.to.0] = arrival;
                retries_at[c.to.0] = retries_at[c.from.0] + spent_retries;
                prev[c.to.0] = Some(c.from);
                changed = true;
            }
        }
    }
    if best[dst.0].is_infinite() {
        return Err(DtnError::NoRoute);
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur.0] {
        nodes.push(p);
        cur = p;
        if cur == src {
            break;
        }
    }
    if nodes.last().copied() != Some(src) {
        nodes.push(src);
    }
    nodes.reverse();
    Ok(DtnRoute {
        arrival_s: best[dst.0],
        nodes,
        retries: retries_at[dst.0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_orbit::constants::km_to_m;
    use openspace_orbit::frames::{geodetic_to_ecef, Geodetic};
    use openspace_orbit::kepler::OrbitalElements;
    use openspace_orbit::propagator::{PerturbationModel, Propagator};

    fn contact(from: usize, to: usize, start: f64, end: f64) -> Contact {
        Contact {
            from: NodeId(from),
            to: NodeId(to),
            start_s: start,
            end_s: end,
            latency_s: 0.01,
            rate_bps: 1e6,
        }
    }

    #[test]
    fn direct_contact_routes_immediately() {
        let plan = [contact(0, 1, 0.0, 100.0)];
        let r = earliest_arrival(&plan, 2, 0, 1, 5.0, 1e6).unwrap();
        // Departure at 5, 1 s transmission, 10 ms propagation.
        assert!((r.arrival_s - 6.01).abs() < 1e-9);
        assert_eq!(r.nodes, vec![0usize, 1]);
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn waits_for_future_contact() {
        let plan = [contact(0, 1, 50.0, 100.0)];
        let r = earliest_arrival(&plan, 2, 0, 1, 0.0, 1e6).unwrap();
        assert!((r.arrival_s - 51.01).abs() < 1e-9, "{}", r.arrival_s);
    }

    #[test]
    fn store_and_forward_across_disjoint_windows() {
        // 0→1 early, 1→2 much later: the bundle waits at node 1.
        let plan = [contact(0, 1, 0.0, 10.0), contact(1, 2, 500.0, 600.0)];
        let r = earliest_arrival(&plan, 3, 0, 2, 0.0, 1e6).unwrap();
        assert_eq!(r.nodes, vec![0usize, 1, 2]);
        assert!((r.arrival_s - 501.01).abs() < 1e-9);
    }

    #[test]
    fn contacts_out_of_order_still_route() {
        // The later contact listed first: the fixed-point loop handles it.
        let plan = [contact(1, 2, 500.0, 600.0), contact(0, 1, 0.0, 10.0)];
        let r = earliest_arrival(&plan, 3, 0, 2, 0.0, 1e6).unwrap();
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn oversized_bundle_misses_window() {
        // 1 Mbit/s for 10 s = 10 Mbit capacity; a 20 Mbit bundle fails.
        let plan = [contact(0, 1, 0.0, 10.0)];
        assert_eq!(
            earliest_arrival(&plan, 2, 0, 1, 0.0, 2e7),
            Err(DtnError::NoRoute)
        );
        // But fits through a longer window.
        let plan2 = [contact(0, 1, 0.0, 30.0)];
        assert!(earliest_arrival(&plan2, 2, 0, 1, 0.0, 2e7).is_ok());
    }

    #[test]
    fn expired_contact_is_useless() {
        let plan = [contact(0, 1, 0.0, 10.0)];
        assert_eq!(
            earliest_arrival(&plan, 2, 0, 1, 50.0, 1e3),
            Err(DtnError::NoRoute)
        );
    }

    #[test]
    fn out_of_range_node_is_an_error_not_a_panic() {
        let plan = [contact(0, 1, 0.0, 10.0)];
        assert_eq!(
            earliest_arrival(&plan, 2, 0, 7, 0.0, 1.0),
            Err(DtnError::NodeOutOfRange {
                node: NodeId(7),
                len: 2
            })
        );
    }

    #[test]
    fn chooses_earlier_of_two_paths() {
        let plan = [
            contact(0, 1, 0.0, 10.0),
            contact(1, 3, 20.0, 30.0),
            contact(0, 2, 0.0, 10.0),
            contact(2, 3, 100.0, 110.0),
        ];
        let r = earliest_arrival(&plan, 4, 0, 3, 0.0, 1e6).unwrap();
        assert_eq!(r.nodes, vec![0usize, 1, 3]);
        assert!(r.arrival_s < 25.0);
    }

    #[test]
    fn unreachable_returns_no_route() {
        let plan = [contact(0, 1, 0.0, 10.0)];
        assert_eq!(
            earliest_arrival(&plan, 3, 0, 2, 0.0, 1.0),
            Err(DtnError::NoRoute)
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_s: 2.0,
            max_backoff_s: 9.0,
        };
        assert_eq!(p.backoff_s(1), 2.0);
        assert_eq!(p.backoff_s(2), 4.0);
        assert_eq!(p.backoff_s(3), 8.0);
        assert_eq!(p.backoff_s(4), 9.0, "capped");
        assert_eq!(p.backoff_s(30), 9.0);
    }

    #[test]
    fn custody_retry_rides_out_a_receiver_outage() {
        // Receiver down [0, 4): the first try at t=0 fails, backoff 1 s
        // (t=1, still down), 2 s (t=3, still down), 4 s → t=7 succeeds.
        let plan = [contact(0, 1, 0.0, 100.0)];
        let outage = [NodeOutageWindow {
            node: NodeId(1),
            start_s: 0.0,
            end_s: 4.0,
        }];
        let r =
            earliest_arrival_with_retry(&plan, 2, 0, 1, 0.0, 1e6, &outage, RetryPolicy::default())
                .unwrap();
        assert_eq!(r.retries, 3);
        assert!((r.arrival_s - 8.01).abs() < 1e-9, "{}", r.arrival_s);
    }

    #[test]
    fn custody_gives_up_after_max_attempts() {
        // Outage outlasts every backoff the policy allows.
        let plan = [contact(0, 1, 0.0, 100.0)];
        let outage = [NodeOutageWindow {
            node: NodeId(1),
            start_s: 0.0,
            end_s: 99.0,
        }];
        let r = earliest_arrival_with_retry(
            &plan,
            2,
            0,
            1,
            0.0,
            1e6,
            &outage,
            RetryPolicy {
                max_attempts: 3,
                base_backoff_s: 1.0,
                max_backoff_s: 60.0,
            },
        );
        assert_eq!(r, Err(DtnError::NoRoute));
    }

    #[test]
    fn no_outages_means_no_retries() {
        let plan = [contact(0, 1, 0.0, 100.0), contact(1, 2, 0.0, 200.0)];
        let plain = earliest_arrival(&plan, 3, 0, 2, 0.0, 1e6).unwrap();
        let with =
            earliest_arrival_with_retry(&plan, 3, 0, 2, 0.0, 1e6, &[], RetryPolicy::default())
                .unwrap();
        assert_eq!(plain, with);
        assert_eq!(with.retries, 0);
    }

    #[test]
    fn recorded_route_reports_retries_and_delay() {
        use openspace_telemetry::MemoryRecorder;
        let plan = [contact(0, 1, 0.0, 100.0)];
        let outage = [NodeOutageWindow {
            node: NodeId(1),
            start_s: 0.0,
            end_s: 4.0,
        }];
        let mut rec = MemoryRecorder::new();
        let r = earliest_arrival_with_retry_recorded(
            &plan,
            2,
            0,
            1,
            0.0,
            1e6,
            &outage,
            RetryPolicy::default(),
            &mut rec,
        )
        .unwrap();
        assert_eq!(rec.counter("dtn.bundles_routed"), 1);
        assert_eq!(rec.counter("dtn.custody_retries"), u64::from(r.retries));
        let delay = rec.histogram("dtn.delivery_delay_s").unwrap();
        assert_eq!(delay.count(), 1);
        assert!((delay.mean() - r.arrival_s).abs() < 1e-9);
    }

    #[test]
    fn recorded_no_route_bumps_the_failure_counter() {
        use openspace_telemetry::MemoryRecorder;
        let plan = [contact(0, 1, 0.0, 10.0)];
        let mut rec = MemoryRecorder::new();
        let r = earliest_arrival_with_retry_recorded(
            &plan,
            3,
            0,
            2,
            0.0,
            1.0,
            &[],
            RetryPolicy::default(),
            &mut rec,
        );
        assert_eq!(r, Err(DtnError::NoRoute));
        assert_eq!(rec.counter("dtn.no_route"), 1);
        assert_eq!(rec.counter("dtn.bundles_routed"), 0);
    }

    #[test]
    fn sampled_contacts_from_single_orbit() {
        // One satellite over one station: contacts must match the pass
        // structure (a few per day, minutes long).
        let sat = SatNode {
            propagator: Propagator::new(
                OrbitalElements::circular(km_to_m(780.0), 86.4, 0.0, 0.0).unwrap(),
                PerturbationModel::TwoBody,
            ),
            operator: 0,
            has_optical: false,
        };
        let st = GroundNode {
            position_ecef: geodetic_to_ecef(Geodetic::from_degrees(0.0, 0.0, 0.0)),
            operator: 0,
        };
        let contacts = sample_contacts(
            &[sat],
            &[st],
            0.0,
            86_400.0,
            30.0,
            &SnapshotParams::default(),
        );
        // Directed: up and down per pass.
        assert!(!contacts.is_empty());
        assert_eq!(contacts.len() % 2, 0);
        for c in &contacts {
            assert!(c.duration_s() >= 30.0);
            assert!(c.duration_s() < 1_200.0);
            assert!(c.rate_bps > 0.0);
            assert!(c.latency_s > 0.0 && c.latency_s < 0.02);
        }
    }

    #[test]
    fn bundle_flows_sat_to_station_via_plan() {
        // End-to-end: compute the plan, then route a bundle from the
        // satellite (node 0) to the station (node 1).
        let sat = SatNode {
            propagator: Propagator::new(
                OrbitalElements::circular(km_to_m(780.0), 86.4, 40.0, 180.0).unwrap(),
                PerturbationModel::TwoBody,
            ),
            operator: 0,
            has_optical: false,
        };
        let st = GroundNode {
            position_ecef: geodetic_to_ecef(Geodetic::from_degrees(10.0, 20.0, 0.0)),
            operator: 0,
        };
        let contacts = sample_contacts(
            &[sat],
            &[st],
            0.0,
            86_400.0,
            30.0,
            &SnapshotParams::default(),
        );
        let r = earliest_arrival(&contacts, 2, 0, 1, 0.0, 8.0 * 1e6).unwrap();
        assert!(r.arrival_s > 0.0 && r.arrival_s < 86_400.0);
        assert_eq!(r.nodes, vec![0usize, 1]);
    }
}
