//! Per-operator traffic ledgers and cross-verification.
//!
//! §3: "The volume of traffic along this path is tracked by all parties
//! involved to create an easily cross-verifiable account of the extent to
//! which any given ISP's traffic was carried by the rest of the network."
//!
//! Implementation: each operator keeps a [`TrafficLedger`] holding the
//! signed [`AccountingRecord`]s it emitted (as a carrier) and observed
//! (as the origin whose home ISP sees the full route, per §3's
//! "full knowledge and control of the topology of routes"). Reconciling
//! the ledgers of two operators flags every flow-interval on which their
//! byte counts disagree.
//!
//! Layout: a ledger is a `Vec` of `(BillingKey, bytes)` items sorted by
//! key, each key once, plus a small sorted table of byte totals per
//! `(origin, carrier)` pair. [`TrafficLedger::from_items`] builds one in
//! bulk with one stable sort and an in-place coalesce of equal keys;
//! [`TrafficLedger::bytes_carried`] reads the pair table instead of
//! scanning the items, [`reconcile`] is one merge of two sorted ledgers,
//! and iteration is in key order, so settlement adds every invoice's
//! floats in the same order however the ledger was built.
//! [`TrafficLedger::record`] and [`TrafficLedger::record_raw`] stay for
//! incremental callers: a binary search, then an accumulate in place or
//! an insert that shifts the items after it, O(n) per new key. Bulk
//! billing (a day of demand ticks) should use `from_items`.
//! [`reference`](mod@reference) keeps the `BTreeMap` ledger as the test
//! oracle.

use openspace_protocol::accounting::AccountingRecord;
use openspace_protocol::types::OperatorId;

/// Key identifying one billable item: a flow carried by one operator in
/// one reporting interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BillingKey {
    /// The flow.
    pub flow_id: u64,
    /// Who pays (origin operator).
    pub origin: OperatorId,
    /// Who carried (carrier operator).
    pub carrier: OperatorId,
    /// Interval start (ms).
    pub interval_start_ms: u64,
}

impl BillingKey {
    /// Build a key from raw parts — for callers (demand-weighted
    /// ledgers, synthetic workloads) that bill traffic which never
    /// passed through a signed [`AccountingRecord`].
    pub fn new(
        flow_id: u64,
        origin: OperatorId,
        carrier: OperatorId,
        interval_start_ms: u64,
    ) -> Self {
        Self {
            flow_id,
            origin,
            carrier,
            interval_start_ms,
        }
    }

    /// Extract the key from a record.
    pub fn of(rec: &AccountingRecord) -> Self {
        Self {
            flow_id: rec.flow_id,
            origin: rec.origin_operator,
            carrier: rec.carrier_operator,
            interval_start_ms: rec.interval_start_ms,
        }
    }
}

/// One operator's view of who carried what.
#[derive(Debug, Clone, Default)]
pub struct TrafficLedger {
    /// Billable items, ascending by key, each key once.
    entries: Vec<(BillingKey, u64)>,
    /// Byte totals per `(origin, carrier)`, ascending by pair.
    pair_bytes: Vec<((OperatorId, OperatorId), u64)>,
}

impl TrafficLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// A ledger holding `items`, built in bulk: the same ledger as
    /// [`record_raw`](Self::record_raw) of each item in turn, at the
    /// cost of one sort. Items that share a key are summed in place.
    pub fn from_items(mut items: Vec<(BillingKey, u64)>) -> Self {
        // Stable sort: it merges the ascending runs callers usually
        // hand in (one per demand tick) instead of re-sorting them.
        items.sort_by_key(|&(key, _)| key);
        items.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        let mut ledger = Self::default();
        for &(key, bytes) in &items {
            ledger.add_pair_bytes(key, bytes);
        }
        ledger.entries = items;
        ledger
    }

    /// Record (or accumulate) a record's byte count.
    pub fn record(&mut self, rec: &AccountingRecord) {
        self.record_raw(BillingKey::of(rec), rec.bytes_carried);
    }

    /// Record raw fields without a signed record (the origin side logs
    /// from its own route knowledge).
    pub fn record_raw(&mut self, key: BillingKey, bytes: u64) {
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.entries[i].1 += bytes,
            Err(i) => self.entries.insert(i, (key, bytes)),
        }
        self.add_pair_bytes(key, bytes);
    }

    fn add_pair_bytes(&mut self, key: BillingKey, bytes: u64) {
        let pair = (key.origin, key.carrier);
        match self.pair_bytes.binary_search_by_key(&pair, |&(p, _)| p) {
            Ok(i) => self.pair_bytes[i].1 += bytes,
            Err(i) => self.pair_bytes.insert(i, (pair, bytes)),
        }
    }

    /// Total bytes this ledger attributes to `carrier` carrying traffic
    /// that originated at `origin`.
    pub fn bytes_carried(&self, origin: OperatorId, carrier: OperatorId) -> u64 {
        self.pair_bytes
            .binary_search_by_key(&(origin, carrier), |&(p, _)| p)
            .map_or(0, |i| self.pair_bytes[i].1)
    }

    /// Number of billable items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&BillingKey, &u64)> {
        self.entries.iter().map(|(key, bytes)| (key, bytes))
    }

    /// Dump this ledger's aggregates into a telemetry recorder:
    /// `ledger.records` (billable items) and `ledger.bytes` (total bytes
    /// across all items) counters.
    pub fn metrics_into(&self, rec: &mut dyn openspace_telemetry::Recorder) {
        rec.add("ledger.records", self.entries.len() as u64);
        rec.add(
            "ledger.bytes",
            self.pair_bytes.iter().map(|&(_, b)| b).sum(),
        );
    }
}

/// One disagreement found by reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispute {
    /// The disputed item.
    pub key: BillingKey,
    /// Bytes per the first ledger (0 when absent).
    pub bytes_a: u64,
    /// Bytes per the second ledger (0 when absent).
    pub bytes_b: u64,
}

/// Reconciliation outcome between two ledgers.
#[derive(Debug, Clone, Default)]
pub struct Reconciliation {
    /// Items both ledgers agree on.
    pub agreed: usize,
    /// Items where the counts differ (including one-sided entries).
    pub disputes: Vec<Dispute>,
    /// Total agreed bytes.
    pub agreed_bytes: u64,
}

impl Reconciliation {
    /// Whether the ledgers match exactly.
    pub fn is_clean(&self) -> bool {
        self.disputes.is_empty()
    }
}

/// Cross-verify two ledgers over the billing items involving the pair
/// `(origin, carrier)` in either direction. Items involving third parties
/// are ignored — each bilateral relationship reconciles independently.
///
/// One merge of the two key-sorted ledgers: disputes come out in key
/// order.
pub fn reconcile(
    a: &TrafficLedger,
    b: &TrafficLedger,
    op_a: OperatorId,
    op_b: OperatorId,
) -> Reconciliation {
    let relevant = |&&(k, _): &&(BillingKey, u64)| {
        (k.origin == op_a && k.carrier == op_b) || (k.origin == op_b && k.carrier == op_a)
    };
    let mut ia = a.entries.iter().filter(relevant).peekable();
    let mut ib = b.entries.iter().filter(relevant).peekable();

    let mut out = Reconciliation::default();
    loop {
        let (key, va, vb) = match (ia.peek(), ib.peek()) {
            (None, None) => break,
            (Some(&&(ka, va)), Some(&&(kb, vb))) if ka == kb => {
                ia.next();
                ib.next();
                (ka, va, vb)
            }
            (Some(&&(ka, va)), Some(&&(kb, _))) if ka < kb => {
                ia.next();
                (ka, va, 0)
            }
            (Some(&&(ka, va)), None) => {
                ia.next();
                (ka, va, 0)
            }
            (_, Some(&&(kb, vb))) => {
                ib.next();
                (kb, 0, vb)
            }
        };
        if va == vb {
            out.agreed += 1;
            out.agreed_bytes += va;
        } else {
            out.disputes.push(Dispute {
                key,
                bytes_a: va,
                bytes_b: vb,
            });
        }
    }
    out
}

/// Test oracle for [`TrafficLedger`], [`reconcile`] and settlement,
/// not a production path: the `BTreeMap` ledger the sorted one must
/// match item for item and bit for bit. The ledger equivalence property
/// suite and `core::demand`'s tests call it.
pub mod reference {
    use super::{AccountingRecord, BillingKey, Dispute, OperatorId, Reconciliation};
    use crate::settlement::{PriceBook, SettlementMatrix, GIB};
    use std::collections::BTreeMap;

    /// One operator's view of who carried what.
    #[derive(Debug, Clone, Default)]
    pub struct TrafficLedger {
        entries: BTreeMap<BillingKey, u64>,
    }

    impl TrafficLedger {
        /// An empty ledger.
        pub fn new() -> Self {
            Self::default()
        }

        /// Record (or accumulate) a record's byte count.
        pub fn record(&mut self, rec: &AccountingRecord) {
            *self.entries.entry(BillingKey::of(rec)).or_insert(0) += rec.bytes_carried;
        }

        /// Record raw fields without a signed record (the origin side logs
        /// from its own route knowledge).
        pub fn record_raw(&mut self, key: BillingKey, bytes: u64) {
            *self.entries.entry(key).or_insert(0) += bytes;
        }

        /// Total bytes this ledger attributes to `carrier` carrying traffic
        /// that originated at `origin`.
        pub fn bytes_carried(&self, origin: OperatorId, carrier: OperatorId) -> u64 {
            self.entries
                .iter()
                .filter(|(k, _)| k.origin == origin && k.carrier == carrier)
                .map(|(_, &v)| v)
                .sum()
        }

        /// Number of billable items.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether the ledger is empty.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Iterate entries in key order (deterministic).
        pub fn iter(&self) -> impl Iterator<Item = (&BillingKey, &u64)> {
            self.entries.iter()
        }

        /// Dump this ledger's aggregates into a telemetry recorder:
        /// `ledger.records` (billable items) and `ledger.bytes` (total bytes
        /// across all items) counters.
        pub fn metrics_into(&self, rec: &mut dyn openspace_telemetry::Recorder) {
            rec.add("ledger.records", self.entries.len() as u64);
            rec.add("ledger.bytes", self.entries.values().sum());
        }
    }

    /// Cross-verify two ledgers over the billing items involving the pair
    /// `(origin, carrier)` in either direction. Items involving third parties
    /// are ignored — each bilateral relationship reconciles independently.
    pub fn reconcile(
        a: &TrafficLedger,
        b: &TrafficLedger,
        op_a: OperatorId,
        op_b: OperatorId,
    ) -> Reconciliation {
        let relevant = |k: &BillingKey| {
            (k.origin == op_a && k.carrier == op_b) || (k.origin == op_b && k.carrier == op_a)
        };
        let mut keys: Vec<BillingKey> = a
            .entries
            .keys()
            .chain(b.entries.keys())
            .filter(|k| relevant(k))
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();

        let mut out = Reconciliation::default();
        for k in keys {
            let va = a.entries.get(&k).copied().unwrap_or(0);
            let vb = b.entries.get(&k).copied().unwrap_or(0);
            if va == vb {
                out.agreed += 1;
                out.agreed_bytes += va;
            } else {
                out.disputes.push(Dispute {
                    key: k,
                    bytes_a: va,
                    bytes_b: vb,
                });
            }
        }
        out
    }

    /// [`SettlementMatrix::from_ledgers`] over reference ledgers: one
    /// invoice-map update per billable item, in each carrier's key order.
    pub fn settle(
        ledgers: &BTreeMap<OperatorId, TrafficLedger>,
        prices: &PriceBook,
    ) -> SettlementMatrix {
        let mut invoices: BTreeMap<(OperatorId, OperatorId), f64> = BTreeMap::new();
        for (&carrier, ledger) in ledgers {
            for (key, &bytes) in ledger.iter() {
                if key.carrier == carrier && key.origin != carrier {
                    let usd = bytes as f64 / GIB * prices.rate(carrier, key.origin);
                    *invoices.entry((key.origin, carrier)).or_insert(0.0) += usd;
                }
            }
        }
        SettlementMatrix::from_invoices(invoices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openspace_protocol::crypto::SharedSecret;
    use openspace_protocol::types::SatelliteId;

    fn rec(flow: u64, origin: u32, carrier: u32, bytes: u64, start: u64) -> AccountingRecord {
        AccountingRecord::create(
            flow,
            OperatorId(origin),
            OperatorId(carrier),
            SatelliteId(1),
            bytes,
            start,
            start + 60_000,
            &SharedSecret::derive(carrier as u64, "carrier"),
        )
    }

    #[test]
    fn record_accumulates_same_key() {
        let mut l = TrafficLedger::new();
        l.record(&rec(1, 1, 2, 100, 0));
        l.record(&rec(1, 1, 2, 50, 0));
        assert_eq!(l.bytes_carried(OperatorId(1), OperatorId(2)), 150);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn different_intervals_are_separate_items() {
        let mut l = TrafficLedger::new();
        l.record(&rec(1, 1, 2, 100, 0));
        l.record(&rec(1, 1, 2, 100, 60_000));
        assert_eq!(l.len(), 2);
        assert_eq!(l.bytes_carried(OperatorId(1), OperatorId(2)), 200);
    }

    #[test]
    fn matching_ledgers_reconcile_clean() {
        let mut a = TrafficLedger::new();
        let mut b = TrafficLedger::new();
        for l in [&mut a, &mut b] {
            l.record(&rec(1, 1, 2, 100, 0));
            l.record(&rec(2, 1, 2, 300, 0));
        }
        let r = reconcile(&a, &b, OperatorId(1), OperatorId(2));
        assert!(r.is_clean());
        assert_eq!(r.agreed, 2);
        assert_eq!(r.agreed_bytes, 400);
    }

    #[test]
    fn mismatched_bytes_flagged() {
        let mut a = TrafficLedger::new();
        let mut b = TrafficLedger::new();
        a.record(&rec(1, 1, 2, 100, 0));
        b.record(&rec(1, 1, 2, 120, 0)); // carrier claims more
        let r = reconcile(&a, &b, OperatorId(1), OperatorId(2));
        assert_eq!(r.disputes.len(), 1);
        assert_eq!(r.disputes[0].bytes_a, 100);
        assert_eq!(r.disputes[0].bytes_b, 120);
    }

    #[test]
    fn one_sided_entry_is_a_dispute() {
        let mut a = TrafficLedger::new();
        let b = TrafficLedger::new();
        a.record(&rec(9, 2, 1, 55, 0));
        let r = reconcile(&a, &b, OperatorId(1), OperatorId(2));
        assert_eq!(r.disputes.len(), 1);
        assert_eq!(r.disputes[0].bytes_b, 0);
    }

    #[test]
    fn third_party_items_ignored() {
        let mut a = TrafficLedger::new();
        let b = TrafficLedger::new();
        a.record(&rec(1, 1, 3, 100, 0)); // involves op 3, not op 2
        let r = reconcile(&a, &b, OperatorId(1), OperatorId(2));
        assert!(r.is_clean());
        assert_eq!(r.agreed, 0);
    }

    #[test]
    fn reconcile_covers_both_directions() {
        let mut a = TrafficLedger::new();
        let mut b = TrafficLedger::new();
        // 1's traffic carried by 2, and 2's traffic carried by 1.
        for l in [&mut a, &mut b] {
            l.record(&rec(1, 1, 2, 100, 0));
            l.record(&rec(2, 2, 1, 80, 0));
        }
        let r = reconcile(&a, &b, OperatorId(1), OperatorId(2));
        assert_eq!(r.agreed, 2);
        assert_eq!(r.agreed_bytes, 180);
    }
}
