//! Property test pinning the sorted traffic ledger's contract:
//! [`TrafficLedger`] built in bulk ([`TrafficLedger::from_items`]),
//! item by item ([`TrafficLedger::record_raw`], [`TrafficLedger::record`])
//! or both, holds exactly what the `BTreeMap` oracle in
//! `openspace_economics::ledger::reference` holds: the same items in the
//! same order, the same per-pair byte totals and telemetry counters, the
//! same reconciliations and settlements whose every net position is
//! bitwise equal.
//!
//! Cases are seeded: several operators, self-carried items, duplicate
//! keys (a small key space), zero-byte items, and items handed in
//! shuffled, in ascending runs (as demand ticks produce them) or in
//! descending order. Byte counts span ~40 bits and rates are not round,
//! so a settlement that summed any invoice in another order would
//! differ in its last bits.

use openspace_economics::ledger::{reconcile, reference, BillingKey, Reconciliation};
use openspace_economics::prelude::*;
use openspace_protocol::accounting::AccountingRecord;
use openspace_protocol::crypto::SharedSecret;
use openspace_protocol::types::{OperatorId, SatelliteId};
use openspace_sim::prelude::SimRng;
use openspace_telemetry::MemoryRecorder;
use std::collections::BTreeMap;

const CASES: u64 = 96;

/// Items per ledger owner, in the order they are handed in.
type Items = BTreeMap<OperatorId, Vec<(BillingKey, u64)>>;

struct Case {
    ops: Vec<OperatorId>,
    items: Items,
    prices: PriceBook,
}

fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
}

fn random_case(rng: &mut SimRng) -> Case {
    let ops: Vec<OperatorId> = (1..=1 + rng.index(4) as u32).map(OperatorId).collect();
    let pick = |rng: &mut SimRng| ops[rng.index(ops.len())];
    let flows = 1 + rng.below(24);
    let intervals = 1 + rng.below(4);
    let mut items: Items = ops.iter().map(|&op| (op, Vec::new())).collect();
    for _ in 0..rng.index(400) {
        let origin = pick(rng);
        let carrier = if rng.chance(0.25) { origin } else { pick(rng) };
        let key = BillingKey::new(
            rng.below(flows),
            origin,
            carrier,
            rng.below(intervals) * 60_000,
        );
        let bytes = if rng.chance(0.05) {
            0
        } else {
            rng.below(1 << 40)
        };
        // The origin logs from its route knowledge, the carrier from its
        // own counters (sometimes inflated); a stray third view makes
        // one-sided items.
        if rng.chance(0.85) {
            items.get_mut(&origin).unwrap().push((key, bytes));
        }
        if carrier != origin && rng.chance(0.85) {
            let claim = if rng.chance(0.1) { bytes + 1 } else { bytes };
            items.get_mut(&carrier).unwrap().push((key, claim));
        }
        if rng.chance(0.05) {
            items.get_mut(&pick(rng)).unwrap().push((key, bytes));
        }
    }
    for v in items.values_mut() {
        match rng.index(3) {
            0 => shuffle(v, rng),
            1 => {
                // Ascending runs, as successive demand ticks hand them in.
                let run = 1 + rng.index(v.len().max(1));
                for chunk in v.chunks_mut(run) {
                    chunk.sort_by_key(|&(k, _)| k);
                }
            }
            _ => v.sort_by_key(|&(k, _)| std::cmp::Reverse(k)),
        }
    }
    let mut prices = PriceBook::new(rng.uniform_range(0.1, 9.0));
    for &carrier in &ops {
        for &origin in &ops {
            if rng.chance(0.5) {
                prices.set_rate(carrier, origin, rng.uniform_range(0.1, 9.0));
            }
        }
    }
    Case { ops, items, prices }
}

fn signed(key: BillingKey, bytes: u64) -> AccountingRecord {
    AccountingRecord::create(
        key.flow_id,
        key.origin,
        key.carrier,
        SatelliteId(1),
        bytes,
        key.interval_start_ms,
        key.interval_start_ms + 60_000,
        &SharedSecret::derive(u64::from(key.carrier.0), "carrier"),
    )
}

/// The four ways to build one owner's ledger from its items.
fn builds(items: &[(BillingKey, u64)], split: usize) -> [(&'static str, TrafficLedger); 4] {
    let mut raw = TrafficLedger::new();
    let mut signed_records = TrafficLedger::new();
    for &(key, bytes) in items {
        raw.record_raw(key, bytes);
        signed_records.record(&signed(key, bytes));
    }
    let mut mixed = TrafficLedger::from_items(items[..split].to_vec());
    for &(key, bytes) in &items[split..] {
        mixed.record_raw(key, bytes);
    }
    [
        ("from_items", TrafficLedger::from_items(items.to_vec())),
        ("record_raw", raw),
        ("record", signed_records),
        ("from_items+record_raw", mixed),
    ]
}

fn oracle(items: &[(BillingKey, u64)]) -> reference::TrafficLedger {
    let mut l = reference::TrafficLedger::new();
    for &(key, bytes) in items {
        l.record_raw(key, bytes);
    }
    l
}

fn reconciliation_parts(r: &Reconciliation) -> (usize, u64, Vec<Dispute>) {
    (r.agreed, r.agreed_bytes, r.disputes.clone())
}

#[test]
fn sorted_ledger_matches_the_btreemap_oracle() {
    let (mut coalesced, mut disputes, mut agreed, mut settled) = (0usize, 0usize, 0usize, 0usize);
    for case in 0..CASES {
        let mut rng = SimRng::substream(0x1ED6, case);
        let c = random_case(&mut rng);
        let splits: BTreeMap<OperatorId, usize> = c
            .items
            .iter()
            .map(|(&op, v)| (op, rng.index(v.len() + 1)))
            .collect();
        let want: BTreeMap<OperatorId, reference::TrafficLedger> =
            c.items.iter().map(|(&op, v)| (op, oracle(v))).collect();
        let mut built: [BTreeMap<OperatorId, TrafficLedger>; 4] = Default::default();
        let mut names = [""; 4];
        for (&op, v) in &c.items {
            for (i, (name, ledger)) in builds(v, splits[&op]).into_iter().enumerate() {
                names[i] = name;
                built[i].insert(op, ledger);
            }
            coalesced += v.len() - want[&op].len();
        }

        for (name, ledgers) in names.iter().zip(&built) {
            let ctx = format!("case {case}, {name}");
            for (op, l) in ledgers {
                let w = &want[op];
                let got: Vec<(BillingKey, u64)> = l.iter().map(|(&k, &b)| (k, b)).collect();
                let exp: Vec<(BillingKey, u64)> = w.iter().map(|(&k, &b)| (k, b)).collect();
                assert_eq!(got, exp, "{ctx}: items of {op:?}");
                assert_eq!(l.len(), w.len(), "{ctx}: len of {op:?}");
                assert_eq!(l.is_empty(), w.is_empty(), "{ctx}: is_empty of {op:?}");
                let (mut got_rec, mut exp_rec) = (MemoryRecorder::new(), MemoryRecorder::new());
                l.metrics_into(&mut got_rec);
                w.metrics_into(&mut exp_rec);
                for key in ["ledger.records", "ledger.bytes"] {
                    assert_eq!(
                        got_rec.counter(key),
                        exp_rec.counter(key),
                        "{ctx}: {key} of {op:?}"
                    );
                }
                for &origin in &c.ops {
                    for &carrier in &c.ops {
                        assert_eq!(
                            l.bytes_carried(origin, carrier),
                            w.bytes_carried(origin, carrier),
                            "{ctx}: {op:?} bytes {origin:?}->{carrier:?}"
                        );
                    }
                }
            }
            for (a, la) in ledgers {
                for (b, lb) in ledgers {
                    for &op_a in &c.ops {
                        for &op_b in &c.ops {
                            let got = reconcile(la, lb, op_a, op_b);
                            let exp = reference::reconcile(&want[a], &want[b], op_a, op_b);
                            assert_eq!(
                                reconciliation_parts(&got),
                                reconciliation_parts(&exp),
                                "{ctx}: reconcile {a:?}/{b:?} over {op_a:?}-{op_b:?}"
                            );
                            disputes += got.disputes.len();
                            agreed += got.agreed;
                        }
                    }
                }
            }
            let got = SettlementMatrix::from_ledgers(ledgers, &c.prices);
            let exp = reference::settle(&want, &c.prices);
            for &op in &c.ops {
                assert_eq!(
                    got.net_position(op).to_bits(),
                    exp.net_position(op).to_bits(),
                    "{ctx}: net position of {op:?}"
                );
                for &payee in &c.ops {
                    assert_eq!(
                        got.owed(op, payee).to_bits(),
                        exp.owed(op, payee).to_bits(),
                        "{ctx}: {op:?} owes {payee:?}"
                    );
                }
            }
            settled += got.operators().len();
        }
    }
    // The suite must reach what it claims to check.
    assert!(coalesced > 0, "no duplicate keys were coalesced");
    assert!(
        disputes > 0 && agreed > 0,
        "{disputes} disputes, {agreed} agreed"
    );
    assert!(settled > 0, "no case settled any money");
}
