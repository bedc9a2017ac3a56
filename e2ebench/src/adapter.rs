//! Every call the benchmark makes into the simulator stack.
//!
//! The rest of the benchmark sees only the plain types defined here
//! ([`Workload`], [`Outcome`], [`SimCounts`], [`Trace`]), so an API
//! change in the program, such as merging a plain function with its
//! `*_recorded` twin, is a change to this file alone. `NetSimConfig`
//! is built by struct update from its default, so the engine choice is
//! the program's default and no engine option appears here.

use crate::measure::Fnv;
use openspace_bench::{
    access_satellite, nairobi_user, standard_federation, FIG2B_SIZES, FIG2C_SIZES,
};
use openspace_core::demand::{demand_flows_for, demand_ledgers, CellCoverage};
use openspace_core::netsim::{
    DemandWorkload, FlowSpec, NetSim, NetSimConfig, NetSimReport, RoutingMode, TrafficKind,
};
use openspace_core::study::{study_constellation, ScenarioRunner, StudyConfig};
use openspace_demand::grid::{PopulationConfig, PopulationGrid};
use openspace_demand::mix::AppMix;
use openspace_demand::model::{DemandConfig, DemandModel, DemandTick};
use openspace_economics::settlement::{PriceBook, SettlementMatrix};
use openspace_net::isl::SatNode;
use openspace_net::timeline::TopologyTimeline;
use openspace_net::topology::Graph;
use openspace_phy::hardware::SatelliteClass;
use openspace_protocol::types::OperatorId;
use openspace_sim::config::ConfigError;
use openspace_telemetry::{JsonValue, MemoryRecorder, Recorder};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Counters the program records, renamed to the benchmark's per-layer
/// names. Counters sum over the recorders of one phase; high-water
/// marks take the maximum.
const COUNTERS: [(&str, &str); 13] = [
    ("engine.events_processed", "netsim.events"),
    ("netsim.dropped", "netsim.dropped"),
    ("netsim.unroutable", "netsim.unroutable"),
    ("routing.recomputes", "routing.recomputes"),
    ("routing.nodes_visited", "routing.nodes_visited"),
    ("routing.planner.trees", "routing.planner.trees"),
    (
        "routing.planner.trees_reused",
        "routing.planner.trees_reused",
    ),
    ("netsim.replans", "netsim.replans"),
    ("netsim.timeline.deltas_applied", "netsim.deltas_applied"),
    ("netsim.resnapshot.links_churned", "netsim.links_churned"),
    (
        "netsim.resnapshot.packets_dropped",
        "netsim.resnapshot_dropped",
    ),
    ("snapshot.pairs_tested", "snapshot.pairs_tested"),
    ("snapshot.pairs_pruned", "snapshot.pairs_pruned"),
];
const MAXIMA: [(&str, &str); 2] = [
    ("engine.queue_depth_high_water", "netsim.queue_high_water"),
    ("netsim.engine.slab_high_water", "netsim.slab_high_water"),
];

/// Benchmark-side tracing of one phase (one set-up or one op): host
/// seconds per layer span and the counters the program recorded. A
/// disabled trace reads no clock and hands the program no recorder.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    on: bool,
    /// Host seconds per span name, summed over the phase.
    pub spans: BTreeMap<&'static str, f64>,
    /// Counts and high-water marks by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` as span `name`. Traced, `f` gets a fresh recorder whose
    /// counters are folded in afterwards; untraced it gets `None` and
    /// must call the plain, unrecorded function.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(Option<&mut dyn Recorder>) -> T) -> T {
        if !self.on {
            return f(None);
        }
        let mut rec = MemoryRecorder::new();
        let start = Instant::now();
        let out = f(Some(&mut rec));
        *self.spans.entry(name).or_default() += start.elapsed().as_secs_f64();
        self.absorb(&rec);
        out
    }

    fn absorb(&mut self, rec: &MemoryRecorder) {
        for (key, name) in COUNTERS {
            *self.counts.entry(name).or_default() += rec.counter(key) as f64;
        }
        for (key, name) in MAXIMA {
            let m = rec.maximum(key).unwrap_or(0.0);
            let slot = self.counts.entry(name).or_default();
            *slot = slot.max(m);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.insert(name, value);
        }
    }
}

/// Packet accounting of one `NetSim` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCounts {
    pub generated: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub unroutable: u64,
}

impl SimCounts {
    fn of(r: &NetSimReport) -> Self {
        Self {
            generated: r.generated,
            delivered: r.delivered,
            dropped: r.dropped,
            unroutable: r.unroutable,
        }
    }
}

/// What one op produced, in the benchmark's own terms.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Packet-engine runs, in call order. In E21 the federation's run
    /// comes first and its largest solo member's second.
    pub sims: Vec<SimCounts>,
    /// E21: the federation must out-deliver its largest solo member.
    pub federation_vs_solo: bool,
    /// Settlement net position per operator.
    pub net_positions: Vec<f64>,
    /// Cross-operator pairs whose origin and carrier ledgers disagree.
    pub ledger_view_mismatches: u64,
    /// Figure 2 points, one field list per point (`None` reads as NaN).
    pub study_points: Vec<Vec<f64>>,
    /// Points the sweeps should have returned.
    pub study_expected: usize,
    /// Simulated seconds covered by the op's `NetSim` runs.
    pub simulated_s: f64,
    /// Digest of every simulated output: reports by bits, settlement
    /// positions and study points.
    pub digest: u64,
}

/// The prepared inputs of one workload.
pub enum Workload {
    E21(Box<E21>),
    Churn(Box<Churn>),
    Fig2(Fig2),
}

impl Workload {
    /// Generate the named workload's inputs from `seed`.
    pub fn setup(name: &str, seed: u64, threads: usize, trace: &mut Trace) -> Result<Self, String> {
        Ok(match name {
            "e21_day_1x" => Self::E21(Box::new(E21::setup(seed, 1.5e-3, 96, threads, trace)?)),
            "e21_day_100x" => Self::E21(Box::new(E21::setup(seed, 0.15, 2_000, threads, trace)?)),
            "churn_adaptive" => Self::Churn(Box::new(Churn::setup(seed, threads, trace)?)),
            "fig2_sweep" => Self::Fig2(Fig2::setup(seed, threads)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Run one op.
    pub fn op(&self, trace: &mut Trace) -> Result<Outcome, String> {
        match self {
            Self::E21(w) => w.op(trace),
            Self::Churn(w) => w.op(trace),
            Self::Fig2(w) => Ok(w.op(trace)),
        }
    }

    /// Digest of the generated inputs, to show the seed reaches them.
    pub fn inputs_digest(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Self::E21(w) => {
                let grid = w.sim_model.grid();
                for cell in 0..grid.cell_count() {
                    h.u64(grid.users(cell));
                }
                for day in [&w.full_day, &w.solo_day] {
                    h.debug(&day.ticks());
                }
                h.u64(w.cfg.seed);
            }
            Self::Churn(w) => {
                h.debug(&w.flows);
                h.u64(w.cfg.seed);
            }
            Self::Fig2(w) => h.debug(&w.constellations),
        }
        h.finish()
    }

    /// Host seconds that recording into a `MemoryRecorder` adds to the
    /// op's packet-engine runs (recorded minus plain, same inputs), and
    /// whether recording left every report unchanged. `None` for
    /// workloads that run no recorder.
    pub fn telemetry_overhead(&self) -> Result<Option<(f64, bool)>, String> {
        let Self::E21(w) = self else {
            return Ok(None);
        };
        let mut recorded_s = 0.0;
        let mut plain_s = 0.0;
        let mut same = true;
        for (graph, day) in w.days() {
            let sim = NetSim::new(w.cfg).with_snapshot(graph).with_demand(day);
            let start = Instant::now();
            let recorded = sim.run_recorded(&[], &mut MemoryRecorder::new());
            recorded_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let plain = sim.run(&[]);
            plain_s += start.elapsed().as_secs_f64();
            let (recorded, plain) = (recorded.map_err(netsim_err)?, plain.map_err(netsim_err)?);
            same &= recorded == plain;
        }
        Ok(Some((recorded_s - plain_s, same)))
    }
}

fn netsim_err(e: impl std::fmt::Display) -> String {
    format!("netsim: {e}")
}

/// Distinct metric keys a recorder holds.
fn metric_keys(rec: &mut MemoryRecorder) -> Vec<String> {
    let JsonValue::Object(sections) = rec.deterministic_json() else {
        return Vec::new();
    };
    sections
        .into_iter()
        .flat_map(|(_, body)| match body {
            JsonValue::Object(entries) => entries.into_iter().map(|(k, _)| k).collect(),
            _ => Vec::new(),
        })
        .collect()
}

/// The population `exp_demand` ships with. The run's seed drives the
/// packet engine's arrival processes instead: another population would
/// change the size of the packet day by tens of percent from seed to
/// seed, so run-to-run figures would measure the seed, not the program.
const POPULATION_SEED: u64 = 13;

/// `exp_demand`'s pipeline (E21): a 1.2M-user diurnal day, a compressed
/// packet day for the federation and for its largest solo member, then
/// ledgers and settlement.
pub struct E21 {
    cfg: NetSimConfig,
    sim_model: DemandModel,
    coverage: CellCoverage,
    /// The hourly demand ticks the ledgers bill.
    ticks: Vec<DemandTick>,
    operators: Vec<OperatorId>,
    full_graph: Graph,
    solo_graph: Graph,
    full_day: DemandWorkload,
    solo_day: DemandWorkload,
}

impl E21 {
    fn setup(
        seed: u64,
        transport_scale: f64,
        max_flows_per_tick: usize,
        threads: usize,
        trace: &mut Trace,
    ) -> Result<Self, String> {
        let grid = trace
            .span("demand.population", |_| {
                PopulationGrid::build(&PopulationConfig {
                    lat_cells: 36,
                    lon_cells: 72,
                    total_users: 1_200_000,
                    cities: 160,
                    seed: POPULATION_SEED,
                    ..Default::default()
                })
            })
            .map_err(|e| format!("population: {e}"))?;
        let mut ticks = trace
            .span("demand.timeline", |rec| {
                let model =
                    DemandModel::new(grid.clone(), AppMix::broadband(), DemandConfig::default())?;
                match rec {
                    Some(rec) => model.demand_timeline_recorded(3_600.0, 86_400.0, threads, rec),
                    None => model.demand_timeline(3_600.0, 86_400.0, threads),
                }
            })
            .map_err(|e| format!("demand timeline: {e}"))?;
        if ticks.len() < 24 {
            return Err(format!("demand timeline has {} ticks, not 24", ticks.len()));
        }
        ticks.truncate(24);

        let fed = standard_federation(4, &[SatelliteClass::SmallSat]);
        let operators = fed.operator_ids();
        let (coverage, solo_op, solo_cov) = trace
            .span("demand.attach", |_| {
                let coverage = fed.attach_demand_cells(&grid, 0.0);
                let mut largest: Option<(OperatorId, CellCoverage)> = None;
                for &op in &operators {
                    let solo = fed.attach_demand_cells_solo(op, &grid, 0.0);
                    if largest
                        .as_ref()
                        .is_none_or(|(_, best)| solo.covered_users > best.covered_users)
                    {
                        largest = Some((op, solo));
                    }
                }
                largest.map(|(op, solo)| (coverage, op, solo))
            })
            .ok_or("the federation has no operators")?;
        let (full_graph, solo_graph) = trace.span("topology.snapshot", |rec| {
            let full = match rec {
                Some(rec) => fed.snapshot_recorded(0.0, rec),
                None => fed.snapshot(0.0),
            };
            (full, fed.solo_snapshot(solo_op, 0.0))
        });

        // One real day cannot run at packet granularity, so hour h of
        // the demand model becomes simulated second 5·h.
        let sim_model = DemandModel::new(
            grid,
            AppMix::broadband(),
            DemandConfig {
                transport_scale,
                min_flow_bps: 2.0e3,
                max_flows_per_tick,
                ..Default::default()
            },
        )
        .map_err(|e| format!("demand model: {e}"))?;
        let (full_day, solo_day, mapped) = trace
            .span("demand.batches", |_| {
                let mut mapped = 0u64;
                let mut day = |cov: &CellCoverage, graph: &Graph| {
                    let batches = (0..24u32)
                        .map(|h| {
                            let tick = sim_model.flows_at(f64::from(h) * 3_600.0);
                            let (flows, stats) = demand_flows_for(cov, &tick, graph);
                            mapped += stats.flows_mapped;
                            (f64::from(h) * 5.0, flows)
                        })
                        .collect();
                    DemandWorkload::new(batches)
                };
                let full = day(&coverage, &full_graph)?;
                let solo = day(&solo_cov, &solo_graph)?;
                Ok::<_, ConfigError>((full, solo, mapped))
            })
            .map_err(|e| format!("demand batches: {e}"))?;
        trace.set("demand.flows_mapped", mapped as f64);

        Ok(Self {
            cfg: NetSimConfig {
                duration_s: 125.0,
                queue_capacity_bytes: 512 * 1024,
                routing: RoutingMode::Proactive,
                seed,
                ..Default::default()
            },
            sim_model,
            coverage,
            ticks,
            operators,
            full_graph,
            solo_graph,
            full_day,
            solo_day,
        })
    }

    fn days(&self) -> [(&Graph, &DemandWorkload); 2] {
        [
            (&self.full_graph, &self.full_day),
            (&self.solo_graph, &self.solo_day),
        ]
    }

    fn op(&self, trace: &mut Trace) -> Result<Outcome, String> {
        let mut out = Outcome {
            federation_vs_solo: true,
            ..Outcome::default()
        };
        let mut digest = Fnv::default();
        let mut keys = BTreeSet::new();
        for (graph, day) in self.days() {
            // The program's own telemetry, recorded as `exp_demand`
            // records it: part of the workload, not benchmark tracing.
            let mut rec = MemoryRecorder::new();
            let report = trace
                .span("netsim.run", |_| {
                    NetSim::new(self.cfg)
                        .with_snapshot(graph)
                        .with_demand(day)
                        .run_recorded(&[], &mut rec)
                })
                .map_err(netsim_err)?;
            if trace.is_on() {
                trace.absorb(&rec);
                keys.extend(metric_keys(&mut rec));
            }
            digest.debug(&report);
            out.sims.push(SimCounts::of(&report));
            out.simulated_s += self.cfg.duration_s;
        }
        trace.set("telemetry.metric_keys", keys.len() as f64);

        let (ledgers, _intra_bytes) = trace.span("economics.ledgers", |_| {
            demand_ledgers(&self.coverage, &self.ticks, 3_600.0)
        });
        let items: usize = ledgers.values().map(|l| l.len()).sum();
        trace.set("economics.ledger_items", items as f64);
        let prices = PriceBook::new(2.0);
        let matrix = trace.span("economics.settle", |rec| match rec {
            Some(rec) => SettlementMatrix::from_ledgers_recorded(&ledgers, &prices, rec),
            None => SettlementMatrix::from_ledgers(&ledgers, &prices),
        });
        for &a in &self.operators {
            for &b in &self.operators {
                if a == b {
                    continue;
                }
                let origin_view = ledgers.get(&a).map_or(0, |l| l.bytes_carried(a, b));
                let carrier_view = ledgers.get(&b).map_or(0, |l| l.bytes_carried(a, b));
                out.ledger_view_mismatches += u64::from(origin_view != carrier_view);
                digest.u64(origin_view);
            }
        }
        for &op in &self.operators {
            let net = matrix.net_position(op);
            digest.f64(net);
            out.net_positions.push(net);
        }
        out.digest = digest.finish();
        Ok(out)
    }
}

/// The 4-member CubeSat Iridium federation moving for 600 s under
/// adaptive routing: 512 light Poisson flows plus a Nairobi hotspot
/// that overloads its RF inter-satellite links.
pub struct Churn {
    cfg: NetSimConfig,
    timeline: TopologyTimeline,
    flows: Vec<FlowSpec>,
}

impl Churn {
    fn setup(seed: u64, threads: usize, trace: &mut Trace) -> Result<Self, String> {
        let fed = standard_federation(4, &[SatelliteClass::CubeSat]);
        let timeline = trace
            .span("topology.timeline", |_| fed.timeline(5.0, 600.0, threads))
            .map_err(|e| format!("timeline: {e}"))?;
        let (hot_sat, _) =
            access_satellite(&fed, nairobi_user(), 0.0).ok_or("no satellite over Nairobi")?;
        let g0 = timeline.base();
        let (sats, stations) = (fed.satellites().len(), fed.stations().len());
        let poisson =
            |src, dst, rate_bps| FlowSpec::new(src, dst, rate_bps, 1_500, TrafficKind::Poisson);
        let mut flows: Vec<FlowSpec> = (0..512)
            .map(|i| {
                poisson(
                    g0.sat_node((7 * i) % sats),
                    g0.station_node(i % stations),
                    10.0e3,
                )
            })
            .collect();
        flows.extend((0..4).map(|_| poisson(g0.sat_node(hot_sat), g0.station_node(0), 8.0e6)));
        Ok(Self {
            cfg: NetSimConfig {
                duration_s: 600.0,
                queue_capacity_bytes: 512 * 1024,
                routing: RoutingMode::Adaptive {
                    replan_interval_s: 0.5,
                },
                seed,
                ..Default::default()
            },
            timeline,
            flows,
        })
    }

    fn op(&self, trace: &mut Trace) -> Result<Outcome, String> {
        let sim = NetSim::new(self.cfg).with_timeline(&self.timeline);
        let report = trace
            .span("netsim.run", |rec| match rec {
                Some(rec) => sim.run_recorded(&self.flows, rec),
                None => sim.run(&self.flows),
            })
            .map_err(netsim_err)?;
        let mut digest = Fnv::default();
        digest.debug(&report);
        Ok(Outcome {
            sims: vec![SimCounts::of(&report)],
            simulated_s: self.cfg.duration_s,
            digest: digest.finish(),
            ..Outcome::default()
        })
    }
}

/// The paper's Figure 2(b) latency sweep and Figure 2(c) coverage sweep
/// on the default study scenario.
pub struct Fig2 {
    cfg: StudyConfig,
    threads: usize,
    /// Each trial's constellation at the largest size; smaller sizes
    /// are its prefixes. The runner draws them again inside each op, so
    /// these serve only to digest the inputs, and drawing them is what
    /// set-up time measures.
    constellations: Vec<Vec<SatNode>>,
}

impl Fig2 {
    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let cfg = StudyConfig {
            seed,
            ..Default::default()
        };
        ScenarioRunner::builder()
            .config(cfg)
            .threads(threads)
            .build()
            .map_err(|e| format!("study config: {e}"))?;
        let largest = FIG2B_SIZES
            .iter()
            .chain(&FIG2C_SIZES)
            .max()
            .copied()
            .unwrap_or(0);
        let constellations = (0..cfg.trials)
            .map(|trial| study_constellation(&cfg, largest, trial))
            .collect();
        Ok(Self {
            cfg,
            threads,
            constellations,
        })
    }

    fn op(&self, trace: &mut Trace) -> Outcome {
        let runner = ScenarioRunner::serial(self.cfg).with_threads(self.threads);
        let latency = trace.span("study.latency_sweep", |_| {
            runner.latency_vs_satellites(&FIG2B_SIZES)
        });
        let coverage = trace.span("study.coverage_sweep", |_| {
            runner.coverage_vs_satellites(&FIG2C_SIZES)
        });
        let (hits, misses) = (runner.cache().hits(), runner.cache().misses());
        trace.set(
            "study.ephemeris_hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let mut digest = Fnv::default();
        digest.debug(&latency);
        digest.debug(&coverage);
        let nan = f64::NAN;
        let mut points: Vec<Vec<f64>> = latency
            .iter()
            .map(|p| {
                vec![
                    p.n_satellites as f64,
                    p.reachability,
                    p.mean_latency_ms.unwrap_or(nan),
                    p.mean_hops.unwrap_or(nan),
                ]
            })
            .collect();
        points.extend(
            coverage
                .iter()
                .map(|p| vec![p.n_satellites as f64, p.worst_case, p.grid, p.packing]),
        );
        Outcome {
            study_points: points,
            study_expected: FIG2B_SIZES.len() + FIG2C_SIZES.len(),
            digest: digest.finish(),
            ..Outcome::default()
        }
    }
}
