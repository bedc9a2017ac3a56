//! End-to-end benchmark of the openspace simulator stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process sets a workload up from the seed several times (the
//! median is `setup_s`), then runs it as a closed loop, each op starting
//! when the previous one ends, for `--seconds`. Every op's outputs are
//! checked and digested; any error, panic, failed check or digest that
//! differs from the first op's counts the op as failed. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and the metrics, end-to-end ones with `--trace 0` and
//! per-layer ones with `--trace 1`.
//!
//! The traced run alternates untraced and traced ops. Traced ops wrap
//! each call into a layer in a benchmark-side span and collect the
//! counters the program records; their outputs must equal the untraced
//! ops' bit for bit.

mod adapter;
mod measure;

use adapter::{Outcome, Trace, Workload};
use measure::{median, peak_rss_mib, tail};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads handed to every parallel API. One, not the host's
/// core count: with two workers the memory high-water mark of one seed
/// moved by up to a fifth between runs, with how the allocator's
/// per-thread arenas happened to fill; one worker also keeps figures
/// comparable across hosts.
const THREADS: usize = 1;

/// Set-ups per run: at least `MIN_SETUPS`, then more until they have
/// taken `SETUP_BUDGET_S` or `MAX_SETUPS` is reached, so that cheap
/// set-ups still yield a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 2_000;
const SETUP_BUDGET_S: f64 = 0.25;

/// The workloads, each with the reason it is in the benchmark.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "e21_day_1x",
        "exp_demand at shipped load: 1.2M users, federation and solo packet days, ledgers and settlement; the one workload where settlement leads",
    ),
    (
        "e21_day_100x",
        "the E21 packet day at 100x load (~2M packets): the event loop and the program's per-flow telemetry take almost all of the op",
    ),
    (
        "churn_adaptive",
        "CubeSat federation moving for 600 s under adaptive routing with an overloaded hotspot: loads the planner, delta replay and deep queues",
    ),
    (
        "fig2_sweep",
        "the paper's Figure 2(b) and 2(c) sweeps: orbit propagation, ephemeris cache, ISL snapshots and Dijkstra, with no packet engine",
    ),
];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. A metric of a layer
/// the workload does not use reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("sim_pkts_per_s", "pkt/s"),
    ("sim_rtf", "sim-s/host-s"),
    ("fail_frac", "ratio"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.queue_high_water", "count"),
    ("netsim.slab_high_water", "count"),
    ("netsim.delivered_frac", "ratio"),
    ("netsim.dropped", "count"),
    ("netsim.unroutable", "count"),
    ("routing.recomputes", "count"),
    ("routing.nodes_visited", "count"),
    ("routing.planner.trees", "count"),
    ("routing.planner.trees_reused", "count"),
    ("netsim.replans", "count"),
    ("topology.timeline_s", "s"),
    ("topology.snapshot_s", "s"),
    ("snapshot.pairs_tested", "count"),
    ("snapshot.prune_frac", "ratio"),
    ("netsim.deltas_applied", "count"),
    ("netsim.links_churned", "count"),
    ("netsim.resnapshot_dropped", "count"),
    ("study.latency_sweep_s", "s"),
    ("study.coverage_sweep_s", "s"),
    ("study.ephemeris_hit_frac", "ratio"),
    ("demand.population_s", "s"),
    ("demand.timeline_s", "s"),
    ("demand.attach_s", "s"),
    ("demand.batches_s", "s"),
    ("demand.flows_mapped", "count"),
    ("economics.ledgers_s", "s"),
    ("economics.settle_s", "s"),
    ("economics.ledger_items", "count"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.metric_keys", "count"),
    ("trace.overhead_s", "s"),
];

/// Environment variables that would change what the program runs.
const REFUSED_ENV: [&str; 2] = ["OPENSPACE_THREADS", "OPENSPACE_NETSIM_ENGINE"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks one op's outputs; every returned line is a failure.
fn check(out: &Outcome) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, s) in out.sims.iter().enumerate() {
        if s.delivered + s.dropped + s.unroutable > s.generated {
            problems.push(format!(
                "netsim run {i}: delivered + dropped + unroutable exceeds generated ({s:?})"
            ));
        }
    }
    if out.federation_vs_solo {
        match out.sims.as_slice() {
            [fed, solo] if fed.delivered > solo.delivered => {}
            sims => problems.push(format!(
                "the federation does not out-deliver its largest solo member ({sims:?})"
            )),
        }
    }
    let net_sum: f64 = out.net_positions.iter().sum();
    if !out.net_positions.is_empty() && (net_sum.is_nan() || net_sum.abs() >= 1e-6) {
        problems.push(format!("settlement is not zero-sum ({net_sum})"));
    }
    if out.ledger_view_mismatches > 0 {
        problems.push(format!(
            "{} cross-operator pairs with differing origin and carrier byte counts",
            out.ledger_view_mismatches
        ));
    }
    if out.study_points.len() != out.study_expected {
        problems.push(format!(
            "{} study points, expected {}",
            out.study_points.len(),
            out.study_expected
        ));
    }
    if out
        .study_points
        .iter()
        .any(|p| p.is_empty() || p.iter().any(|v| !v.is_finite()))
    {
        problems.push("an empty or non-finite study point".into());
    }
    problems
}

/// Op accounting for `fail_frac`.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    /// Count one op. It fails on an error or panic, a failed check, a
    /// digest that differs from the first op's, or an `extra` problem.
    /// Returns the outcome of an op that passed.
    fn record(
        &mut self,
        result: Result<Outcome, String>,
        extra: Option<String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let mut problems: Vec<String> = extra.into_iter().collect();
        match &result {
            Err(e) => problems.push(e.clone()),
            Ok(out) => {
                problems.extend(check(out));
                let first = *self.digest.get_or_insert(out.digest);
                if out.digest != first {
                    problems.push(format!(
                        "output digest {:016x} differs from the first op's {first:016x}",
                        out.digest
                    ));
                }
            }
        }
        if problems.is_empty() {
            return result.ok();
        }
        self.failed += 1;
        for p in problems {
            eprintln!("op {} failed: {p}", self.attempted);
        }
        None
    }

    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One op, timed, with a panic turned into an error.
fn attempt(op: impl FnOnce() -> Result<Outcome, String>) -> (f64, Result<Outcome, String>) {
    let start = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(op));
    let wall = start.elapsed().as_secs_f64();
    let result = result.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        Err(format!("panic: {msg}"))
    });
    (wall, result)
}

/// Set the workload up repeatedly; returns the last inputs, each
/// set-up's host seconds and each set-up's trace.
fn set_up(args: &Args, threads: usize) -> Result<(Workload, Vec<f64>, Vec<Trace>), String> {
    let (mut times, mut traces) = (Vec::new(), Vec::new());
    let mut inputs = None;
    while times.len() < MIN_SETUPS
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < MAX_SETUPS)
    {
        // Free the previous inputs first: the run holds one copy.
        drop(inputs.take());
        let mut trace = Trace::new(args.trace);
        let start = Instant::now();
        let w = Workload::setup(&args.workload, args.seed, threads, &mut trace)?;
        times.push(start.elapsed().as_secs_f64());
        traces.push(trace);
        inputs = Some(w);
    }
    Ok((inputs.expect("at least one set-up ran"), times, traces))
}

/// Host seconds of one op, packets generated per host second, and the
/// op's trace.
struct OpSample {
    wall_s: f64,
    pkts_per_s: Option<f64>,
    trace: Trace,
    outcome: Option<Outcome>,
}

/// The closed loop: ops back to back until `seconds` have passed. The
/// traced run alternates untraced and traced ops, starting untraced.
fn closed_loop(w: &Workload, args: &Args, tally: &mut Tally) -> Vec<OpSample> {
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut samples: Vec<OpSample> = Vec::new();
    let mut first_counts = None;
    loop {
        let traced = args.trace && samples.len() % 2 == 1;
        let mut trace = Trace::new(traced);
        let (wall_s, result) = attempt(|| w.op(&mut trace));
        let mut extra = None;
        if traced {
            let first = first_counts.get_or_insert_with(|| trace.counts.clone());
            if *first != trace.counts {
                extra = Some("recorded counts differ from the first traced op's".to_string());
            }
        }
        let outcome = tally.record(result, extra);
        let generated: u64 = outcome
            .iter()
            .flat_map(|o| &o.sims)
            .map(|s| s.generated)
            .sum();
        samples.push(OpSample {
            wall_s,
            pkts_per_s: (generated > 0).then(|| generated as f64 / wall_s),
            trace,
            outcome,
        });
        let enough = !args.trace || samples.len() >= 2;
        if enough && start.elapsed() >= deadline {
            return samples;
        }
    }
}

/// Median over traces of a span's host seconds (0 where absent).
fn span_median(traces: &[&Trace], name: &str) -> f64 {
    let v: Vec<f64> = traces
        .iter()
        .map(|t| t.spans.get(name).copied().unwrap_or(0.0))
        .collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// A count from the first trace (0 where absent).
fn count(traces: &[&Trace], name: &str) -> f64 {
    traces
        .first()
        .and_then(|t| t.counts.get(name).copied())
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order.
fn per_layer(
    setups: &[Trace],
    samples: &[OpSample],
    telemetry_overhead_s: f64,
    tally: &Tally,
) -> Vec<f64> {
    let setups: Vec<&Trace> = setups.iter().collect();
    let (traced, untraced): (Vec<&OpSample>, Vec<&OpSample>) =
        samples.iter().partition(|s| s.trace.is_on());
    let ops: Vec<&Trace> = traced.iter().map(|s| &s.trace).collect();
    let walls = |v: &[&OpSample]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let pkts: Vec<f64> = untraced.iter().filter_map(|s| s.pkts_per_s).collect();
    let first = traced.iter().find_map(|s| s.outcome.as_ref());
    let sims = first.map_or(&[][..], |o| &o.sims[..]);
    let generated: u64 = sims.iter().map(|s| s.generated).sum();
    let delivered: u64 = sims.iter().map(|s| s.delivered).sum();
    let run_s = span_median(&ops, "netsim.run");
    let simulated_s = first.map_or(0.0, |o| o.simulated_s);
    let values = [
        if pkts.is_empty() { 0.0 } else { median(&pkts) },
        ratio(simulated_s, run_s),
        tally.fail_frac(),
        run_s,
        count(&ops, "netsim.events"),
        ratio(run_s * 1e9, count(&ops, "netsim.events")),
        count(&ops, "netsim.queue_high_water"),
        count(&ops, "netsim.slab_high_water"),
        ratio(delivered as f64, generated as f64),
        count(&ops, "netsim.dropped"),
        count(&ops, "netsim.unroutable"),
        count(&ops, "routing.recomputes"),
        count(&ops, "routing.nodes_visited"),
        count(&ops, "routing.planner.trees"),
        count(&ops, "routing.planner.trees_reused"),
        count(&ops, "netsim.replans"),
        span_median(&setups, "topology.timeline"),
        span_median(&setups, "topology.snapshot"),
        count(&setups, "snapshot.pairs_tested"),
        ratio(
            count(&setups, "snapshot.pairs_pruned"),
            count(&setups, "snapshot.pairs_pruned") + count(&setups, "snapshot.pairs_tested"),
        ),
        count(&ops, "netsim.deltas_applied"),
        count(&ops, "netsim.links_churned"),
        count(&ops, "netsim.resnapshot_dropped"),
        span_median(&ops, "study.latency_sweep"),
        span_median(&ops, "study.coverage_sweep"),
        count(&ops, "study.ephemeris_hit_frac"),
        span_median(&setups, "demand.population"),
        span_median(&setups, "demand.timeline"),
        span_median(&setups, "demand.attach"),
        span_median(&setups, "demand.batches"),
        count(&setups, "demand.flows_mapped"),
        span_median(&ops, "economics.ledgers"),
        span_median(&ops, "economics.settle"),
        count(&ops, "economics.ledger_items"),
        telemetry_overhead_s,
        count(&ops, "telemetry.metric_keys"),
        walls(&traced) - walls(&untraced),
    ];
    values.to_vec()
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map_or("", |(_, why)| why);
    println!("workload   {} (closed loop, one client)", args.workload);
    println!("why        {why}");
    println!(
        "run        seed {} | {} s | trace {} | threads {threads} of nproc {nproc}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "build      {} | commit {}",
        env!("E2EBENCH_RUSTC"),
        commit()
    );

    let (w, setup_times, setup_traces) = set_up(args, threads)?;
    let setup_s = median(&setup_times);
    println!(
        "setup      median {setup_s:.6} s over {} set-ups | inputs digest {:016x}",
        setup_times.len(),
        w.inputs_digest()
    );

    let mut tally = Tally::default();
    let samples = closed_loop(&w, args, &mut tally);
    let untraced: Vec<f64> = samples
        .iter()
        .filter(|s| !s.trace.is_on())
        .map(|s| s.wall_s)
        .collect();
    let wall_s = median(&untraced);
    let tail_text = match tail(&untraced) {
        Some((p, v)) => format!("p{p} {v:.6} s"),
        None => "no percentile with ten samples above it".into(),
    };
    println!(
        "wall_s     median {wall_s:.6} s | {tail_text} | n {} untraced ops",
        untraced.len()
    );
    let pkts: Vec<f64> = samples.iter().filter_map(|s| s.pkts_per_s).collect();
    if !pkts.is_empty() {
        println!(
            "packets    {:.0} generated per host second (median)",
            median(&pkts)
        );
    }
    println!(
        "ops        {} attempted, {} failed, fail_frac {} | output digest {}",
        tally.attempted,
        tally.failed,
        tally.fail_frac(),
        tally
            .digest
            .map_or("none".to_string(), |d| format!("{d:016x}"))
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let telemetry = w.telemetry_overhead()?;
        if let Some((_, false)) = telemetry {
            tally.record(
                Err("recording into a MemoryRecorder changed a report".into()),
                None,
            );
        }
        let values = per_layer(
            &setup_traces,
            &samples,
            telemetry.map_or(0.0, |(s, _)| s),
            &tally,
        );
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    } else {
        let rss = peak_rss_mib()?;
        END_TO_END
            .iter()
            .zip([wall_s, setup_s, rss])
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        println!("metric     {name:<30} {value:>16.6} {unit}");
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    Ok(result_line(&tally, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("e2ebench: refusing to run with {var} set; unset it so runs do not depend on the environment");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, seed: u64, traced: bool) -> (u64, Outcome, Trace) {
        let mut setup = Trace::new(traced);
        let w = Workload::setup(name, seed, THREADS, &mut setup).expect("set-up succeeds");
        let mut trace = Trace::new(traced);
        let out = w.op(&mut trace).expect("op succeeds");
        trace.counts.extend(setup.counts);
        (w.inputs_digest(), out, trace)
    }

    const FAST: [&str; 3] = ["e21_day_1x", "churn_adaptive", "fig2_sweep"];

    #[test]
    fn same_seed_repeats_digests_and_counts() {
        for name in FAST {
            let (inputs_a, a, trace_a) = outcome(name, 5, true);
            let (inputs_b, b, trace_b) = outcome(name, 5, true);
            assert_eq!(inputs_a, inputs_b, "{name}: inputs");
            assert_eq!(a.digest, b.digest, "{name}: outputs");
            assert_eq!(trace_a.counts, trace_b.counts, "{name}: counts");
            assert!(check(&a).is_empty(), "{name}: {:?}", check(&a));
        }
    }

    #[test]
    fn tracing_leaves_outputs_unchanged() {
        for name in FAST {
            let (_, plain, _) = outcome(name, 9, false);
            let (_, traced, _) = outcome(name, 9, true);
            assert_eq!(plain.digest, traced.digest, "{name}");
        }
    }

    #[test]
    fn another_seed_changes_the_inputs() {
        for name in FAST {
            let (a, out_a, _) = outcome(name, 5, false);
            let (b, out_b, _) = outcome(name, 6, false);
            assert_ne!(a, b, "{name}: inputs");
            assert_ne!(out_a.digest, out_b.digest, "{name}: outputs");
        }
    }

    #[test]
    fn corrupted_outputs_count_as_failures() {
        let (_, good, _) = outcome("e21_day_1x", 5, false);
        let corruptions: [fn(&mut Outcome); 4] = [
            |o| o.sims[0].delivered = o.sims[0].generated + 1,
            |o| o.sims[1].delivered = o.sims[0].delivered,
            |o| o.net_positions[0] += 1.0,
            |o| o.ledger_view_mismatches = 1,
        ];
        let mut tally = Tally::default();
        assert!(tally.record(Ok(good.clone()), None).is_some());
        for corrupt in corruptions {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert!(tally.record(Ok(bad), None).is_none());
        }
        let mut drifted = good.clone();
        drifted.digest ^= 1;
        assert!(tally.record(Ok(drifted), None).is_none());
        assert!(tally.record(Err("netsim: boom".into()), None).is_none());
        assert_eq!((tally.attempted, tally.failed), (7, 6));

        let (_, mut study, _) = outcome("fig2_sweep", 5, false);
        study.study_points[3][2] = f64::NAN;
        assert!(!check(&study).is_empty());
        study.study_points.pop();
        assert!(!check(&study).is_empty());
    }

    #[test]
    fn a_panicking_op_is_a_failure_not_a_crash() {
        let mut tally = Tally::default();
        let (_, result) = attempt(|| panic!("injected"));
        assert_eq!(
            result.as_ref().err().map(String::as_str),
            Some("panic: injected")
        );
        assert!(tally.record(result, None).is_none());
        assert_eq!(tally.fail_frac(), 1.0);
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (name, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "missing {entry}");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
