//! The repo benchmark's command line. See `README.md`.
//!
//! ```text
//! s2e-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one pass
//! s2e-benchmark [--seed N] [--seconds S]                        all six, each pass in its own child
//! s2e-benchmark --aa [--seed N] [--seconds S]                   the whole set twice, compared
//! s2e-benchmark --check                                         counts and identities only
//! ```

use s2e_benchmark::contract::{END_TO_END, PER_LAYER, RUN_SECONDS};
use s2e_benchmark::env;
use s2e_benchmark::expected::{self, Counts};
use s2e_benchmark::probes::{migration_round_trips, replay_queries, MigrationReport, ReplayReport};
use s2e_benchmark::spans::{durations_of, trace_json, Tracer};
use s2e_benchmark::stats::{
    median, median_ns, percentile, percentile_ns, render_log2_histogram, worse_by_more_than,
};
use s2e_benchmark::workloads::{DistExtra, Outcome, Prepared, NAMES};
use s2e_obs::json::{self, Json};
use s2e_obs::{Phase, PhaseTotals};
use s2e_prng::SplitMix64;
use s2e_solver::QueryKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported: at least this often,
/// and (a 91C111 image builds in tens of milliseconds, too short to
/// report from five samples) until `SETUP_FILL` has passed.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 25;
const SETUP_FILL: Duration = Duration::from_millis(1200);
/// Explorations run (and checked, but not timed) at the end of each
/// set-up: the first one on a cold allocator is not the steady state.
const WARMUP_EXPLORATIONS: usize = 1;
/// Failed explorations after which a pass stops early.
const MAX_FAILURES: usize = 8;
/// Share of a traced run's seconds spent alternating untraced and
/// traced explorations; the layer probes take what is left.
const TRACED_PAIRS_SHARE: f64 = 0.6;
/// Explorations whose individual spans go into the trace file.
const TRACE_FILE_EXPLORATIONS: u32 = 1;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one pass over one workload produced.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Counts of the last exploration, for `--aa`'s exact comparison.
    counts: Option<Counts>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics = self.metrics.iter().fold(Json::obj(), |o, m| {
            o.set(
                m.name,
                Json::obj().set("value", m.value).set("unit", m.unit),
            )
        });
        Json::obj()
            .set("correct", self.failures.is_empty())
            .set("attempted", self.attempted)
            .set("failed", self.failures.len())
            .set("metrics", metrics)
            .render_compact()
    }
}

/// Runs explorations and keeps the books: every one is attempted, and
/// fails on an error, a violated check or a pinned-count mismatch.
struct Judge<'a> {
    expected: &'a Counts,
    attempted: u64,
    failures: Vec<String>,
    last_counts: Option<Counts>,
}

impl<'a> Judge<'a> {
    fn new(expected: &'a Counts) -> Judge<'a> {
        Judge {
            expected,
            attempted: 0,
            failures: Vec::new(),
            last_counts: None,
        }
    }

    /// Whether so many explorations failed that the pass should stop
    /// (a workload that fails every time would otherwise never end).
    fn gave_up(&self) -> bool {
        self.failures.len() > MAX_FAILURES
    }

    fn explore(&mut self, prepared: &mut Prepared, tracer: &mut Tracer) -> Option<Outcome> {
        self.attempted += 1;
        let n = self.attempted;
        match prepared.explore(tracer) {
            Err(e) => {
                self.failures.push(format!("exploration {n}: {e}"));
                None
            }
            Ok(outcome) => {
                let mut problems = outcome.violations.clone();
                problems.extend(outcome.counts.mismatches(self.expected));
                if !problems.is_empty() {
                    self.failures
                        .push(format!("exploration {n}: {}", problems.join("; ")));
                }
                self.last_counts = Some(outcome.counts.clone());
                Some(outcome)
            }
        }
    }
}

fn load_expected() -> Result<BTreeMap<String, Counts>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    expected::parse(&text)
}

fn expected_for<'a>(all: &'a BTreeMap<String, Counts>, name: &str) -> Result<&'a Counts, String> {
    all.get(name)
        .ok_or_else(|| format!("expected.json has no entry for `{name}`"))
}

// -------------------------------------------------------- untraced pass

/// The end-to-end pass: set-up (repeated), then explorations back to
/// back for `seconds`, tracing off.
fn run_untraced(name: &str, seed: u64, seconds: u64, expected: &Counts) -> Result<Report, String> {
    let mut tracer = Tracer::new(false);
    let mut judge = Judge::new(expected);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_REPS_MIN
        || (setup_s.len() < SETUP_REPS_MAX && setup_started.elapsed() < SETUP_FILL)
    {
        let started = Instant::now();
        let mut p = Prepared::new(name, seed, &mut tracer)?;
        for _ in 0..WARMUP_EXPLORATIONS {
            judge.explore(&mut p, &mut tracer);
        }
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("SETUP_REPS_MIN is positive");
    prepared.attach_oracles();

    // (wall, paths, retired instructions) of each timed exploration.
    let mut timed: Vec<(Duration, u64, u64)> = Vec::new();
    let mut workers_rss_kb = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while (timed.is_empty() || started.elapsed() < budget) && !judge.gave_up() {
        let Some(outcome) = judge.explore(&mut prepared, &mut tracer) else {
            continue;
        };
        timed.push((
            outcome.wall,
            outcome.counts.paths,
            outcome.counts.guest_instrs,
        ));
        if let Some(d) = &outcome.dist {
            workers_rss_kb.push(d.workers_rss_kb as f64);
        }
    }
    if timed.is_empty() {
        return Err(format!(
            "no exploration of `{name}` completed: {}",
            judge.failures.join("; ")
        ));
    }
    let explore_ms: Vec<f64> = timed.iter().map(|t| t.0.as_secs_f64() * 1e3).collect();
    // The rates are work over wall of the middle half of the
    // explorations by duration: a stall of the machine lands in a
    // total, and one stalled exploration is not the system's rate.
    timed.sort_by_key(|t| t.0);
    let middle = &timed[timed.len() / 4..timed.len() - timed.len() / 4];
    let timed_s: f64 = middle.iter().map(|t| t.0.as_secs_f64()).sum();
    let paths: u64 = middle.iter().map(|t| t.1).sum();
    let instrs: u64 = middle.iter().map(|t| t.2).sum();

    // Worker processes live for one exploration each; the median over
    // explorations of their summed peaks stands for the tier's share.
    let own_kb = env::vmhwm_kb().ok_or("cannot read VmHWM from /proc/self/status")? as f64;
    let workers_kb = if workers_rss_kb.is_empty() {
        0.0
    } else {
        median(&workers_rss_kb)
    };
    // In `END_TO_END`'s order.
    let values = [
        median(&explore_ms),
        paths as f64 / timed_s,
        instrs as f64 / timed_s,
        (own_kb + workers_kb) / 1024.0,
        median(&setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();

    println!(
        "  samples            {:>14} explorations timed, {} set-ups",
        explore_ms.len(),
        setup_s.len()
    );
    println!(
        "  explore_ms spread  {:>14.4} .. {:.4} ms (quartiles {:.4} / {:.4})",
        percentile(&explore_ms, 0.0),
        percentile(&explore_ms, 1.0),
        percentile(&explore_ms, 0.25),
        percentile(&explore_ms, 0.75)
    );
    if explore_ms.len() >= 100 {
        println!(
            "  explore_ms.p90     {:>14.4} ms (ungated)",
            percentile(&explore_ms, 0.9)
        );
    }
    println!(
        "  failed_share       {:>14.6} ({} of {})",
        judge.failures.len() as f64 / judge.attempted as f64,
        judge.failures.len(),
        judge.attempted
    );
    Ok(Report {
        attempted: judge.attempted,
        failures: judge.failures,
        metrics,
        counts: judge.last_counts,
    })
}

// ---------------------------------------------------------- traced pass

/// The per-layer metrics of one traced pass: every declared name,
/// reading 0 until set.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Panics on a name `BENCHMARK.json` does not declare.
    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.get_mut(name);
        *slot.unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric")) = value;
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: self.0[m.name],
                unit: m.unit,
            })
            .collect()
    }
}

fn median_of(outcomes: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    median(&outcomes.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer pass: set-up once under spans, explorations
/// alternating untraced and traced, then the layer probes.
fn run_traced(name: &str, seed: u64, seconds: u64, expected: &Counts) -> Result<Report, String> {
    let mut tracer = Tracer::new(true);
    let mut judge = Judge::new(expected);
    let mut layer = Layers::new();

    let sp = tracer.enter("set-up");
    let mut prepared = Prepared::new(name, seed, &mut tracer)?;
    tracer.exit(sp);
    prepared.attach_oracles();
    tracer.set_enabled(false);
    for _ in 0..WARMUP_EXPLORATIONS {
        judge.explore(&mut prepared, &mut tracer);
    }

    // Alternate which arm goes first so drift charges both equally.
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut plain_ms = Vec::new();
    // Of the traced explorations: their outcomes, the recorder's phase
    // self-times, what those are shares of (the `Engine::step` spans of
    // a single engine, or tier span × workers), and the step durations.
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut phases = PhaseTotals::default();
    let mut phase_base_ns = 0u64;
    let mut step_ns: Vec<u64> = Vec::new();
    let budget = Duration::from_secs_f64(seconds as f64 * TRACED_PAIRS_SHARE);
    let started = Instant::now();
    let mut pair = 0u32;
    while (pair == 0 || started.elapsed() < budget) && !judge.gave_up() {
        for arm in 0..2 {
            let tracing = (arm + pair) % 2 == 1;
            tracer.set_enabled(tracing);
            tracer.set_exploration(pair);
            let first = tracer.spans().len();
            let sp = tracer.enter("explore");
            let outcome = judge.explore(&mut prepared, &mut tracer);
            tracer.exit(sp);
            let Some(outcome) = outcome else { continue };
            let ms = outcome.wall.as_secs_f64() * 1e3;
            if !tracing {
                untraced_ms.push(ms);
                continue;
            }
            traced_ms.push(ms);
            let spans = &tracer.spans()[first..];
            let steps = durations_of(spans, "Engine::step");
            let tier_ns: u64 = durations_of(spans, "explore_parallel")
                .iter()
                .chain(&durations_of(spans, "Coordinator::run_job"))
                .sum();
            phase_base_ns += steps.iter().sum::<u64>() + tier_ns * prepared.parallelism() as u64;
            step_ns.extend(steps);
            if let Some(p) = &outcome.phases {
                phases.merge(p);
            }
            outcomes.push(outcome);
        }
        tracer.set_enabled(false);
        if let Some(plain) = prepared.explore_plain(&mut tracer) {
            plain_ms.push(plain.wall.as_secs_f64() * 1e3);
        }
        pair += 1;
    }
    if outcomes.is_empty() || untraced_ms.is_empty() {
        return Err(format!(
            "no traced exploration of `{name}` completed: {}",
            judge.failures.join("; ")
        ));
    }

    record_counters(&mut layer, &outcomes);
    layer.set("analysis.refined_ms", prepared.refined_ms().unwrap_or(0.0));

    // ---- phase shares, from the s2e-obs recorder against our spans
    let base = phase_base_ns as f64;
    let mut accounted = 0.0;
    for phase in Phase::ALL {
        let share = ratio(phases.nanos[phase.index()] as f64, base);
        accounted += share;
        layer.set(&format!("core.phase.{}_share", phase.name()), share);
    }
    layer.set("core.phase.unaccounted_share", 1.0 - accounted);
    layer.set("core.step_ns", median_ns(&step_ns));

    // ---- tracing overhead and tier speed-ups, medians over the pairs
    let untraced = median(&untraced_ms);
    layer.set(
        "obs.trace_overhead_share",
        median(&traced_ms) / untraced - 1.0,
    );
    layer.set("obs.traced_explorations", traced_ms.len() as f64);
    if !plain_ms.is_empty() {
        let key = if name.ends_with("par2") {
            "tier.par2_speedup_x"
        } else {
            "tier.dist2_speedup_x"
        };
        layer.set(key, median(&plain_ms) / untraced);
    }

    // ---- layer probes
    tracer.set_enabled(true);
    tracer.set_exploration(pair);
    if let Some(reference) = prepared.reference_instrs_per_s() {
        let engine = median_of(&outcomes, |x| {
            x.counts.guest_instrs as f64 / x.wall.as_secs_f64()
        });
        layer.set("vm.ref_instrs_per_s", reference);
        layer.set("dbt.overhead_x", ratio(reference, engine));
    }
    let mut replay = None;
    if prepared.symbolic() {
        tracer.set_enabled(false);
        let harvested = prepared.explore_keeping_engine(&mut tracer);
        tracer.set_enabled(true);
        if let Some((_, engine)) = harvested {
            let sp = tracer.enter("query replay");
            let r = replay_queries(engine.terminated_states(), seed);
            tracer.exit(sp);
            if r.disagreements > 0 || r.unknown > 0 {
                judge.failures.push(format!(
                    "query replay: {} verdict disagreements, {} unknown verdicts over {} queries",
                    r.disagreements,
                    r.unknown,
                    r.queries()
                ));
            }
            record_replay(&mut layer, &r);
            replay = Some(r);
        }
    }
    let mut migration = None;
    if let Some(mut engine) = prepared.probe_engine() {
        let sp = tracer.enter("migration round trips");
        let m = migration_round_trips(&mut engine, &mut tracer);
        tracer.exit(sp);
        match m {
            Ok(m) => {
                record_migration(&mut layer, &m);
                migration = Some(m);
            }
            Err(e) => judge.failures.push(format!("migration probe: {e}")),
        }
    }

    // ---- the trace file, then the human-readable extras
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace.{name}.json"));
    let trace = trace_json(name, tracer.spans(), TRACE_FILE_EXPLORATIONS);
    std::fs::write(&trace_path, trace.render())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("  trace file         {}", trace_path.display());
    println!(
        "  pairs              {:>14} untraced / {} traced explorations",
        untraced_ms.len(),
        traced_ms.len()
    );
    if let Some(r) = &replay {
        println!(
            "  query replay: {} queries over {} paths ({} sat, {} unsat), {} conflicts, {} decisions, {} propagations",
            r.queries(),
            r.paths,
            r.sat,
            r.unsat,
            r.conflicts,
            r.decisions,
            r.propagations
        );
        for (label, samples) in [
            ("solver.check_cold_ns", &r.cold_ns),
            ("solver.check_warm_ns", &r.warm_ns),
            ("solver.blast_ns", &r.blast_ns),
            ("solver.sat_ns", &r.sat_ns),
        ] {
            println!("  {label} histogram (n = {}):", samples.len());
            print!("{}", render_log2_histogram(samples));
        }
    }
    if let Some(m) = &migration {
        println!(
            "  migration probe: {} states round-tripped",
            m.evict_ns.len()
        );
    }

    Ok(Report {
        attempted: judge.attempted,
        failures: judge.failures,
        metrics: layer.into_metrics(),
        counts: judge.last_counts,
    })
}

/// Counters of the product's own stats structs, as medians over the
/// traced explorations (on one engine they repeat exactly; on the
/// parallel tiers exports and steals follow the schedule).
fn record_counters(layer: &mut Layers, o: &[Outcome]) {
    for kind in QueryKind::ALL {
        let key = match kind {
            QueryKind::Feasibility => "solver.queries.feasibility",
            QueryKind::Concretize => "solver.queries.concretize",
            QueryKind::Other => "solver.queries.other",
        };
        layer.set(key, median_of(o, |x| x.solver.kind(kind).queries as f64));
    }
    let per_query_ns = |kind: QueryKind| {
        median_of(o, |x| {
            let k = x.solver.kind(kind);
            ratio(k.time.as_nanos() as f64, k.queries as f64)
        })
    };
    layer.set(
        "solver.feasibility_ns",
        per_query_ns(QueryKind::Feasibility),
    );
    layer.set("solver.concretize_ns", per_query_ns(QueryKind::Concretize));
    layer.set(
        "solver.core_solves",
        median_of(o, |x| x.solver.core_solves as f64),
    );
    layer.set(
        "solver.cache_hit_ratio",
        median_of(o, |x| {
            let s = &x.solver;
            let hits = s.cache_hits + s.shared_hits + s.pool_hits + s.subsumption_hits;
            ratio(hits as f64, s.queries as f64)
        }),
    );
    layer.set("solver.timeouts", median_of(o, |x| x.unresolved as f64));
    // The real query population's verdicts; every replayed prefix is
    // satisfiable by construction (the path was feasible).
    layer.set(
        "solver.sat_unsat_ratio",
        median_of(o, |x| x.solver.sat as f64 / x.solver.unsat.max(1) as f64),
    );
    layer.set("core.forks", median_of(o, |x| x.counts.forks as f64));
    layer.set("core.exports", median_of(o, |x| x.exports as f64));
    layer.set("core.steals", median_of(o, |x| x.steals as f64));
    layer.set("dbt.blocks", median_of(o, |x| x.dbt.translations as f64));
    layer.set(
        "dbt.translate_ns_per_block",
        median_of(o, |x| {
            ratio(
                x.dbt.translation_time.as_nanos() as f64,
                x.dbt.translations as f64,
            )
        }),
    );
    layer.set(
        "dbt.hit_ratio",
        median_of(o, |x| {
            ratio(x.dbt.hits as f64, (x.dbt.hits + x.dbt.translations) as f64)
        }),
    );
    layer.set(
        "dbt.l1_hit_ratio",
        median_of(o, |x| ratio(x.dbt.l1_hits as f64, x.dbt.hits as f64)),
    );
    layer.set(
        "dbt.chain_entries",
        median_of(o, |x| x.dbt.chain_entries as f64),
    );
    layer.set(
        "cache.checkpoints_live",
        median_of(o, |x| x.checkpoints_live as f64),
    );
    layer.set(
        "analysis.instrumented_instrs",
        median_of(o, |x| {
            (x.engine.total_instrs() - x.engine.lean_instrs) as f64
        }),
    );
    let dist = |f: fn(&DistExtra) -> f64| median_of(o, |x| x.dist.as_ref().map_or(0.0, f));
    layer.set("dist.run_job_ms", dist(|d| d.run_job.as_secs_f64() * 1e3));
    layer.set("dist.spawn_ms", dist(|d| d.spawn.as_secs_f64() * 1e3));
    layer.set("dist.cache_imports", dist(|d| d.cache_imports as f64));
    layer.set("dist.steps_used", dist(|d| d.steps_used as f64));
}

fn record_replay(layer: &mut Layers, r: &ReplayReport) {
    layer.set("solver.replay_queries", r.queries() as f64);
    for (key, p90, samples) in [
        (
            "solver.check_cold_ns",
            "solver.check_cold_ns.p90",
            &r.cold_ns,
        ),
        (
            "solver.check_warm_ns",
            "solver.check_warm_ns.p90",
            &r.warm_ns,
        ),
        (
            "solver.partition_ns",
            "solver.partition_ns.p90",
            &r.partition_ns,
        ),
        ("solver.blast_ns", "solver.blast_ns.p90", &r.blast_ns),
        ("solver.sat_ns", "solver.sat_ns.p90", &r.sat_ns),
    ] {
        layer.set(key, median_ns(samples));
        layer.set(p90, percentile_ns(samples, 0.9));
    }
    layer.set("solver.clauses", median_ns(&r.clauses));
    layer.set("solver.vars", median_ns(&r.vars));
    layer.set("expr.nodes_per_query", median_ns(&r.nodes));
}

fn record_migration(layer: &mut Layers, m: &MigrationReport) {
    layer.set("core.evict_ns", median_ns(&m.evict_ns));
    layer.set("core.rehydrate_ns", median_ns(&m.rehydrate_ns));
    layer.set("core.compact_bytes", median_ns(&m.compact_bytes));
    layer.set("dist.encode_ns_per_state", median_ns(&m.encode_ns));
    layer.set("dist.decode_ns_per_state", median_ns(&m.decode_ns));
    layer.set("dist.write_frame_ns", median_ns(&m.write_frame_ns));
    layer.set("dist.read_frame_ns", median_ns(&m.read_frame_ns));
    layer.set("dist.bytes_per_state", median_ns(&m.wire_bytes));
}

// ------------------------------------------------------------- one pass

fn print_environment(seed: u64) {
    println!(
        "environment: seed {seed}, commit {}, nproc {}, cpu {}",
        env::commit(),
        env::nproc(),
        env::cpu_model()
    );
}

/// One workload, one pass, in this process: the driver's entry point.
/// `Ok(false)` when an exploration was wrong.
fn run_one(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let all = load_expected()?;
    let expected = expected_for(&all, name)?;
    println!(
        "workload {name}, {} pass, {seconds} s",
        if trace { "traced" } else { "untraced" }
    );
    print_environment(seed);
    let report = if trace {
        run_traced(name, seed, seconds, expected)?
    } else {
        run_untraced(name, seed, seconds, expected)?
    };
    for m in &report.metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("benchmark: FAILED {f}");
    }
    if let Some(c) = &report.counts {
        println!("counts {}", c.to_json().render_compact());
    }
    println!("{}", report.result_line());
    Ok(report.failures.is_empty())
}

// ------------------------------------------------------ the whole set

/// `(name, value, unit)` rows of a child pass's result line.
type MetricRows = Vec<(String, f64, String)>;

/// What a child pass printed, parsed back.
struct ChildReport {
    correct: bool,
    metrics: MetricRows,
    counts: Option<Json>,
}

fn run_child(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: the pass printed nothing"))?;
    let result = json::parse(last).map_err(|e| format!("{name}: result line: {e:?}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{name}: result line has no metrics"))?
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default();
            (k.clone(), value, unit.to_string())
        })
        .collect();
    let counts = text
        .lines()
        .rev()
        .find_map(|l| json::parse(l.strip_prefix("counts ")?).ok());
    let correct =
        result.get("correct").and_then(Json::as_bool) == Some(true) && output.status.success();
    Ok(ChildReport {
        correct,
        metrics,
        counts,
    })
}

/// One run of the whole set: per workload, the end-to-end rows and the
/// pinned counts, and whether every exploration was right.
struct SetResult {
    by_workload: BTreeMap<&'static str, (MetricRows, Option<Json>)>,
    correct: bool,
}

/// Runs every workload — untraced pass, then traced pass — each in its
/// own child process, one at a time, in an order drawn from the seed.
fn run_set(seed: u64, seconds: u64) -> Result<SetResult, String> {
    let mut order: Vec<&'static str> = NAMES.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    println!("order: {}", order.join(", "));
    let mut set = SetResult {
        by_workload: BTreeMap::new(),
        correct: true,
    };
    for name in order {
        println!("== {name}");
        let end_to_end = run_child(name, seed, seconds, false)?;
        let per_layer = run_child(name, seed, seconds, true)?;
        for (metric, value, unit) in end_to_end.metrics.iter().chain(&per_layer.metrics) {
            println!("  {metric:<34} {value:>18.6} {unit}");
        }
        if !(end_to_end.correct && per_layer.correct) {
            println!("  FAILED: an exploration of {name} was wrong (see stderr)");
            set.correct = false;
        }
        set.by_workload
            .insert(name, (end_to_end.metrics, end_to_end.counts));
    }
    Ok(set)
}

/// Compares two runs of the set; `false` when a pinned count differs
/// or an end-to-end metric is apart by more than its bound.
fn compare_sets(first: &SetResult, second: &SetResult) -> bool {
    let mut agree = true;
    for name in NAMES {
        let (a, a_counts) = &first.by_workload[name];
        let (b, b_counts) = &second.by_workload[name];
        if a_counts != b_counts {
            println!("A/A FAILED {name}: pinned counts differ between the two sets");
            agree = false;
        }
        for m in &END_TO_END {
            let value = |rows: &MetricRows| {
                rows.iter()
                    .find(|(n, _, _)| n == m.name)
                    .map_or(f64::NAN, |(_, v, _)| *v)
            };
            let (x, y) = (value(a), value(b));
            // Either run may be the "parent": neither may be worse
            // than the other by more than the bound.
            let apart = worse_by_more_than(x, y, m.bound, m.lower_is_better)
                || worse_by_more_than(y, x, m.bound, m.lower_is_better)
                || x.is_nan()
                || y.is_nan();
            println!(
                "A/A {name:<18} {:<20} {x:>16.4} {y:>16.4} {:+.2}%{}",
                m.name,
                (y / x - 1.0) * 100.0,
                if apart { "  OUTSIDE BOUND" } else { "" }
            );
            agree &= !apart;
        }
    }
    agree
}

fn run_all(seed: u64, seconds: u64, aa: bool) -> Result<bool, String> {
    print_environment(seed);
    println!(
        "passes: {seconds} s each, {SETUP_REPS_MIN}..{SETUP_REPS_MAX} set-ups, \
         {WARMUP_EXPLORATIONS} warm-up exploration(s) per set-up"
    );
    let first = run_set(seed, seconds)?;
    let mut ok = first.correct;
    if aa {
        println!("== A/A: the same set again");
        let second = run_set(seed, seconds)?;
        ok &= second.correct && compare_sets(&first, &second);
    }
    let summary = Json::obj().set("correct", ok).set("claim", Json::Null);
    println!("{}", summary.render_compact());
    Ok(ok)
}

/// One exploration per workload, counts and identities only.
fn run_check() -> Result<bool, String> {
    let all = load_expected()?;
    let mut ok = true;
    let mut observed = Json::obj();
    for name in NAMES {
        let mut tracer = Tracer::new(false);
        let mut judge = Judge::new(expected_for(&all, name)?);
        let mut prepared = Prepared::new(name, 0, &mut tracer)?;
        prepared.attach_oracles();
        judge.explore(&mut prepared, &mut tracer);
        if let Some(counts) = &judge.last_counts {
            observed = observed.set(name, counts.to_json());
        }
        match judge.failures.first() {
            None => println!("check {name}: ok"),
            Some(f) => {
                println!("check {name}: FAILED {f}");
                ok = false;
            }
        }
    }
    if !ok {
        println!(
            "observed counts, in the form of expected.json:\n{}",
            observed.render()
        );
    }
    Ok(ok)
}

// ------------------------------------------------------------- the CLI

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    aa: bool,
    check: bool,
    role: Option<String>,
    addr: Option<String>,
    worker: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.max(1)),
            "--trace" => args.trace = number(value()?)? != 0,
            "--aa" => args.aa = true,
            "--check" => args.check = true,
            "--role" => args.role = Some(value()?),
            "--addr" => args.addr = Some(value()?),
            "--worker" => args.worker = Some(number(value()?)? as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The processes tier re-executes this binary as its workers. A worker
/// serves one job, then prints its peak resident set for the parent.
fn run_worker(args: &Args) -> Result<bool, String> {
    let (Some("worker"), Some(addr), Some(worker)) =
        (args.role.as_deref(), &args.addr, args.worker)
    else {
        return Err("the only role is `--role worker --addr A --worker N`".to_string());
    };
    s2e_dist::run_worker(addr, worker).map_err(|e| format!("worker {worker}: {e}"))?;
    let kb = env::vmhwm_kb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!("vmhwm_kb {kb}");
    Ok(true)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.role.is_some() {
        return run_worker(args);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; run with --release".to_string());
    }
    if std::env::var_os("S2E_SOLVER_PARANOID").is_some() {
        return Err("refusing to measure with S2E_SOLVER_PARANOID set".to_string());
    }
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    match &args.workload {
        _ if args.check => run_check(),
        Some(name) => run_one(name, args.seed, seconds, args.trace),
        None => run_all(args.seed, seconds, args.aa),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
