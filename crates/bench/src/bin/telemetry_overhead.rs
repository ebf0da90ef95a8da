//! Live-telemetry overhead gate (DESIGN.md §16): the sharded metrics
//! registry, delta sampler, and scrape endpoint must be cheap enough to
//! leave on (≤2% wall clock with sampling enabled) and must never
//! change what the engine explores.
//!
//! Four timed arms run the `parallel_scaling` stress guest, interleaved
//! round-robin with a min-wall estimator:
//!
//! - `off` / `off2` — telemetry absent (`explore_parallel_live` with
//!   `None`), run twice: the pair is an A/A comparison whose delta is
//!   the measurement noise floor;
//! - `sampling` — registry + 10 ms delta sampler streaming JSONL. The
//!   sampling-vs-off delta is the overhead asserted (full mode only);
//! - `endpoint` — sampling plus the TCP scrape endpoint under a
//!   concurrent `/metrics` + `/report` polling client (reported, not
//!   asserted: scrape cost belongs to the scraper).
//!
//! Every arm — and both schedulers, checked separately — must produce a
//! bit-identical path set: same path count, same fork/state counters,
//! same covered-block set. After the timed arms, an artifact arm streams
//! `results/run_live.jsonl` and asserts the end-of-run contract: the
//! final JSONL line's cumulative counters exactly equal the
//! `RunReport` values for every [`runreport_twins`] pair, plus the
//! documented composites (`dbt.hits`, the seen-blocks upper bound).
//!
//! Writes `results/telemetry_overhead.json`. `--smoke` shrinks the
//! guest and skips the timing assertion (CI noise), keeping identity
//! and twin-equality asserted — this is verify.sh gate 10.

use bench::json::Json;
use bench::timing::workspace_root;
use s2e_core::parallel::{
    explore_parallel_live, ParallelConfig, ParallelReport, SchedulerKind, WorkerContext,
};
use s2e_core::selectors::make_mem_symbolic;
use s2e_core::{build_run_report, counter_schema, ConsistencyModel, Engine, EngineConfig};
use s2e_obs::{
    json, runreport_twins, Counter, LiveConfig, LiveSummary, LiveTelemetry, MetricsSnapshot,
};
use s2e_vm::asm::{Assembler, Program};
use s2e_vm::isa::reg;
use s2e_vm::machine::Machine;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const INPUT: u32 = 0x8000;
const MAX_STEPS: u64 = 5_000_000;
const WORKERS: usize = 4;
/// Sampling-vs-off wall-clock overhead bound asserted in full mode.
const MAX_OVERHEAD: f64 = 0.02;
/// Noisy-container retries before the full-mode assertion gives up.
const ATTEMPTS: usize = 3;
/// Straight-line filler per block (see obs_overhead: branch-only blocks
/// would magnify per-block costs past anything a real guest sees).
const BLOCK_FILLER: u32 = 12;
/// Delta-snapshot cadence for the timed sampling arms — twice the
/// shipped default (50 ms), so the gate bounds a harsher-than-default
/// case. Each tick is fixed work (snapshot + render + write) that on a
/// single-core host timeshares with the workers, so the bound must be
/// read per-tick, not per-sample.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// The `parallel_scaling` stress guest: byte 0 gates a binary tree over
/// `tree_bytes` further bytes, every branch double-validated. 2^n + 1
/// paths.
fn guest(tree_bytes: u32) -> Program {
    let mut a = Assembler::new(0x2000);
    a.movi(reg::R1, INPUT);
    a.movi(reg::R6, 128);
    a.ld8(reg::R2, reg::R1, 0);
    a.movi(reg::R3, 8);
    a.bltu(reg::R2, reg::R3, "deep");
    a.halt_code(1);
    a.label("deep");
    for i in 1..=tree_bytes {
        a.ld8(reg::R2, reg::R1, i);
        for _ in 0..BLOCK_FILLER {
            a.addi(reg::R8, reg::R8, 1);
        }
        a.bltu(reg::R2, reg::R6, &format!("lo{i}"));
        a.bltu(reg::R2, reg::R6, "unreachable");
        a.addi(reg::R7, reg::R7, 1);
        a.jmp(&format!("join{i}"));
        a.label(&format!("lo{i}"));
        a.bgeu(reg::R2, reg::R6, "unreachable");
        a.label(&format!("join{i}"));
    }
    a.halt_code(2);
    a.label("unreachable");
    a.halt_code(99);
    a.finish()
}

fn worker_engine(ctx: &WorkerContext, tree_bytes: u32) -> Engine {
    let mut m = Machine::new();
    m.load(&guest(tree_bytes));
    let mut e = ctx.engine(m, EngineConfig::with_model(ConsistencyModel::ScSe));
    let id = e.sole_state().unwrap();
    let b = e.builder_arc();
    make_mem_symbolic(e.state_mut(id).unwrap(), &b, INPUT, 1 + tree_bytes, "in");
    e
}

fn config(scheduler: SchedulerKind) -> ParallelConfig {
    let mut cfg = ParallelConfig::new(WORKERS, MAX_STEPS);
    // Small batches and a tiny hoard cap force real migration, so the
    // steal/park instrumentation is on the measured path.
    cfg.batch = 8;
    cfg.max_local_states = 2;
    cfg.scheduler = scheduler;
    cfg
}

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Off,
    Sampling,
    Endpoint,
}

fn run_arm(
    arm: Arm,
    scheduler: SchedulerKind,
    tree_bytes: u32,
    jsonl: Option<PathBuf>,
) -> (f64, ParallelReport, Option<LiveSummary>) {
    let cfg = config(scheduler);
    if arm == Arm::Off {
        let started = Instant::now();
        let report = explore_parallel_live(&cfg, None, |ctx| worker_engine(ctx, tree_bytes));
        return (started.elapsed().as_secs_f64(), report, None);
    }
    let live = LiveTelemetry::start(
        LiveConfig {
            workers: WORKERS,
            sample_interval: SAMPLE_EVERY,
            jsonl_path: jsonl,
            serve_addr: (arm == Arm::Endpoint).then(|| "127.0.0.1:0".to_string()),
        },
        &counter_schema(),
    )
    .expect("telemetry start");

    // The endpoint arm runs under concurrent scrape load: a client
    // thread polling both routes for the whole run.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = live.serve_addr().map(|addr| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let addr = addr.to_string();
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let metrics = s2e_obs::http_get(&addr, "/metrics").expect("/metrics scrape");
                assert!(metrics.contains("s2e_engine_blocks_executed"), "exposition shape");
                let report = s2e_obs::http_get(&addr, "/report").expect("/report scrape");
                assert!(report.contains("counters"), "report shape");
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            scrapes
        })
    });

    let started = Instant::now();
    let report =
        explore_parallel_live(&cfg, Some(&live), |ctx| worker_engine(ctx, tree_bytes));
    let wall = started.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    if let Some(t) = scraper {
        let scrapes = t.join().expect("scraper thread");
        assert!(scrapes > 0, "endpoint arm must observe at least one scrape");
    }
    let summary = live.finish().expect("telemetry finish");
    (wall, report, Some(summary))
}

/// What must be bit-identical across arms: the explored path set and
/// the fork structure that produced it.
fn fingerprint(r: &ParallelReport) -> (usize, u64, u64, Vec<u32>) {
    let mut covered: Vec<u32> = r.covered_blocks.iter().copied().collect();
    covered.sort_unstable();
    (r.total_paths, r.stats.forks, r.stats.states_created, covered)
}

/// The end-of-run contract: every registry counter with a RunReport
/// twin carries exactly the report's value, both in the final merged
/// snapshot and in the last JSONL line on disk.
fn assert_snapshot_identity(report: &ParallelReport, snap: &MetricsSnapshot, jsonl: &PathBuf) {
    let run_report = build_run_report(report, None);
    let twins = runreport_twins(snap, &run_report);
    // Every counter but the three live-only ones below has a twin.
    assert_eq!(twins.len(), snap.names.len() - 3, "registry counters lost their report twins");
    for &(name, got, want) in &twins {
        assert_eq!(got as f64, want, "registry {name} = {got} but RunReport {name} = {want}");
    }
    // Documented composites (the three live-only counters).
    let dbt_hits = run_report.section("dbt").and_then(|s| s.get("hits")).unwrap();
    assert_eq!(
        (snap.counter(Counter::DbtSharedHits) + snap.counter(Counter::DbtLocalHits)) as f64,
        dbt_hits,
        "dbt.hits must equal shared + local components"
    );
    let covered = run_report.section("parallel").and_then(|s| s.get("covered_blocks")).unwrap();
    assert!(
        snap.counter(Counter::EngineSeenBlocks) as f64 >= covered,
        "per-worker seen-blocks sum is an upper bound on the coverage union"
    );

    // The file on disk says the same thing: its final line is rendered
    // from the post-flush snapshot.
    let text = std::fs::read_to_string(jsonl).expect("run_live.jsonl readable");
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).expect("final line");
    let line = json::parse(last).expect("final line parses");
    assert_eq!(line.get("final").and_then(|v| v.as_bool()), Some(true));
    let counters = line.get("counters").expect("counters object");
    for &(name, _, want) in &twins {
        let got = counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("final line missing {name}"));
        assert_eq!(got, want, "run_live.jsonl final {name} = {got} but RunReport {name} = {want}");
    }
}

/// Runs all four arms `reps` times round-robin; returns per-arm min
/// wall seconds. Path identity is asserted on every rep.
fn run_timed_arms(tree_bytes: u32, reps: usize, scratch: &PathBuf) -> [f64; 4] {
    let arms = [Arm::Off, Arm::Off, Arm::Sampling, Arm::Endpoint];
    let mut walls = [f64::INFINITY; 4];
    let mut baseline_print: Option<(usize, u64, u64, Vec<u32>)> = None;
    for rep in 0..=reps {
        for (i, &arm) in arms.iter().enumerate() {
            let jsonl = (arm != Arm::Off).then(|| scratch.clone());
            let (wall, report, _) = run_arm(arm, SchedulerKind::Deque, tree_bytes, jsonl);
            let print = fingerprint(&report);
            match &baseline_print {
                None => baseline_print = Some(print),
                Some(base) => assert_eq!(
                    &print, base,
                    "arm {i} rep {rep}: telemetry changed the explored path set"
                ),
            }
            if rep > 0 {
                // rep 0 is the warmup round: caches, allocator, page-in.
                walls[i] = walls[i].min(wall);
            }
        }
    }
    walls
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Full mode needs a run long enough to measure steady-state
    // sampling cost rather than per-run fixed costs (handle setup,
    // first sampler tick, final flush): 2^12 + 1 paths is ~130 ms,
    // several sampler ticks deep.
    let (tree_bytes, reps) = if smoke { (5, 2) } else { (12, 6) };
    let expected_paths = (1usize << tree_bytes) + 1;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let started = Instant::now();
    let root = workspace_root();
    std::fs::create_dir_all(root.join("results")).unwrap();
    let scratch = std::env::temp_dir().join("s2e-telemetry-overhead-scratch.jsonl");

    // Path identity under telemetry, per scheduler (the timed arms
    // re-check the deque scheduler every rep; this pins the injector).
    for scheduler in [SchedulerKind::Deque, SchedulerKind::Injector] {
        let (_, plain, _) = run_arm(Arm::Off, scheduler, tree_bytes, None);
        let (_, live, _) = run_arm(Arm::Sampling, scheduler, tree_bytes, Some(scratch.clone()));
        assert_eq!(plain.total_paths, expected_paths, "path count ({scheduler:?})");
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&live),
            "telemetry changed the explored path set ({scheduler:?})"
        );
    }

    let mut attempts = Vec::new();
    let mut final_overhead = f64::INFINITY;
    let mut final_endpoint_overhead = f64::INFINITY;
    let mut final_noise = 0.0;
    for attempt in 0..if smoke { 1 } else { ATTEMPTS } {
        let [off_a, off_b, sampling, endpoint] = run_timed_arms(tree_bytes, reps, &scratch);
        let off = off_a.min(off_b);
        let overhead = (sampling - off) / off;
        let endpoint_overhead = (endpoint - off) / off;
        let noise = (off_a - off_b).abs() / off;
        println!(
            "attempt {attempt}: off {off:.4}s, sampling {sampling:.4}s, endpoint \
             {endpoint:.4}s -> overhead {:+.2}% / {:+.2}% (A/A noise {:.2}%)",
            overhead * 100.0,
            endpoint_overhead * 100.0,
            noise * 100.0,
        );
        attempts.push(
            Json::obj()
                .set("off_a_seconds", off_a)
                .set("off_b_seconds", off_b)
                .set("sampling_seconds", sampling)
                .set("endpoint_seconds", endpoint)
                .set("overhead", overhead)
                .set("endpoint_overhead", endpoint_overhead)
                .set("aa_noise", noise),
        );
        final_overhead = overhead;
        final_endpoint_overhead = endpoint_overhead;
        final_noise = noise;
        // An attempt passes when the sampling delta is within the
        // bound, or when it cannot be resolved against that attempt's
        // own A/A noise floor — this is what the off/off pair is for:
        // a single-core CI box can show same-vs-same deltas above 2%,
        // and no measurement can distinguish overhead below its noise.
        if overhead <= MAX_OVERHEAD.max(noise) {
            break;
        }
    }
    if !smoke {
        assert!(
            final_overhead <= MAX_OVERHEAD.max(final_noise),
            "telemetry sampling overhead {:.2}% exceeds {:.0}% (and the {:.2}% A/A noise \
             floor) after {ATTEMPTS} attempts",
            final_overhead * 100.0,
            MAX_OVERHEAD * 100.0,
            final_noise * 100.0,
        );
    }

    // Artifact arm: stream the real results/run_live.jsonl with the
    // endpoint up, then assert the end-of-run equality contract.
    let jsonl = root.join("results/run_live.jsonl");
    let (_, report, summary) =
        run_arm(Arm::Endpoint, SchedulerKind::Deque, tree_bytes, Some(jsonl.clone()));
    assert_eq!(report.total_paths, expected_paths, "artifact-arm path count");
    let summary = summary.unwrap();
    assert!(summary.lines >= 1, "sampler must write at least the final line");
    assert_snapshot_identity(&report, &summary.final_snapshot, &jsonl);
    println!("wrote {} ({} lines)", jsonl.display(), summary.lines);

    std::fs::remove_file(&scratch).ok();
    let out = Json::obj()
        .set("mode", if smoke { "smoke" } else { "full" })
        .set("guest", Json::obj().set("tree_bytes", tree_bytes).set("paths", expected_paths))
        .set("workers", WORKERS)
        .set("reps", reps)
        .set("cpus", cpus)
        .set("sample_interval_ms", SAMPLE_EVERY.as_millis() as u64)
        .set("attempts", Json::Arr(attempts))
        .set("overhead", final_overhead)
        .set("endpoint_overhead", final_endpoint_overhead)
        .set("aa_noise", final_noise)
        .set("max_overhead", MAX_OVERHEAD)
        .set("overhead_asserted", !smoke)
        .set("paths_identical", true)
        .set("snapshot_identity_asserted", true)
        .set("live_lines", summary.lines)
        .set("total_seconds", started.elapsed().as_secs_f64());
    let path = root.join("results/telemetry_overhead.json");
    std::fs::write(&path, out.render()).unwrap();
    println!("wrote {}", path.display());
}
