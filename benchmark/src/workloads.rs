//! The six workloads: how each guest image is prepared (set-up) and how
//! one exploration of it runs (the timed unit).
//!
//! A workload is a closed loop of one: explorations run back to back,
//! each on a fresh engine over the prebuilt image, so the work in one
//! exploration is the same on every commit and only its cost varies.

use crate::expected::{fold_digests, Counts};
use crate::spans::Tracer;
use s2e_analysis::{
    analyze, analyze_refined, PrepassBuilder, PrepassInfo, RefinedAnalysis, RegSet, TaintSeed,
};
use s2e_core::analyzers::{Coverage, PathKiller};
use s2e_core::parallel::{explore_parallel, EvictionPolicy, ParallelConfig};
use s2e_core::search::MaxCoverage;
use s2e_core::selectors::{constrain_range, make_config_symbolic};
use s2e_core::{
    CodeRanges, ConsistencyModel, Engine, EngineConfig, EngineStats, ExecState, RefinementUpdate,
    TerminationReason,
};
use s2e_dbt::DbtStats;
use s2e_dist::{Coordinator, JobSpec};
use s2e_guests::drivers::{build_exerciser, pcnet, Driver, ENTRY_ORDER};
use s2e_guests::kernel::{boot, standard_annotations, sys};
use s2e_guests::layout::cfg_keys;
use s2e_obs::json::{self, Json};
use s2e_obs::{ObsConfig, Phase, PhaseTotals, Recorder};
use s2e_prng::SplitMix64;
use s2e_solver::{QueryKind, SolverStats};
use s2e_vm::asm::{Assembler, Program};
use s2e_vm::interp::{run_concrete, RunOutcome};
use s2e_vm::isa::{reg, S2Op};
use s2e_vm::machine::Machine;
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "pcnet-scse",
    "pcnet-lc",
    "91c111-lc",
    "91c111-lc-par2",
    "91c111-lc-dist2",
    "checksum-concrete",
];

/// The guest id `s2e_dist::guest` resolves for the 91C111 workloads.
const SMC_GUEST: &str = "91c111";
const SMC_MODEL: ConsistencyModel = ConsistencyModel::Lc;
/// Far above what the 91C111 corpus needs: it runs to exhaustion.
const EXHAUSTIVE_STEPS: u64 = 5_000_000;
/// Threads of the threads tier, processes of the processes tier. The
/// box has two cores; no workload has more runnable than that.
const PARALLELISM: usize = 2;

/// The PCnet recipe: the §6.3 driver experiment's budget.
const PCNET_MAX_STEPS: u64 = 30_000;
const PCNET_MAX_STATES: usize = 64;
const PCNET_STAGNATION: u64 = 3_000;
const PCNET_KILLER_REPEATS: u32 = 2_000;

/// Checksum guest: a 256-word table swept `CHECKSUM_SWEEPS` times
/// (9.2 M instructions, under the engine's default 10 M per-path fuel).
const CHECKSUM_CODE: u32 = 0x2000;
const CHECKSUM_TABLE: u32 = 0x8000;
const CHECKSUM_TABLE_BYTES: u32 = 1024;
const CHECKSUM_SWEEPS: u32 = 6_000;

/// How many engines explore the image, and where they live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// One engine in this process.
    Single,
    /// `explore_parallel`: worker threads.
    Threads,
    /// `Coordinator::run_job`: worker processes over localhost TCP.
    Processes,
}

/// The PCnet image and the static model installed on every engine.
struct PcnetImage {
    model: ConsistencyModel,
    machine: Machine,
    config: EngineConfig,
    kernel: Program,
    driver: Driver,
    exerciser: Program,
    /// Shared with each engine's refiner. The corpus has no indirect
    /// target the static model misses, so the refiner never runs and
    /// the analysis stays as built; [`Prepared::explore`] rebuilds it
    /// if an exploration ever reports a discovery.
    refined: Arc<Mutex<RefinedAnalysis>>,
    /// Wall time of the `analyze_refined` call that built it.
    refined_ms: f64,
}

struct ChecksumImage {
    machine: Machine,
    annotator: Arc<PrepassInfo>,
    /// From `s2e-vm`'s reference interpreter — the DBT is never its
    /// own oracle.
    reference: Option<Reference>,
}

#[derive(Clone, Copy, Debug)]
struct Reference {
    kill_status: u32,
    instrs: u64,
    wall: Duration,
}

/// What `s2e_dist::guest::build("91c111", Lc)` returned.
struct SmcImage {
    machine: Machine,
    config: EngineConfig,
}

enum Image {
    Pcnet(Box<PcnetImage>),
    Smc(Box<SmcImage>),
    Checksum(Box<ChecksumImage>),
}

/// A workload ready to explore.
pub struct Prepared {
    pub name: &'static str,
    tier: Tier,
    image: Image,
    /// Sorted digest multiset of one plain in-process 91C111-LC
    /// exploration; both parallel tiers must reproduce it bit for bit.
    reference_digests: Option<Vec<u64>>,
}

/// Numbers only the processes tier has.
#[derive(Clone, Debug, Default)]
pub struct DistExtra {
    pub spawn: Duration,
    pub run_job: Duration,
    pub cache_imports: u64,
    pub steps_used: u64,
    /// `VmHWM` each worker process printed on exit, summed, in kB.
    pub workers_rss_kb: u64,
}

/// Everything one exploration produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Engine construction to exhaustion or budget (for the processes
    /// tier: until the last worker process is reaped).
    pub wall: Duration,
    pub counts: Counts,
    pub digests: Vec<u64>,
    pub engine: EngineStats,
    pub solver: SolverStats,
    pub dbt: DbtStats,
    /// `s2e-obs` phase self-times, when the recorder was on.
    pub phases: Option<PhaseTotals>,
    /// Paths that ended in `SolverTimeout`, plus `Unknown` verdicts.
    pub unresolved: u64,
    pub exports: u64,
    pub steals: u64,
    pub checkpoints_live: u64,
    pub dist: Option<DistExtra>,
    /// Checks beyond the pinned counts that this exploration failed.
    pub violations: Vec<String>,
}

fn variant_name(reason: &TerminationReason) -> String {
    let text = format!("{reason:?}");
    text.split(['(', ' ', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

fn sorted_digests(states: &[ExecState]) -> Vec<u64> {
    let mut d: Vec<u64> = states.iter().map(ExecState::path_digest).collect();
    d.sort_unstable();
    d
}

/// Reads a finished single-engine exploration into an [`Outcome`].
fn harvest(engine: &mut Engine, wall: Duration, pin_digest: bool) -> Outcome {
    let mut reasons = BTreeMap::new();
    let mut unresolved = 0;
    for (_, reason) in engine.terminated() {
        *reasons.entry(variant_name(reason)).or_insert(0) += 1;
        if matches!(reason, TerminationReason::SolverTimeout) {
            unresolved += 1;
        }
    }
    let digests = sorted_digests(engine.terminated_states());
    let stats = engine.stats().clone();
    let solver = engine.solver_stats().clone();
    let recorded = engine.recorder().is_enabled();
    Outcome {
        wall,
        counts: Counts {
            paths: engine.terminated().len() as u64,
            forks: stats.forks,
            guest_instrs: stats.total_instrs(),
            reasons: Some(reasons),
            bugs: Some(engine.bugs().len() as u64),
            digest: pin_digest.then(|| fold_digests(&digests)),
        },
        digests,
        unresolved: unresolved + solver.unknown,
        engine: stats,
        solver,
        dbt: engine.dbt_stats(),
        checkpoints_live: engine.checkpoint_registry().len() as u64,
        phases: recorded.then(|| engine.take_timeline().totals),
        ..Outcome::default()
    }
}

/// Steps `engine` until exhaustion or `max_steps`, with one span per
/// step while tracing. Untraced this is `Engine::run`.
fn run_steps(engine: &mut Engine, max_steps: u64, tracer: &mut Tracer) {
    if !tracer.enabled() {
        engine.run(max_steps);
        return;
    }
    for _ in 0..max_steps {
        let sp = tracer.enter("Engine::step");
        let stepped = engine.step().is_some();
        tracer.exit(sp);
        if !stepped {
            break;
        }
    }
}

fn fresh_engine(machine: &Machine, config: &EngineConfig, tracer: &mut Tracer) -> Engine {
    let mut engine = tracer.scope("Engine::new", || {
        Engine::new(machine.clone(), config.clone())
    });
    if tracer.enabled() {
        engine.set_recorder(Recorder::new(0, &ObsConfig::enabled()));
    }
    engine.set_retain_terminated(true);
    engine
}

// ---------------------------------------------------------------- PCnet

/// Roots and seeds of the driver corpus's whole-image analysis: kernel
/// entered from arbitrary context, driver entries under the harness
/// calling convention, the IRQ handler preempting anything, and the
/// exerciser, whose symbolic data enters at its own `S2Op` sites.
fn pcnet_refined(
    img_kernel: &Program,
    driver: &Driver,
    exerciser: &Program,
    symbolic_args: bool,
) -> RefinedAnalysis {
    let cfg = s2e_tools::deadcode::driver_analysis_config();
    let args = if symbolic_args {
        TaintSeed {
            regs: RegSet::single(reg::R0).with(reg::R1),
            mem: true,
        }
    } else {
        TaintSeed::clean()
    };
    let roots: Vec<(u32, TaintSeed)> = [(img_kernel.entry, TaintSeed::all())]
        .into_iter()
        .chain(ENTRY_ORDER.iter().map(|e| (driver.entry(e), args)))
        .chain([(driver.entry("irq"), TaintSeed::all())])
        .chain([(exerciser.entry, TaintSeed::clean())])
        .collect();
    analyze_refined(&[img_kernel, &driver.program, exerciser], &roots, &cfg)
        .expect("refined pre-pass exceeded its iteration bound")
}

fn prepare_pcnet(model: ConsistencyModel, tracer: &mut Tracer) -> PcnetImage {
    let symbolic_args = model == ConsistencyModel::Lc;
    let sp = tracer.enter("assemble guest");
    let driver = pcnet::build();
    let exerciser = build_exerciser(&driver, symbolic_args);
    tracer.exit(sp);
    let (mut machine, kernel) = tracer.scope("boot", boot);
    machine.load_aux(&driver.program);
    machine.load(&exerciser);

    let mut config = EngineConfig::with_model(model);
    config.code_ranges = CodeRanges::all().include(driver.code_range.clone());
    config.max_states = PCNET_MAX_STATES;
    if symbolic_args {
        config.annotations = standard_annotations();
    }
    config.rc_oc_excluded_syscalls = vec![sys::ALLOC];

    let started = Instant::now();
    let refined = tracer.scope("analyze_refined", || {
        pcnet_refined(&kernel, &driver, &exerciser, symbolic_args)
    });
    let refined_ms = started.elapsed().as_secs_f64() * 1e3;
    PcnetImage {
        model,
        machine,
        config,
        kernel,
        driver,
        exerciser,
        refined: Arc::new(Mutex::new(refined)),
        refined_ms,
    }
}

/// Installs the refined model: annotations with per-instruction
/// concrete masks, the indirect-target table, the discovery refiner.
fn install_refined(engine: &mut Engine, img: &PcnetImage, killer: PathKiller) -> PathKiller {
    let fork_range = img.driver.code_range.clone();
    let build_info = move |ra: &RefinedAnalysis| {
        PrepassBuilder::new()
            .allow_fork_range(fork_range.clone())
            .add_refined(ra)
            .build()
    };
    let (info, predictions) = {
        let ra = img.refined.lock().expect("refined analysis lock");
        (build_info(&ra), ra.predictions())
    };
    let dead = Arc::new(info.unreachable().clone());
    engine.set_predictions(Some(Arc::new(predictions)));
    engine.set_annotator(Some(Arc::new(info)));
    let shared = Arc::clone(&img.refined);
    engine.set_refiner(Some(Box::new(move |site, target| {
        let mut ra = shared.lock().expect("refined analysis lock");
        ra.absorb(site, target).ok()?;
        Some(RefinementUpdate {
            annotator: Arc::new(build_info(&ra)),
            predictions: Arc::new(ra.predictions()),
        })
    })));
    killer.with_dead_blocks(dead)
}

fn explore_pcnet(img: &PcnetImage, tracer: &mut Tracer) -> (Outcome, Engine) {
    let started = Instant::now();
    let mut engine = fresh_engine(&img.machine, &img.config, tracer);
    engine.set_strategy(Box::new(MaxCoverage::new()));
    let (coverage, cov) = Coverage::new(Some(img.driver.code_range.clone()));
    engine.add_plugin(Box::new(coverage));
    let killer = install_refined(&mut engine, img, PathKiller::new(PCNET_KILLER_REPEATS));
    engine.add_plugin(Box::new(killer));
    if img.model == ConsistencyModel::Lc {
        let id = engine.sole_state().expect("one initial state");
        let b = engine.builder_arc();
        let state = engine.state_mut(id).expect("initial state");
        let card = make_config_symbolic(state, &b, cfg_keys::CARD_TYPE, "CardType");
        constrain_range(state, &b, &card, 0, 7);
        let flags = make_config_symbolic(state, &b, cfg_keys::FLAGS, "Flags");
        constrain_range(state, &b, &flags, 0, 3);
    }
    engine.apply_model_hardware_policy();

    // The paper's 60-second stagnation timer, in steps: without new
    // driver coverage for a window, keep only the deepest path.
    let mut last_new = 0u64;
    let mut last_count = 0usize;
    for steps in 1..=PCNET_MAX_STEPS {
        let sp = tracer.enter("Engine::step");
        let stepped = engine.step().is_some();
        tracer.exit(sp);
        if !stepped {
            break;
        }
        let covered = cov.lock().expect("coverage lock").covered();
        if covered > last_count {
            last_count = covered;
            last_new = steps;
        } else if steps - last_new > PCNET_STAGNATION && engine.live_count() > 1 {
            let keep = engine
                .live_states()
                .max_by_key(|s| s.instrs_retired)
                .map(|s| s.id)
                .expect("live states");
            engine.kill_all_except(keep);
            last_new = steps;
        }
    }
    let outcome = harvest(&mut engine, started.elapsed(), true);
    (outcome, engine)
}

// --------------------------------------------------------------- 91C111

fn prepare_smc(tracer: &mut Tracer) -> SmcImage {
    let (machine, config) = tracer
        .scope("assemble guest + boot", || {
            s2e_dist::guest::build(SMC_GUEST, SMC_MODEL)
        })
        .expect("91c111 is a registered guest");
    SmcImage { machine, config }
}

fn explore_smc(img: &SmcImage, tracer: &mut Tracer) -> (Outcome, Engine) {
    let started = Instant::now();
    let mut engine = fresh_engine(&img.machine, &img.config, tracer);
    s2e_dist::guest::inject(&mut engine, SMC_GUEST).expect("91c111 is a registered guest");
    run_steps(&mut engine, EXHAUSTIVE_STEPS, tracer);
    let outcome = harvest(&mut engine, started.elapsed(), true);
    (outcome, engine)
}

fn explore_smc_par2(img: &SmcImage, tracer: &mut Tracer) -> Outcome {
    let started = Instant::now();
    let mut cfg = ParallelConfig::new(PARALLELISM, EXHAUSTIVE_STEPS);
    // Every export rides its queue in compact form, as on the wire of
    // the processes tier, so evict and rehydrate really run here.
    cfg.eviction = EvictionPolicy::Aggressive;
    if tracer.enabled() {
        cfg.obs = ObsConfig::enabled();
    }
    let report = tracer.scope("explore_parallel", || {
        explore_parallel(&cfg, |ctx| {
            let mut engine = ctx.engine(img.machine.clone(), img.config.clone());
            s2e_dist::guest::inject(&mut engine, SMC_GUEST).expect("91c111 is a registered guest");
            engine.set_retain_terminated(true);
            engine
        })
    });
    let wall = started.elapsed();
    let mut violations = Vec::new();
    if report.queue_leftover != 0 {
        violations.push(format!(
            "{} states stranded in the queues",
            report.queue_leftover
        ));
    }
    let phases = tracer.enabled().then(|| {
        let mut totals = PhaseTotals::default();
        for w in &report.workers {
            totals.merge(&w.timeline.totals);
        }
        totals
    });
    Outcome {
        wall,
        counts: Counts {
            paths: report.total_paths as u64,
            forks: report.stats.forks,
            guest_instrs: report.stats.total_instrs(),
            reasons: None,
            bugs: Some(report.bugs.len() as u64),
            digest: Some(fold_digests(&report.path_digests)),
        },
        digests: report.path_digests,
        unresolved: report.solver.unknown,
        engine: report.stats,
        solver: report.solver,
        dbt: report.dbt,
        phases,
        exports: report.exports,
        steals: report.steals,
        violations,
        ..Outcome::default()
    }
}

/// Sums the named counter over the last snapshot line of each worker
/// in the coordinator's merged feed.
fn feed_counter(last_lines: &BTreeMap<u64, Json>, name: &str) -> u64 {
    last_lines
        .values()
        .filter_map(|line| line.get("inner")?.get("counters")?.get(name)?.as_u64())
        .sum()
}

/// The worker processes of one job. Dropping it kills and reaps
/// whatever is still running, so no error path leaves a process behind.
struct Workers(Vec<Child>);

impl Workers {
    fn spawn(addr: &str) -> Result<Workers, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut workers = Workers(Vec::new());
        for w in 0..PARALLELISM {
            let child = Command::new(&exe)
                .args(["--role", "worker", "--addr", addr])
                .args(["--worker", &w.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn worker {w}: {e}"))?;
            workers.0.push(child);
        }
        Ok(workers)
    }

    /// Waits for every worker to exit on its own and returns the sum of
    /// the `VmHWM`s (kB) they printed.
    fn reap(mut self) -> Result<u64, String> {
        let mut rss_kb = 0;
        for (w, child) in self.0.iter_mut().enumerate() {
            let mut text = String::new();
            if let Some(mut out) = child.stdout.take() {
                out.read_to_string(&mut text)
                    .map_err(|e| format!("worker {w} stdout: {e}"))?;
            }
            let status = child.wait().map_err(|e| format!("worker {w}: {e}"))?;
            if !status.success() {
                return Err(format!("worker {w} exited with {status}"));
            }
            rss_kb += text
                .trim()
                .strip_prefix("vmhwm_kb ")
                .and_then(|n| n.parse::<u64>().ok())
                .ok_or_else(|| format!("worker {w} reported no VmHWM"))?;
        }
        Ok(rss_kb)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Both fail harmlessly on a worker that already exited.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn explore_smc_dist2(tracer: &mut Tracer) -> Result<Outcome, String> {
    let started = Instant::now();
    let (coordinator, workers) = tracer.scope("spawn workers", || {
        let coordinator = Coordinator::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = coordinator.addr().map_err(|e| format!("addr: {e}"))?;
        Ok::<_, String>((coordinator, Workers::spawn(&addr.to_string())?))
    })?;
    let spawn = started.elapsed();

    let spec = JobSpec::new(SMC_GUEST, SMC_MODEL, EXHAUSTIVE_STEPS, PARALLELISM as u32);
    let mut feed: Vec<String> = Vec::new();
    let job_started = Instant::now();
    let result = tracer.scope("Coordinator::run_job", || {
        coordinator.run_job(&spec, Some(|line: &str| feed.push(line.to_string())))
    });
    let run_job = job_started.elapsed();
    let report = result.map_err(|e| format!("run_job: {e}"))?;
    let workers_rss_kb = tracer.scope("reap workers", || workers.reap())?;
    let wall = started.elapsed();

    let mut violations = Vec::new();
    if let Err(e) = s2e_dist::coordinator::check_conservation(&report) {
        violations.push(format!("conservation: {e}"));
    }
    if report.queue_leftover != 0 {
        violations.push(format!(
            "{} states stranded in the coordinator queue",
            report.queue_leftover
        ));
    }

    // Worker engines live in other processes; what they spent reaches
    // this one only through the live feed's cumulative counters.
    let mut last_lines = BTreeMap::new();
    for line in feed.iter().rev() {
        if last_lines.len() == PARALLELISM {
            break;
        }
        let j = json::parse(line).map_err(|e| format!("feed line: {e:?}"))?;
        let w = j
            .get("worker")
            .and_then(Json::as_u64)
            .ok_or("feed line names no worker")?;
        last_lines.entry(w).or_insert(j);
    }
    let fed = |name: &str| feed_counter(&last_lines, name);
    let mut solver = SolverStats {
        queries: fed("solver.queries"),
        sat: fed("solver.sat"),
        unsat: fed("solver.unsat"),
        unknown: fed("solver.unknown"),
        cache_hits: fed("solver.cache_hits"),
        shared_hits: fed("solver.shared_hits"),
        pool_hits: fed("solver.pool_hits"),
        subsumption_hits: fed("solver.subsumption_hits"),
        core_solves: fed("solver.core_solves"),
        total_time: Duration::from_nanos(fed("solver.total_time_ns")),
        ..SolverStats::default()
    };
    for kind in QueryKind::ALL {
        let k = &mut solver.by_kind[kind.index()];
        k.queries = fed(&format!("solver_by_kind.{}.queries", kind.name()));
        k.time = Duration::from_nanos(fed(&format!("solver_by_kind.{}.time_ns", kind.name())));
    }
    // Each worker process has its own block cache, so these add up.
    let dbt = DbtStats {
        translations: fed("dbt.translations"),
        // `local_hits` is the worker-local `DbtStats::hits`: L1 hits included.
        hits: fed("dbt.local_hits") + fed("dbt.shared_hits"),
        l1_hits: fed("dbt.l1_hits"),
        chain_entries: fed("dbt.chain_entries"),
        translation_time: Duration::from_nanos(fed("dbt.translation_time_ns")),
        ..DbtStats::default()
    };
    // Of the phases only these two have a clock the feed carries; the
    // rest of the workers' time shows up as unaccounted.
    let phases = tracer.enabled().then(|| {
        let mut totals = PhaseTotals::default();
        totals.add_nanos(Phase::Solve, solver.total_time.as_nanos() as u64);
        totals.add_nanos(Phase::Translate, dbt.translation_time.as_nanos() as u64);
        totals
    });
    let mut engine = EngineStats {
        forks: report.forks,
        ..EngineStats::default()
    };
    for w in &report.workers {
        engine.instrs_concrete += w.instrs_concrete;
        engine.instrs_symbolic += w.instrs_symbolic;
        engine.concretizations += w.concretizations;
        engine.journal_bytes += w.journal_bytes;
    }
    engine.evictions = report.evictions;
    engine.rehydrations = report.rehydrations;
    engine.blocks_executed = report.blocks_executed;
    Ok(Outcome {
        wall,
        counts: Counts {
            paths: report.total_paths,
            forks: report.forks,
            guest_instrs: engine.total_instrs(),
            reasons: None,
            bugs: None,
            digest: Some(fold_digests(&report.path_digests)),
        },
        digests: report.path_digests,
        unresolved: solver.unknown,
        engine,
        solver,
        dbt,
        phases,
        exports: report.exports,
        steals: report.steals,
        dist: Some(DistExtra {
            spawn,
            run_job,
            cache_imports: report.cache_imports,
            steps_used: report.steps_used,
            workers_rss_kb,
        }),
        violations,
        ..Outcome::default()
    })
}

// ------------------------------------------------------------- checksum

/// The all-concrete guest: fold a 256-word table into a checksum,
/// `CHECKSUM_SWEEPS` times over. Straight-line ALU and memory work
/// linked by direct edges; the checksum rides out in the kill status.
fn checksum_program() -> Program {
    let mut a = Assembler::new(CHECKSUM_CODE);
    a.movi(reg::R1, CHECKSUM_TABLE);
    a.movi(reg::R4, CHECKSUM_TABLE_BYTES);
    a.movi(reg::R2, 0);
    a.movi(reg::R8, 0);
    a.movi(reg::R9, CHECKSUM_SWEEPS);
    a.label("outer");
    a.movi(reg::R3, 0);
    a.label("loop");
    a.add(reg::R6, reg::R1, reg::R3);
    a.ld32(reg::R5, reg::R6, 0);
    a.xor(reg::R2, reg::R2, reg::R5);
    a.muli(reg::R2, reg::R2, 0x9e37_79b1);
    a.addi(reg::R3, reg::R3, 4);
    a.bltu(reg::R3, reg::R4, "loop");
    a.addi(reg::R8, reg::R8, 1);
    a.bltu(reg::R8, reg::R9, "outer");
    a.mov(reg::R0, reg::R2);
    a.s2e(S2Op::KillPath);
    a.finish()
}

fn prepare_checksum(seed: u64, tracer: &mut Tracer) -> ChecksumImage {
    let program = tracer.scope("assemble guest", checksum_program);
    let mut rng = SplitMix64::new(seed);
    let table: Vec<u8> = (0..CHECKSUM_TABLE_BYTES).map(|_| rng.next_u8()).collect();
    let mut machine = Machine::new();
    machine.load(&program);
    machine.mem.load_image(CHECKSUM_TABLE, &table);

    // The base pre-pass with clean taint roots proves every block
    // `concrete_only`, which is what gates the threaded dispatch path.
    let annotator = tracer.scope("analyze", || {
        let cfg = s2e_tools::deadcode::driver_analysis_config();
        let analysis = analyze(&program, &[(program.entry, TaintSeed::clean())], &cfg)
            .expect("static pre-pass exceeded its iteration bound");
        Arc::new(PrepassBuilder::new().add(&analysis).build())
    });
    ChecksumImage {
        machine,
        annotator,
        reference: None,
    }
}

fn run_reference(machine: &Machine) -> Reference {
    let mut m = machine.clone();
    let started = Instant::now();
    let outcome = run_concrete(&mut m, u64::MAX);
    let wall = started.elapsed();
    match outcome {
        Ok(RunOutcome::Halted(kill_status)) => Reference {
            kill_status,
            instrs: m.vtime,
            wall,
        },
        other => panic!("reference interpreter did not finish the checksum guest: {other:?}"),
    }
}

fn explore_checksum(img: &ChecksumImage, tracer: &mut Tracer) -> (Outcome, Engine) {
    let started = Instant::now();
    let config = EngineConfig::with_model(ConsistencyModel::ScSe);
    let mut engine = fresh_engine(&img.machine, &config, tracer);
    engine.set_annotator(Some(img.annotator.clone()));
    run_steps(&mut engine, EXHAUSTIVE_STEPS, tracer);
    let mut out = harvest(&mut engine, started.elapsed(), false);
    if let Some(reference) = img.reference {
        let want = TerminationReason::Killed(reference.kill_status);
        match engine.terminated() {
            [(_, got)] if *got == want => {}
            other => out.violations.push(format!(
                "kill status {other:?} differs from the reference interpreter's {want:?}"
            )),
        }
        if out.counts.guest_instrs != reference.instrs {
            out.violations.push(format!(
                "retired {} instructions, the reference interpreter {}",
                out.counts.guest_instrs, reference.instrs
            ));
        }
    }
    let instrumented = out.engine.blocks_executed - out.engine.concrete_only_blocks;
    if instrumented > 1 {
        out.violations.push(format!(
            "{instrumented} of {} blocks ran outside the concrete-only dispatch path",
            out.engine.blocks_executed
        ));
    }
    (out, engine)
}

// ------------------------------------------------------------ interface

impl Prepared {
    /// Set-up: guest assembly, kernel boot, static pre-pass. `seed`
    /// drives the checksum table's contents.
    pub fn new(name: &str, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
        let name = NAMES
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let mut pcnet = |model| Image::Pcnet(Box::new(prepare_pcnet(model, tracer)));
        let (image, tier) = match name {
            "pcnet-scse" => (pcnet(ConsistencyModel::ScSe), Tier::Single),
            "pcnet-lc" => (pcnet(ConsistencyModel::Lc), Tier::Single),
            "91c111-lc" => (Image::Smc(Box::new(prepare_smc(tracer))), Tier::Single),
            "91c111-lc-par2" => (Image::Smc(Box::new(prepare_smc(tracer))), Tier::Threads),
            "91c111-lc-dist2" => (Image::Smc(Box::new(prepare_smc(tracer))), Tier::Processes),
            "checksum-concrete" => {
                let img = prepare_checksum(seed, tracer);
                (Image::Checksum(Box::new(img)), Tier::Single)
            }
            _ => unreachable!("every name in NAMES has an image"),
        };
        Ok(Prepared {
            name,
            tier,
            image,
            reference_digests: None,
        })
    }

    /// Computes what explorations are checked against beyond
    /// `expected.json`: the reference interpreter's run of the checksum
    /// guest, and for the parallel tiers the digest multiset of one
    /// plain exploration. Not part of set-up: the product pays neither.
    pub fn attach_oracles(&mut self) {
        if let Image::Checksum(img) = &mut self.image {
            img.reference = Some(run_reference(&img.machine));
        }
        self.reference_digests = self
            .explore_plain(&mut Tracer::new(false))
            .map(|plain| plain.digests);
    }

    /// Whether this workload forks and queries the solver.
    pub fn symbolic(&self) -> bool {
        !matches!(self.image, Image::Checksum(_))
    }

    /// Threads or processes exploring at once.
    pub fn parallelism(&self) -> usize {
        match self.tier {
            Tier::Single => 1,
            Tier::Threads | Tier::Processes => PARALLELISM,
        }
    }

    /// The parallel tiers' guest on one plain engine: their digest
    /// oracle, and the base of their speed-up. `None` on a single tier.
    pub fn explore_plain(&self, tracer: &mut Tracer) -> Option<Outcome> {
        match (&self.image, self.tier) {
            (Image::Smc(img), Tier::Threads | Tier::Processes) => Some(explore_smc(img, tracer).0),
            _ => None,
        }
    }

    /// A fresh engine over the 91C111 image with its symbolic inputs
    /// injected, for the migration probe to drive by hand.
    pub fn probe_engine(&self) -> Option<Engine> {
        let Image::Smc(img) = &self.image else {
            return None;
        };
        let mut engine = Engine::new(img.machine.clone(), img.config.clone());
        s2e_dist::guest::inject(&mut engine, SMC_GUEST).ok()?;
        Some(engine)
    }

    /// Wall time of `analyze_refined` in set-up; `None` off the PCnet guest.
    pub fn refined_ms(&self) -> Option<f64> {
        match &self.image {
            Image::Pcnet(img) => Some(img.refined_ms),
            _ => None,
        }
    }

    /// Reference-interpreter speed on the checksum guest.
    pub fn reference_instrs_per_s(&self) -> Option<f64> {
        let Image::Checksum(img) = &self.image else {
            return None;
        };
        img.reference
            .map(|r| r.instrs as f64 / r.wall.as_secs_f64())
    }

    /// One exploration on a single engine, handing the finished engine
    /// back (retained terminated states included) for the query replay.
    /// `None` on the parallel tiers.
    pub fn explore_keeping_engine(&self, tracer: &mut Tracer) -> Option<(Outcome, Engine)> {
        if self.tier != Tier::Single {
            return None;
        }
        Some(match &self.image {
            Image::Pcnet(img) => explore_pcnet(img, tracer),
            Image::Smc(img) => explore_smc(img, tracer),
            Image::Checksum(img) => explore_checksum(img, tracer),
        })
    }

    /// One exploration. A panic inside the product or a job error comes
    /// back as `Err`; a failed check as a violation in the outcome.
    /// Either way it is a failed exploration, which the caller counts.
    pub fn explore(&mut self, tracer: &mut Tracer) -> Result<Outcome, String> {
        let run = std::panic::AssertUnwindSafe(|| match (&self.image, self.tier) {
            (Image::Smc(img), Tier::Threads) => Ok(explore_smc_par2(img, tracer)),
            (Image::Smc(_), Tier::Processes) => explore_smc_dist2(tracer),
            _ => self
                .explore_keeping_engine(tracer)
                .map(|(outcome, _)| outcome)
                .ok_or_else(|| format!("`{}` has no parallel tier", self.name)),
        });
        let mut outcome =
            std::panic::catch_unwind(run).map_err(|_| "exploration panicked".to_string())??;

        if let Some(reference) = &self.reference_digests {
            if outcome.digests != *reference {
                outcome
                    .violations
                    .push("path digests differ from the plain 91c111-lc exploration".to_string());
            }
        }
        if self.tier != Tier::Single && outcome.exports == 0 {
            outcome
                .violations
                .push("no state was exported: the migrate layer never ran".to_string());
        }
        // A workload that stopped doing its work must not pass as fast.
        if self.symbolic() {
            if outcome.counts.paths <= 1 || outcome.solver.queries == 0 {
                outcome
                    .violations
                    .push("vacuous: a symbolic workload must fork and query".to_string());
            }
        } else if outcome.solver.queries != 0 || outcome.counts.forks != 0 {
            outcome
                .violations
                .push("the concrete workload forked or queried the solver".to_string());
        }
        if outcome.unresolved > 0 {
            outcome.violations.push(format!(
                "{} solver timeouts or unknown verdicts",
                outcome.unresolved
            ));
        }
        if let Image::Pcnet(img) = &self.image {
            if outcome.engine.indirect_targets_discovered > 0 {
                let fresh = pcnet_refined(
                    &img.kernel,
                    &img.driver,
                    &img.exerciser,
                    img.model == ConsistencyModel::Lc,
                );
                *img.refined.lock().expect("refined analysis lock") = fresh;
            }
        }
        Ok(outcome)
    }
}
