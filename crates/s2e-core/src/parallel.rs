//! Parallel path exploration with work stealing.
//!
//! The original S2E parallelized exploration the simple way: N engine
//! instances, each statically owning a slice of the input space. That
//! architecture (kept here as [`explore_static`] for comparison) has the
//! load-imbalance problem the S2E/Cloud9 lineage ran into — whichever
//! worker's slice contains the deep subtree finishes last while the rest
//! idle, and every worker pays for its own cold solver and translation
//! caches.
//!
//! [`explore_parallel`] replaces that with dynamic state migration. Two
//! schedulers implement it ([`SchedulerKind`]):
//!
//! - **[`SchedulerKind::Deque`]** (default): each worker owns a
//!   Chase–Lev deque ([`crate::deque`]) and pushes/pops fork-overflow
//!   states on its own bottom lock-free; idle workers steal single
//!   states off victims' tops with one CAS, scanning victims in an
//!   order shuffled per worker by a seeded [`s2e_prng::SplitMix64`].
//!   The only mutex guards the park path — taken when every deque is
//!   observed empty, never on the data path. Workers observed parking
//!   feed an *idle pressure* signal back into the export decision
//!   (DESIGN.md §12), so exports get eager exactly while starvation is
//!   being observed.
//! - **[`SchedulerKind::Injector`]**: the PR-1 baseline — one shared
//!   injector queue behind a `Mutex` + `Condvar`. Kept as the ablation
//!   arm `bench --bin parallel_scaling` compares against.
//!
//! Both share one [`ExprBuilder`] so variable ids stay globally unique
//! as states migrate, one solver query cache (`s2e-solver`), and the
//! shared translation-block cache (`s2e-dbt`), so a stolen state never
//! re-pays solver or translation work its previous owner already did.
//!
//! Every migrated state is accounted: `exports == steals + reclaims +
//! queue_leftover` ([`ParallelReport`]), asserted after every run —
//! states are exported exactly once and then either stolen by another
//! worker, reclaimed by their exporter, or counted as leftover when the
//! step budget ends the run first.
//!
//! Under an [`EvictionPolicy`], exported states may ride the queues in
//! compact `{checkpoint, journal}` form (§13) instead of as full live
//! states: the exporter evicts ([`Engine::evict_state`]), the taker
//! rehydrates by deterministic replay ([`Engine::rehydrate`]), and the
//! conservation invariant extends to `evictions == rehydrations +
//! evicted_leftover` — every compact state is either reconstructed or
//! counted when the budget strands it.
//!
//! Exploration remains deterministic in outcome: the set of feasible
//! paths is a property of the guest, not of the schedule, so any worker
//! count and either scheduler yields the same total path count and the
//! same bug set (see `tests/parallel_determinism.rs`).
//!
//! ```
//! use s2e_core::parallel::{explore_parallel, ParallelConfig};
//! use s2e_core::selectors::make_reg_symbolic;
//! use s2e_core::{ConsistencyModel, EngineConfig};
//! use s2e_vm::asm::Assembler;
//! use s2e_vm::isa::reg;
//! use s2e_vm::machine::Machine;
//!
//! let report = explore_parallel(&ParallelConfig::new(2, 10_000), |ctx| {
//!     let mut a = Assembler::new(0x2000);
//!     a.movi(reg::R1, 128);
//!     a.bltu(reg::R0, reg::R1, "low");
//!     a.halt_code(1);
//!     a.label("low");
//!     a.halt_code(2);
//!     let mut m = Machine::new();
//!     m.load(&a.finish());
//!     let mut e = ctx.engine(m, EngineConfig::with_model(ConsistencyModel::ScSe));
//!     let id = e.sole_state().unwrap();
//!     let b = e.builder_arc();
//!     make_reg_symbolic(e.state_mut(id).unwrap(), &b, reg::R0, "x");
//!     e
//! });
//! assert_eq!(report.total_paths, 2);
//! ```

use crate::config::EngineConfig;
use crate::deque::{self, Steal, Stealer};
use crate::engine::{Engine, SharedEngineContext};
use crate::plugin::BugReport;
use crate::state::{CompactState, ExecState, StateId};
use crate::stats::EngineStats;
use s2e_dbt::DbtStats;
use s2e_expr::{ExprBuilder, ExprRef, Width};
use s2e_obs::{
    Counter, EventKind, Gauge, Hist, LiveTelemetry, ObsConfig, Phase, Recorder, TelemetryHandle,
    WorkerTimeline,
};
use s2e_prng::SplitMix64;
use s2e_solver::{SharedCacheStats, SharedQueryCache, SolverStats};
use s2e_vm::machine::Machine;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one worker produced.
#[derive(Debug)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Paths terminated by this worker.
    pub paths: usize,
    /// Sorted [`ExecState::path_digest`] values of this worker's
    /// terminated paths — nonempty only when the engine-builder closure
    /// enabled [`Engine::set_retain_terminated`]. The distributed tier
    /// compares the merged multiset against its own (DESIGN.md §17).
    pub path_digests: Vec<u64>,
    /// Bugs found by this worker's analyzers.
    pub bugs: Vec<BugReport>,
    /// Block-start addresses this worker executed.
    pub covered_blocks: HashSet<u32>,
    /// This worker's engine statistics.
    pub stats: EngineStats,
    /// States this worker took that *another* worker exported (injector
    /// pops, or cross-worker deque steals).
    pub steals: u64,
    /// States this worker popped back off its *own* deque after
    /// exporting them (always 0 in injector mode, where exports go to
    /// the shared queue and never return to their exporter directly).
    pub reclaims: u64,
    /// States this worker exported (shared queue or own deque).
    pub exports: u64,
    /// Solver queries this worker answered from the cross-worker shared
    /// cache (each one is a solve another worker paid for).
    pub shared_query_hits: u64,
    /// Solver queries this worker issued in total.
    pub solver_queries: u64,
    /// Queries (or query components) that reached this worker's SAT
    /// core — missed every cache layer, including the shared one.
    pub solver_core_solves: u64,
    /// This worker's full solver statistics (per-kind breakdown, cache
    /// eviction counters, query timing).
    pub solver: SolverStats,
    /// This worker's observability timeline (empty unless
    /// [`ParallelConfig::obs`] enabled recording).
    pub timeline: WorkerTimeline,
    /// This worker's private DBT counters (L1 hits, chain entries/exits)
    /// — the shared-cache counters live in [`ParallelReport::dbt`]
    /// alongside these, merged.
    pub dbt: DbtStats,
}

/// What sits in a scheduler queue: a live state, or one evicted to its
/// compact `{checkpoint, journal}` form under the [`EvictionPolicy`].
#[derive(Debug)]
pub enum QueuedState {
    /// A full live state, attached directly on take.
    Live(ExecState),
    /// A compact state, rehydrated by deterministic replay on take.
    Compact(CompactState),
}

impl QueuedState {
    /// The queued state's id, whichever form it rides in.
    pub fn id(&self) -> StateId {
        match self {
            QueuedState::Live(s) => s.id,
            QueuedState::Compact(c) => c.id,
        }
    }

    /// Bytes this entry keeps resident while queued — the quantity the
    /// eviction policy caps and `queue_bytes_peak` watermarks. Live
    /// states count their private machine memory; compact states count
    /// their journal plus header (the shared checkpoint `Arc` is
    /// amortized across siblings).
    pub fn resident_bytes(&self) -> usize {
        match self {
            QueuedState::Live(s) => s.machine.private_state_bytes(),
            QueuedState::Compact(c) => c.resident_bytes(),
        }
    }
}

/// When exported states are evicted to compact form (§13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Never evict: queues hold live states (the pre-§13 behavior).
    Off,
    /// Evict an export when the bytes already resident in the queues
    /// plus the candidate's own would exceed this many.
    Cap(usize),
    /// Evict every export — the stress and verification mode, and the
    /// fig8 checkpointed arm.
    Aggressive,
}

/// Which migration scheduler [`explore_parallel`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Per-worker Chase–Lev deques, lock-free on the data path
    /// (default; DESIGN.md §12).
    Deque,
    /// The PR-1 single shared injector queue (`Mutex` + `Condvar`),
    /// kept as the ablation baseline.
    Injector,
}

/// Tunables for [`explore_parallel`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker thread count.
    pub workers: usize,
    /// Global step budget shared by all workers (an engine step is one
    /// translation block).
    pub max_steps: u64,
    /// Steps a worker claims from the global budget per scheduler
    /// interaction; the granularity of budget accounting and of export
    /// checks.
    pub batch: u64,
    /// A worker exports surplus states beyond this many even when nobody
    /// is idle, keeping migratable work visible (halved while idle
    /// pressure is observed in deque mode).
    pub max_local_states: usize,
    /// Which migration scheduler to use.
    pub scheduler: SchedulerKind,
    /// When exported states are shipped compact instead of live (§13).
    pub eviction: EvictionPolicy,
    /// Embed a fingerprint in every evicted state and assert the
    /// rehydrated reconstruction is bit-identical (replay-identity
    /// checking; costs a full-state digest per eviction and per
    /// rehydration).
    pub verify_replay: bool,
    /// Observability: when enabled, every worker records phase timers
    /// and an event timeline (disabled by default; DESIGN.md §11).
    pub obs: ObsConfig,
}

impl ParallelConfig {
    /// Config with default batch size, local-state cap, and the deque
    /// scheduler.
    pub fn new(workers: usize, max_steps: u64) -> ParallelConfig {
        ParallelConfig {
            workers,
            max_steps,
            batch: 64,
            max_local_states: 8,
            scheduler: SchedulerKind::Deque,
            eviction: EvictionPolicy::Off,
            verify_replay: false,
            obs: ObsConfig::default(),
        }
    }

    /// The same config running the injector baseline.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> ParallelConfig {
        self.scheduler = scheduler;
        self
    }
}

/// Merged result of a work-stealing exploration.
#[derive(Debug)]
pub struct ParallelReport {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerReport>,
    /// All workers' engine stats merged ([`EngineStats::merge`]).
    pub stats: EngineStats,
    /// All bugs, in worker order.
    pub bugs: Vec<BugReport>,
    /// Union of covered blocks.
    pub covered_blocks: HashSet<u32>,
    /// Total paths terminated.
    pub total_paths: usize,
    /// All workers' [`WorkerReport::path_digests`], merged and sorted —
    /// the schedule-independent identity of the explored path set.
    pub path_digests: Vec<u64>,
    /// Total exported states taken by a *different* worker.
    pub steals: u64,
    /// Total exported states popped back by their own exporter (deque
    /// mode only).
    pub reclaims: u64,
    /// Total states exported for migration.
    pub exports: u64,
    /// Exported states never taken before the run ended — nonzero only
    /// when the step budget truncated exploration. Every export is
    /// accounted: `exports == steals + reclaims + queue_leftover`.
    pub queue_leftover: u64,
    /// Evicted states stranded compact in a queue when the run ended —
    /// the compact-form share of `queue_leftover`. Every eviction is
    /// accounted: `stats.evictions == stats.rehydrations +
    /// evicted_leftover`.
    pub evicted_leftover: u64,
    /// High-watermark of bytes resident in scheduler queues across the
    /// run — the quantity eviction exists to cap, and the metric the
    /// fig8 checkpointed arm reports.
    pub queue_bytes_peak: usize,
    /// Shared solver query-cache counters (cross-worker hits).
    pub shared_cache: SharedCacheStats,
    /// Translation-block cache counters: the shared cache's totals
    /// merged with every worker's private L1/chain counters, so `hits`
    /// counts L1 and shared hits consistently.
    pub dbt: DbtStats,
    /// All workers' solver stats merged ([`SolverStats::merge`]).
    pub solver: SolverStats,
    /// End-to-end wall-clock time of the exploration, distinct from the
    /// summed per-worker CPU time in [`EngineStats::cpu_time`].
    pub wall_time: Duration,
}

/// Per-worker handle passed to the engine-builder closure of
/// [`explore_parallel`].
pub struct WorkerContext<'a> {
    /// This worker's index.
    pub worker: usize,
    /// Total worker count.
    pub workers: usize,
    shared: &'a SharedEngineContext,
}

impl WorkerContext<'_> {
    /// Builds an engine wired to the exploration's shared builder,
    /// translation cache, and solver cache, with this worker's state-id
    /// namespace. Always construct worker engines through this — a plain
    /// [`Engine::new`] would use private caches and colliding state ids.
    pub fn engine(&self, machine: Machine, config: EngineConfig) -> Engine {
        let mut engine = Engine::with_shared(machine, config, self.shared);
        engine.set_state_id_namespace(self.worker);
        engine
    }

    /// The shared expression builder.
    pub fn builder(&self) -> Arc<ExprBuilder> {
        Arc::clone(&self.shared.builder)
    }
}

/// The global step budget, claimed batch-wise by workers.
struct StepBudget {
    steps: AtomicU64,
}

impl StepBudget {
    fn new() -> StepBudget {
        StepBudget {
            steps: AtomicU64::new(0),
        }
    }

    /// Claims up to `batch` steps from the global budget; 0 means the
    /// budget is spent.
    fn claim(&self, max_steps: u64, batch: u64) -> u64 {
        let mut cur = self.steps.load(Ordering::Relaxed);
        loop {
            if cur >= max_steps {
                return 0;
            }
            let take = batch.min(max_steps - cur);
            match self.steps.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns unused claimed steps to the budget.
    fn refund(&self, unused: u64) {
        if unused > 0 {
            self.steps.fetch_sub(unused, Ordering::Relaxed);
        }
    }
}

/// Queue-resident byte accounting shared by both schedulers: `add` on
/// export (before the state becomes takeable), `sub` on take. The peak
/// is the run's queue-memory high-watermark.
struct QueueBytes {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl QueueBytes {
    fn new() -> QueueBytes {
        QueueBytes {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn add(&self, n: usize) {
        let now = self.current.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, n: usize) {
        self.current.fetch_sub(n, Ordering::Relaxed);
    }

    fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }
}

/// The PR-1 injector scheduler: one shared queue behind a mutex, kept
/// as the ablation baseline ([`SchedulerKind::Injector`]).
struct InjectorScheduler {
    sched: Mutex<InjectorState>,
    cv: Condvar,
    budget: StepBudget,
    bytes: QueueBytes,
    /// Mirror of `InjectorState::idle` readable without the lock, used
    /// by busy workers deciding whether to export. Balanced on every
    /// worker exit path — asserted 0 after join.
    hungry: AtomicUsize,
    /// Mirror of `InjectorState::done` readable without the lock.
    done: AtomicBool,
    steals: AtomicU64,
    exports: AtomicU64,
}

struct InjectorState {
    queue: VecDeque<QueuedState>,
    idle: usize,
    done: bool,
}

impl InjectorScheduler {
    fn new() -> InjectorScheduler {
        InjectorScheduler {
            sched: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                idle: 0,
                done: false,
            }),
            cv: Condvar::new(),
            budget: StepBudget::new(),
            bytes: QueueBytes::new(),
            hungry: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            exports: AtomicU64::new(0),
        }
    }

    fn export(&self, states: Vec<QueuedState>) {
        if states.is_empty() {
            return;
        }
        self.exports.fetch_add(states.len() as u64, Ordering::Relaxed);
        self.bytes.add(states.iter().map(QueuedState::resident_bytes).sum());
        let mut g = self.sched.lock().unwrap();
        g.queue.extend(states);
        drop(g);
        self.cv.notify_all();
    }

    /// Ends the exploration for everyone (budget exhausted).
    fn finish_all(&self) {
        let mut g = self.sched.lock().unwrap();
        g.done = true;
        self.done.store(true, Ordering::Relaxed);
        drop(g);
        self.cv.notify_all();
    }
}

/// Batches between [`EventKind::CacheSnapshot`] events when recording.
const SNAPSHOT_EVERY_BATCHES: u64 = 16;

/// Idle-pressure bookkeeping (deque scheduler): each observed park adds
/// [`IDLE_PRESSURE_BUMP`], capped at [`IDLE_PRESSURE_CAP`]; every export
/// decision decays the signal by 1/8 (at least 1). While nonzero, the
/// local-state cap is halved so starving workers find exports sooner.
const IDLE_PRESSURE_BUMP: u32 = 256;
const IDLE_PRESSURE_CAP: u32 = 4096;

/// The deque scheduler: per-worker Chase–Lev deques, a lock only for
/// parking, and cross-worker termination detection (DESIGN.md §12).
struct DequeScheduler {
    /// Stealer handles for every worker's deque, indexed by worker.
    stealers: Vec<Stealer<QueuedState>>,
    budget: StepBudget,
    bytes: QueueBytes,
    /// Workers currently in the steal phase (no local work). The
    /// lock-free starvation hint: exporters notify the condvar and halve
    /// their keep threshold only when it is nonzero. Balanced on every
    /// exit path — asserted 0 after join.
    hungry: AtomicUsize,
    /// Exported states not yet taken (incremented *before* the push,
    /// decremented *after* a successful take, so 0 proves no state is
    /// resident in or in flight toward any deque).
    pending: AtomicU64,
    done: AtomicBool,
    /// Decayed park-frequency signal fed back into export decisions.
    idle_pressure: AtomicU32,
    /// Workers inside the park section. Guarded by `park` — the only
    /// lock, never touched while any deque has work.
    park: Mutex<usize>,
    cv: Condvar,
    steals: AtomicU64,
    reclaims: AtomicU64,
    exports: AtomicU64,
}

impl DequeScheduler {
    fn new(stealers: Vec<Stealer<QueuedState>>) -> DequeScheduler {
        DequeScheduler {
            stealers,
            budget: StepBudget::new(),
            bytes: QueueBytes::new(),
            hungry: AtomicUsize::new(0),
            pending: AtomicU64::new(0),
            done: AtomicBool::new(false),
            idle_pressure: AtomicU32::new(0),
            park: Mutex::new(0),
            cv: Condvar::new(),
            steals: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            exports: AtomicU64::new(0),
        }
    }

    /// Publishes surplus states on the exporting worker's own deque and
    /// wakes parked workers if anyone is starving.
    fn export(&self, own: &deque::Worker<QueuedState>, states: Vec<QueuedState>) {
        if states.is_empty() {
            return;
        }
        let n = states.len() as u64;
        self.exports.fetch_add(n, Ordering::Relaxed);
        self.bytes.add(states.iter().map(QueuedState::resident_bytes).sum());
        // Raise `pending` before the states become stealable: a parker
        // that misses the pushes in its scan still sees pending > 0 in
        // its under-lock recheck and rescans instead of sleeping.
        self.pending.fetch_add(n, Ordering::SeqCst);
        for s in states {
            own.push(s);
        }
        // SeqCst pairing with the parker (hungry increment → scan):
        // if we read hungry == 0 here, the parker's increment is later
        // in the total order, so its pending recheck is later than our
        // fetch_add above and it will not sleep — skipping the notify
        // (and the lock) is safe.
        if self.hungry.load(Ordering::SeqCst) > 0 {
            // Empty critical section: the notify must not land between
            // a parker's predicate check and its wait.
            drop(self.park.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Ends the exploration for everyone (budget exhausted, or all
    /// workers parked with nothing pending).
    fn finish_all(&self) {
        self.done.store(true, Ordering::SeqCst);
        drop(self.park.lock().unwrap());
        self.cv.notify_all();
    }

    fn bump_idle_pressure(&self) {
        let _ = self.idle_pressure.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
            Some((p + IDLE_PRESSURE_BUMP).min(IDLE_PRESSURE_CAP))
        });
    }

    /// Decays the pressure signal and returns its pre-decay value.
    fn decay_idle_pressure(&self) -> u32 {
        match self.idle_pressure.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
            if p == 0 {
                None
            } else {
                Some(p - (p / 8).max(1))
            }
        }) {
            Ok(prev) => prev,
            Err(_) => 0,
        }
    }
}

/// Emits a cumulative cache-effectiveness snapshot (throttled by the
/// caller — reading the shared translation-cache counters takes its
/// lock).
fn note_cache_snapshot(engine: &mut Engine) {
    let dbt = engine.dbt_stats();
    let sv = engine.solver_stats();
    let snapshot = EventKind::CacheSnapshot {
        tb_hits: dbt.hits,
        tb_translations: dbt.translations,
        query_cache_hits: sv.cache_hits + sv.shared_hits,
        queries: sv.queries,
    };
    engine.recorder_mut().note(snapshot);
}

/// Publishes the migration-loop counters this worker owns. Cumulative
/// stores into the worker's shard, `Sum`-merged on read: after every
/// worker's final flush the merged values equal the scheduler's own
/// atomic totals (the `parallel.*` RunReport twins).
fn publish_loop_counters(t: &TelemetryHandle, steals: u64, reclaims: u64, exports: u64) {
    t.set_counter(Counter::ParallelSteals, steals);
    t.set_counter(Counter::ParallelReclaims, reclaims);
    t.set_counter(Counter::ParallelExports, exports);
}

/// Publishes this worker's read of the cross-worker query cache (takes
/// its lock): the `SharedCacheStats` rows as max-merged mirrors, plus the
/// non-monotonic entry count as the stamped `Latest` gauge.
fn publish_query_cache(t: &TelemetryHandle, cache: &SharedQueryCache) {
    let stats = cache.stats();
    t.publish(&stats);
    t.set_gauge(Gauge::GaugeSharedCacheEntries, stats.entries as u64);
}

/// Converts detached surplus states to queue form, evicting to compact
/// per the configured policy. Under `Cap`, a state ships compact when
/// the bytes already queued plus its own would break the cap — an
/// advisory read of a racing counter, so the cap is a target, not a
/// hard bound.
fn pack_exports(
    engine: &mut Engine,
    cfg: &ParallelConfig,
    bytes: &QueueBytes,
    surplus: Vec<ExecState>,
) -> Vec<QueuedState> {
    surplus
        .into_iter()
        .map(|s| {
            let evict = match cfg.eviction {
                EvictionPolicy::Off => false,
                EvictionPolicy::Aggressive => true,
                EvictionPolicy::Cap(cap) => {
                    bytes.current() + s.machine.private_state_bytes() > cap
                }
            };
            if evict {
                QueuedState::Compact(engine.evict_state(s, cfg.verify_replay))
            } else {
                QueuedState::Live(s)
            }
        })
        .collect()
}

/// Takes a queued state into live form, rehydrating compact ones by
/// deterministic replay on the taking worker's engine.
fn take_queued(engine: &mut Engine, qs: QueuedState) -> ExecState {
    match qs {
        QueuedState::Live(s) => s,
        QueuedState::Compact(c) => engine.rehydrate(c),
    }
}

fn injector_worker_loop<F>(
    w: usize,
    cfg: &ParallelConfig,
    sched: &InjectorScheduler,
    shared: &SharedEngineContext,
    live: Option<&LiveTelemetry>,
    build: &F,
) -> WorkerReport
where
    F: Fn(&WorkerContext) -> Engine + Sync,
{
    let ctx = WorkerContext {
        worker: w,
        workers: cfg.workers,
        shared,
    };
    let mut engine = build(&ctx);
    if cfg.obs.enabled {
        engine.set_recorder(Recorder::new(w, &cfg.obs));
    }
    let tel = live.map(|lt| lt.handle(w));
    if tel.is_some() {
        engine.set_telemetry(tel.clone());
    }
    if w != 0 {
        // Every worker builds the same root; only worker 0's is explored.
        // The rest start empty and pull their first state from the queue.
        engine.drain_states();
    }
    let mut steals = 0u64;
    let mut exports = 0u64;
    let mut batches = 0u64;

    'outer: loop {
        // Phase 1: run local work, batch by batch.
        while engine.live_count() > 0 {
            if sched.done.load(Ordering::Relaxed) {
                break 'outer;
            }
            let claimed = sched.budget.claim(cfg.max_steps, cfg.batch);
            if claimed == 0 {
                sched.finish_all();
                break 'outer;
            }
            let mut used = 0;
            while used < claimed {
                if engine.step().is_none() {
                    break;
                }
                used += 1;
            }
            sched.budget.refund(claimed - used);
            batches += 1;

            // Periodic cache-effectiveness snapshot (cumulative counters;
            // deltas between snapshots show warm-up).
            if engine.recorder().is_enabled() && batches % SNAPSHOT_EVERY_BATCHES == 0 {
                note_cache_snapshot(&mut engine);
            }

            if let Some(t) = &tel {
                engine.publish_telemetry();
                publish_loop_counters(t, steals, 0, exports);
                t.set_gauge(Gauge::GaugeQueueBytes, sched.bytes.current() as u64);
                t.set_gauge(
                    Gauge::GaugeHungryWorkers,
                    sched.hungry.load(Ordering::Relaxed) as u64,
                );
                // The shared query cache snapshot takes its lock; ride
                // the existing recorder throttle cadence.
                if batches % SNAPSHOT_EVERY_BATCHES == 0 {
                    publish_query_cache(t, &shared.query_cache);
                }
            }

            // Phase 2: export fork overflow instead of hoarding it.
            let live = engine.live_count();
            let hungry = sched.hungry.load(Ordering::Relaxed) > 0;
            let keep = if hungry && live > 1 {
                // Someone is starving: hand off half our frontier.
                (live + 1) / 2
            } else if live > cfg.max_local_states {
                cfg.max_local_states
            } else {
                live
            };
            if keep < live {
                engine.recorder_mut().enter(Phase::Migrate);
                let surplus = engine.detach_overflow(keep);
                let count = surplus.len();
                exports += count as u64;
                let packed = pack_exports(&mut engine, cfg, &sched.bytes, surplus);
                sched.export(packed);
                engine.recorder_mut().note(EventKind::Export { count: count as u32 });
                engine.recorder_mut().exit(Phase::Migrate);
            }
        }

        // Phase 3: local frontier is dry — steal, or detect completion.
        // The whole scheduler interaction is one Migrate span, with the
        // time parked on the condvar carved out as Idle.
        engine.recorder_mut().enter(Phase::Migrate);
        // Steal latency is dry-to-fed: from the moment this worker ran
        // out of local work until it holds a queued state (parks
        // included; the rehydration replay is accounted separately).
        let dry_started = tel.as_ref().map(|_| Instant::now());
        let mut g = sched.sched.lock().unwrap();
        loop {
            if g.done {
                engine.recorder_mut().exit(Phase::Migrate);
                break 'outer;
            }
            if let Some(qs) = g.queue.pop_front() {
                let depth = g.queue.len() as u32;
                drop(g);
                steals += 1;
                sched.bytes.sub(qs.resident_bytes());
                if let (Some(t), Some(started)) = (&tel, dry_started) {
                    t.observe_duration(Hist::HistSteal, started.elapsed());
                    t.set_gauge(Gauge::GaugeQueueDepth, depth as u64);
                }
                let obs = engine.recorder_mut();
                obs.note(EventKind::QueueDepth { depth });
                obs.note(EventKind::Steal { state: qs.id().0 });
                obs.exit(Phase::Migrate);
                let state = take_queued(&mut engine, qs);
                engine.attach_state(state);
                continue 'outer;
            }
            g.idle += 1;
            sched.hungry.fetch_add(1, Ordering::Relaxed);
            if g.idle == cfg.workers {
                // Every worker is idle and the queue is empty: done.
                // Balance our own idle/hungry increment before leaving so
                // the mirrors read 0 after join.
                g.idle -= 1;
                sched.hungry.fetch_sub(1, Ordering::Relaxed);
                g.done = true;
                sched.done.store(true, Ordering::Relaxed);
                drop(g);
                sched.cv.notify_all();
                engine.recorder_mut().exit(Phase::Migrate);
                break 'outer;
            }
            engine.recorder_mut().enter(Phase::Idle);
            let park_started = tel.as_ref().map(|_| Instant::now());
            g = sched.cv.wait(g).unwrap();
            if let (Some(t), Some(started)) = (&tel, park_started) {
                t.observe_duration(Hist::HistPark, started.elapsed());
            }
            engine.recorder_mut().exit(Phase::Idle);
            g.idle -= 1;
            sched.hungry.fetch_sub(1, Ordering::Relaxed);
        }
    }

    sched.steals.fetch_add(steals, Ordering::Relaxed);
    if let Some(t) = &tel {
        // Final flush: pins every cumulative counter at its end-of-run
        // value so the merged registry matches the RunReport exactly.
        engine.publish_telemetry();
        publish_loop_counters(t, steals, 0, exports);
        publish_query_cache(t, &shared.query_cache);
        t.set_gauge(Gauge::GaugeQueueBytes, sched.bytes.current() as u64);
    }
    finish_worker_report(w, engine, steals, 0, exports)
}

fn deque_worker_loop<F>(
    w: usize,
    cfg: &ParallelConfig,
    sched: &DequeScheduler,
    shared: &SharedEngineContext,
    live: Option<&LiveTelemetry>,
    own: deque::Worker<QueuedState>,
    build: &F,
) -> WorkerReport
where
    F: Fn(&WorkerContext) -> Engine + Sync,
{
    let ctx = WorkerContext {
        worker: w,
        workers: cfg.workers,
        shared,
    };
    let mut engine = build(&ctx);
    if cfg.obs.enabled {
        engine.set_recorder(Recorder::new(w, &cfg.obs));
    }
    let tel = live.map(|lt| lt.handle(w));
    if tel.is_some() {
        engine.set_telemetry(tel.clone());
    }
    if w != 0 {
        engine.drain_states();
    }
    // Victim scan order is reshuffled per scan with a per-worker seeded
    // generator: workers don't all hammer the same victim, runs with the
    // same schedule reproduce, and the *outcome* never depends on the
    // order (every state is explored wherever it lands).
    let mut rng = SplitMix64::new(0x5_2e5_7ea1 ^ ((w as u64 + 1) << 32));
    let mut victims: Vec<usize> = (0..cfg.workers).filter(|&v| v != w).collect();
    let mut steals = 0u64;
    let mut reclaims = 0u64;
    let mut exports = 0u64;
    let mut batches = 0u64;

    'outer: loop {
        // Phase 1: run local work, batch by batch.
        while engine.live_count() > 0 {
            if sched.done.load(Ordering::Relaxed) {
                break 'outer;
            }
            let claimed = sched.budget.claim(cfg.max_steps, cfg.batch);
            if claimed == 0 {
                sched.finish_all();
                break 'outer;
            }
            let mut used = 0;
            while used < claimed {
                if engine.step().is_none() {
                    break;
                }
                used += 1;
            }
            sched.budget.refund(claimed - used);
            batches += 1;

            if engine.recorder().is_enabled() && batches % SNAPSHOT_EVERY_BATCHES == 0 {
                note_cache_snapshot(&mut engine);
            }

            if let Some(t) = &tel {
                engine.publish_telemetry();
                publish_loop_counters(t, steals, reclaims, exports);
                t.set_gauge(Gauge::GaugeQueueDepth, sched.pending.load(Ordering::Relaxed));
                t.set_gauge(Gauge::GaugeQueueBytes, sched.bytes.current() as u64);
                t.set_gauge(
                    Gauge::GaugeHungryWorkers,
                    sched.hungry.load(Ordering::Relaxed) as u64,
                );
                t.set_gauge(
                    Gauge::GaugeIdlePressure,
                    sched.idle_pressure.load(Ordering::Relaxed) as u64,
                );
                if batches % SNAPSHOT_EVERY_BATCHES == 0 {
                    publish_query_cache(t, &shared.query_cache);
                }
            }

            // Phase 2: export fork overflow onto our own deque bottom.
            // Eagerness is observability-fed: instantaneous starvation
            // (`hungry`) halves the frontier outright; decayed park
            // pressure halves the keep cap. Neither changes the outcome,
            // only how soon surplus becomes stealable.
            let live = engine.live_count();
            let hungry_now = sched.hungry.load(Ordering::Relaxed);
            let pressure = sched.decay_idle_pressure();
            let keep = if hungry_now > 0 && live > 1 {
                (live + 1) / 2
            } else if pressure > 0 {
                (cfg.max_local_states / 2).max(1).min(live)
            } else if live > cfg.max_local_states {
                cfg.max_local_states
            } else {
                live
            };
            if keep < live {
                let obs = engine.recorder_mut();
                obs.enter(Phase::Migrate);
                obs.note(EventKind::ExportDecision {
                    keep: keep as u32,
                    idle_pressure: pressure,
                    hungry: hungry_now as u32,
                });
                let surplus = engine.detach_overflow(keep);
                let count = surplus.len();
                exports += count as u64;
                let packed = pack_exports(&mut engine, cfg, &sched.bytes, surplus);
                sched.export(&own, packed);
                engine.recorder_mut().note(EventKind::Export { count: count as u32 });
                engine.recorder_mut().exit(Phase::Migrate);
            }
        }

        // Phase 3: local frontier dry. Reclaim our own overflow first
        // (newest first — depth-first locality, no contention), then
        // steal from victims, then park.
        engine.recorder_mut().enter(Phase::Migrate);
        // Dry-to-fed latency: reclaim hits make the fast-path samples,
        // cross-worker steals (parks included) the slow tail.
        let dry_started = tel.as_ref().map(|_| Instant::now());
        if let Some(qs) = own.pop() {
            sched.pending.fetch_sub(1, Ordering::SeqCst);
            sched.bytes.sub(qs.resident_bytes());
            reclaims += 1;
            if let (Some(t), Some(started)) = (&tel, dry_started) {
                t.observe_duration(Hist::HistSteal, started.elapsed());
            }
            engine.recorder_mut().exit(Phase::Migrate);
            let state = take_queued(&mut engine, qs);
            engine.attach_state(state);
            continue 'outer;
        }
        sched.hungry.fetch_add(1, Ordering::SeqCst);
        loop {
            if sched.done.load(Ordering::SeqCst) {
                sched.hungry.fetch_sub(1, Ordering::SeqCst);
                engine.recorder_mut().exit(Phase::Migrate);
                break 'outer;
            }
            // Our own deque cannot refill (only its owner pushes), so
            // scan the victims. A Retry means we raced another thief on
            // a non-empty deque — spin and rescan rather than park.
            let mut saw_retry = false;
            rng.shuffle(&mut victims);
            for &v in &victims {
                match sched.stealers[v].steal() {
                    Steal::Success(qs) => {
                        // Leave the steal phase *before* lowering
                        // `pending`: the park-section completion check
                        // reads pending under the lock, and this order
                        // guarantees a worker holding a just-taken state
                        // is never counted as parked.
                        sched.hungry.fetch_sub(1, Ordering::SeqCst);
                        sched.pending.fetch_sub(1, Ordering::SeqCst);
                        sched.bytes.sub(qs.resident_bytes());
                        steals += 1;
                        if let (Some(t), Some(started)) = (&tel, dry_started) {
                            t.observe_duration(Hist::HistSteal, started.elapsed());
                            t.set_gauge(
                                Gauge::GaugeQueueDepth,
                                sched.pending.load(Ordering::Relaxed),
                            );
                        }
                        let obs = engine.recorder_mut();
                        obs.note(EventKind::QueueDepth {
                            depth: sched.stealers[v].len() as u32,
                        });
                        obs.note(EventKind::Steal { state: qs.id().0 });
                        obs.exit(Phase::Migrate);
                        let state = take_queued(&mut engine, qs);
                        engine.attach_state(state);
                        continue 'outer;
                    }
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            if saw_retry {
                std::hint::spin_loop();
                continue;
            }
            // Every deque observed empty: enter the park section.
            let mut idle = sched.park.lock().unwrap();
            // Recheck under the lock — an exporter raises `pending`
            // before its pushes and notifies while holding this lock,
            // so a true wait predicate here cannot lose a wakeup.
            if sched.done.load(Ordering::SeqCst) || sched.pending.load(Ordering::SeqCst) > 0 {
                drop(idle);
                continue;
            }
            *idle += 1;
            if *idle == cfg.workers {
                // All workers are inside the park section and nothing is
                // pending: exploration is complete. `pending` cannot
                // rise while idle == workers — an exporter is by
                // definition a worker outside this section.
                *idle -= 1;
                drop(idle);
                sched.finish_all();
                continue; // loop top observes done and exits
            }
            // We are about to sleep: that observation *is* the idle
            // signal the export heuristic feeds on.
            sched.bump_idle_pressure();
            engine.recorder_mut().enter(Phase::Idle);
            let park_started = tel.as_ref().map(|_| Instant::now());
            while !sched.done.load(Ordering::SeqCst)
                && sched.pending.load(Ordering::SeqCst) == 0
            {
                idle = sched.cv.wait(idle).unwrap();
            }
            if let (Some(t), Some(started)) = (&tel, park_started) {
                t.observe_duration(Hist::HistPark, started.elapsed());
            }
            engine.recorder_mut().exit(Phase::Idle);
            *idle -= 1;
            drop(idle);
        }
    }

    sched.steals.fetch_add(steals, Ordering::Relaxed);
    sched.reclaims.fetch_add(reclaims, Ordering::Relaxed);
    if let Some(t) = &tel {
        // Final flush: pins every cumulative counter at its end-of-run
        // value so the merged registry matches the RunReport exactly.
        engine.publish_telemetry();
        publish_loop_counters(t, steals, reclaims, exports);
        publish_query_cache(t, &shared.query_cache);
        t.set_gauge(Gauge::GaugeQueueDepth, sched.pending.load(Ordering::Relaxed));
        t.set_gauge(Gauge::GaugeQueueBytes, sched.bytes.current() as u64);
    }
    finish_worker_report(w, engine, steals, reclaims, exports)
}

fn finish_worker_report(
    w: usize,
    mut engine: Engine,
    steals: u64,
    reclaims: u64,
    exports: u64,
) -> WorkerReport {
    let solver = engine.solver_stats().clone();
    let mut path_digests: Vec<u64> =
        engine.terminated_states().iter().map(ExecState::path_digest).collect();
    path_digests.sort_unstable();
    WorkerReport {
        worker: w,
        paths: engine.terminated().len(),
        path_digests,
        shared_query_hits: solver.shared_hits,
        solver_queries: solver.queries,
        solver_core_solves: solver.core_solves,
        bugs: engine.bugs().to_vec(),
        covered_blocks: engine.seen_blocks().clone(),
        stats: engine.stats().clone(),
        solver,
        steals,
        reclaims,
        exports,
        timeline: engine.take_timeline(),
        dbt: engine.local_dbt_stats(),
    }
}

struct MigrationTotals {
    steals: u64,
    reclaims: u64,
    exports: u64,
    queue_leftover: u64,
    evicted_leftover: u64,
    queue_bytes_peak: usize,
}

fn merge_reports(
    mut workers: Vec<WorkerReport>,
    shared: &SharedEngineContext,
    totals: MigrationTotals,
    wall_time: Duration,
) -> ParallelReport {
    workers.sort_by_key(|r| r.worker);
    // Every exported state must be accounted for: taken by another
    // worker, reclaimed by its exporter, or left in a queue when the
    // budget ended the run.
    assert_eq!(
        totals.exports,
        totals.steals + totals.reclaims + totals.queue_leftover,
        "state conservation violated"
    );
    let mut stats = EngineStats::default();
    let mut solver = SolverStats::default();
    let mut bugs = Vec::new();
    let mut covered_blocks = HashSet::new();
    let mut total_paths = 0;
    let mut path_digests = Vec::new();
    for r in &workers {
        stats.merge(&r.stats);
        solver.merge(&r.solver);
        bugs.extend(r.bugs.iter().cloned());
        covered_blocks.extend(r.covered_blocks.iter().copied());
        total_paths += r.paths;
        path_digests.extend(r.path_digests.iter().copied());
    }
    path_digests.sort_unstable();
    // Same discipline for evictions: every compact state was either
    // rehydrated by some worker or stranded in a queue at budget end.
    assert_eq!(
        stats.evictions,
        stats.rehydrations + totals.evicted_leftover,
        "eviction conservation violated"
    );
    ParallelReport {
        stats,
        solver,
        bugs,
        covered_blocks,
        total_paths,
        path_digests,
        steals: totals.steals,
        reclaims: totals.reclaims,
        exports: totals.exports,
        queue_leftover: totals.queue_leftover,
        evicted_leftover: totals.evicted_leftover,
        queue_bytes_peak: totals.queue_bytes_peak,
        shared_cache: shared.query_cache.stats(),
        dbt: {
            // Shared-cache counters (translations, invalidations, shared
            // hits) plus every worker's private L1/chain counters.
            let mut dbt = shared.tb_cache.stats();
            for r in &workers {
                dbt.merge(&r.dbt);
            }
            dbt
        },
        wall_time,
        workers,
    }
}

/// Runs a work-stealing exploration: `build(ctx)` constructs each
/// worker's engine (load the image, inject symbolic inputs, register
/// plugins) through [`WorkerContext::engine`] so all workers share one
/// expression builder, one translation-block cache, and one solver query
/// cache. Worker 0's initial state seeds the exploration; all other
/// initial states are discarded and those workers steal.
///
/// [`ParallelConfig::scheduler`] picks the migration scheduler; the
/// outcome (paths, bugs, coverage) is identical either way.
pub fn explore_parallel<F>(cfg: &ParallelConfig, build: F) -> ParallelReport
where
    F: Fn(&WorkerContext) -> Engine + Sync,
{
    explore_parallel_live(cfg, None, build)
}

/// [`explore_parallel`] with a live telemetry registry attached
/// (DESIGN.md §16). Each worker publishes its cumulative stats into its
/// own registry shard at batch boundaries, records steal/park/replay/
/// solve/translate latencies into the shared histograms, and flushes
/// once more on exit — so the registry's merged view converges on the
/// end-of-run [`ParallelReport`] exactly. `live` must have been started
/// with at least `cfg.workers` shards; `None` runs telemetry-free with
/// zero overhead.
pub fn explore_parallel_live<F>(
    cfg: &ParallelConfig,
    live: Option<&LiveTelemetry>,
    build: F,
) -> ParallelReport
where
    F: Fn(&WorkerContext) -> Engine + Sync,
{
    assert!(cfg.workers > 0 && cfg.batch > 0 && cfg.max_local_states > 0);
    match cfg.scheduler {
        SchedulerKind::Deque => explore_deque(cfg, live, build),
        SchedulerKind::Injector => explore_injector(cfg, live, build),
    }
}

fn explore_injector<F>(
    cfg: &ParallelConfig,
    live: Option<&LiveTelemetry>,
    build: F,
) -> ParallelReport
where
    F: Fn(&WorkerContext) -> Engine + Sync,
{
    let shared = SharedEngineContext::new();
    let sched = InjectorScheduler::new();
    let build = &build;
    let shared_ref = &shared;
    let sched_ref = &sched;
    let started = Instant::now();
    let workers: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                scope.spawn(move || {
                    injector_worker_loop(w, cfg, sched_ref, shared_ref, live, build)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall_time = started.elapsed();
    assert_eq!(
        sched.hungry.load(Ordering::Relaxed),
        0,
        "hungry accounting unbalanced after join"
    );
    // Whatever is still in the queue was exported but never stolen —
    // possible only on budget-truncated runs.
    let (queue_leftover, evicted_leftover) = {
        let g = sched.sched.lock().unwrap();
        let compact = g
            .queue
            .iter()
            .filter(|qs| matches!(qs, QueuedState::Compact(_)))
            .count() as u64;
        (g.queue.len() as u64, compact)
    };
    merge_reports(
        workers,
        &shared,
        MigrationTotals {
            steals: sched.steals.load(Ordering::Relaxed),
            reclaims: 0,
            exports: sched.exports.load(Ordering::Relaxed),
            queue_leftover,
            evicted_leftover,
            queue_bytes_peak: sched.bytes.peak.load(Ordering::Relaxed),
        },
        wall_time,
    )
}

fn explore_deque<F>(cfg: &ParallelConfig, live: Option<&LiveTelemetry>, build: F) -> ParallelReport
where
    F: Fn(&WorkerContext) -> Engine + Sync,
{
    let shared = SharedEngineContext::new();
    let mut owners = Vec::with_capacity(cfg.workers);
    let mut stealers = Vec::with_capacity(cfg.workers);
    for _ in 0..cfg.workers {
        let (worker, stealer) = deque::deque::<QueuedState>();
        owners.push(worker);
        stealers.push(stealer);
    }
    let sched = DequeScheduler::new(stealers);
    let build = &build;
    let shared_ref = &shared;
    let sched_ref = &sched;
    let started = Instant::now();
    let workers: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = owners
            .into_iter()
            .enumerate()
            .map(|(w, own)| {
                scope.spawn(move || {
                    deque_worker_loop(w, cfg, sched_ref, shared_ref, live, own, build)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall_time = started.elapsed();
    assert_eq!(
        sched.hungry.load(Ordering::Relaxed),
        0,
        "hungry accounting unbalanced after join"
    );
    // Drain what the budget stranded in the deques; workers are joined,
    // so steals cannot race and Retry cannot occur.
    let mut queue_leftover = 0u64;
    let mut evicted_leftover = 0u64;
    for s in &sched.stealers {
        loop {
            match s.steal() {
                Steal::Success(qs) => {
                    queue_leftover += 1;
                    if matches!(qs, QueuedState::Compact(_)) {
                        evicted_leftover += 1;
                    }
                }
                Steal::Retry => std::hint::spin_loop(),
                Steal::Empty => break,
            }
        }
    }
    assert_eq!(
        queue_leftover,
        sched.pending.load(Ordering::Relaxed),
        "pending counter out of sync with resident states"
    );
    merge_reports(
        workers,
        &shared,
        MigrationTotals {
            steals: sched.steals.load(Ordering::Relaxed),
            reclaims: sched.reclaims.load(Ordering::Relaxed),
            exports: sched.exports.load(Ordering::Relaxed),
            queue_leftover,
            evicted_leftover,
            queue_bytes_peak: sched.bytes.peak.load(Ordering::Relaxed),
        },
        wall_time,
    )
}

/// Constrains `input` to worker `i`'s slice of the 32-bit value space —
/// the static partitioning used by [`explore_static`] and kept as the
/// baseline the work-stealing explorer is benchmarked against.
pub fn partition_constraint(
    state: &mut ExecState,
    builder: &ExprBuilder,
    input: &ExprRef,
    worker: usize,
    workers: usize,
) {
    assert!(workers > 0 && worker < workers, "bad partition {worker}/{workers}");
    let span = (u32::MAX / workers as u32).saturating_add(1);
    let lo = span.saturating_mul(worker as u32);
    if worker > 0 {
        state.add_constraint(builder.ule(
            builder.constant(lo as u64, Width::W32),
            input.clone(),
        ));
    }
    if worker + 1 < workers {
        let hi = lo.saturating_add(span - 1);
        state.add_constraint(builder.ule(
            input.clone(),
            builder.constant(hi as u64, Width::W32),
        ));
    }
}

/// The original static-partition explorer: `workers` fully independent
/// engines (cold private caches, no migration), each given `max_steps`
/// of budget. `setup(i, n)` builds worker `i`'s engine — typically
/// loading the same image and applying [`partition_constraint`].
///
/// Kept as the load-imbalance baseline; new code should use
/// [`explore_parallel`].
pub fn explore_static<F>(workers: usize, max_steps: u64, setup: F) -> Vec<WorkerReport>
where
    F: Fn(usize, usize) -> Engine + Sync,
{
    assert!(workers > 0);
    let setup = &setup;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut engine = setup(w, workers);
                    engine.run(max_steps);
                    finish_worker_report(w, engine, 0, 0, 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Merges worker coverage into one set.
pub fn merge_coverage(reports: &[WorkerReport]) -> HashSet<u32> {
    let mut out = HashSet::new();
    for r in reports {
        out.extend(r.covered_blocks.iter().copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConsistencyModel, EngineConfig};
    use crate::selectors::make_reg_symbolic;
    use s2e_vm::asm::Assembler;
    use s2e_vm::isa::reg;
    use s2e_vm::machine::Machine;

    /// Two nested branches on x: 3 leaf outcomes, 4+ blocks.
    fn branchy_machine() -> Machine {
        let mut a = Assembler::new(0x2000);
        a.movi(reg::R1, 0x4000_0000);
        a.bltu(reg::R0, reg::R1, "q1");
        a.movi(reg::R1, 0xc000_0000);
        a.bltu(reg::R0, reg::R1, "mid");
        a.halt_code(3);
        a.label("mid");
        a.halt_code(2);
        a.label("q1");
        a.halt_code(1);
        let mut m = Machine::new();
        m.load(&a.finish());
        m
    }

    fn branchy_worker(ctx: &WorkerContext) -> Engine {
        let mut e = ctx.engine(
            branchy_machine(),
            EngineConfig::with_model(ConsistencyModel::ScSe),
        );
        let id = e.sole_state().unwrap();
        let b = e.builder_arc();
        make_reg_symbolic(e.state_mut(id).unwrap(), &b, reg::R0, "x");
        e
    }

    fn static_worker(worker: usize, workers: usize) -> Engine {
        let mut e = Engine::new(
            branchy_machine(),
            EngineConfig::with_model(ConsistencyModel::ScSe),
        );
        let id = e.sole_state().unwrap();
        let b = e.builder_arc();
        let x = make_reg_symbolic(e.state_mut(id).unwrap(), &b, reg::R0, "x");
        partition_constraint(e.state_mut(id).unwrap(), &b, &x, worker, workers);
        e
    }

    #[test]
    fn work_stealing_explores_all_paths() {
        let report = explore_parallel(&ParallelConfig::new(4, 10_000), branchy_worker);
        assert_eq!(report.workers.len(), 4);
        // Work stealing explores each feasible path exactly once — no
        // duplicated outcomes across workers, unlike static partitions.
        assert_eq!(report.total_paths, 3, "{report:?}");
        assert!(report.stats.blocks_executed > 0);
        assert!(report.covered_blocks.len() >= 4);
    }

    #[test]
    fn injector_baseline_explores_all_paths() {
        let cfg = ParallelConfig::new(4, 10_000).with_scheduler(SchedulerKind::Injector);
        let report = explore_parallel(&cfg, branchy_worker);
        assert_eq!(report.total_paths, 3, "{report:?}");
        assert_eq!(report.reclaims, 0, "injector never reclaims");
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let par = explore_parallel(&ParallelConfig::new(1, 10_000), branchy_worker);
        assert_eq!(par.workers.len(), 1);
        assert_eq!(par.steals, 0, "one worker has no one to steal from");
        let mut seq = static_worker(0, 1);
        seq.run(10_000);
        assert_eq!(par.total_paths, seq.terminated().len());
    }

    #[test]
    fn stealing_matches_sequential_path_count() {
        let seq = explore_parallel(&ParallelConfig::new(1, 10_000), branchy_worker);
        for scheduler in [SchedulerKind::Deque, SchedulerKind::Injector] {
            // A tiny export threshold forces migration even on a small
            // tree.
            let mut cfg = ParallelConfig::new(4, 10_000).with_scheduler(scheduler);
            cfg.batch = 1;
            cfg.max_local_states = 1;
            let par = explore_parallel(&cfg, branchy_worker);
            assert_eq!(par.total_paths, seq.total_paths, "{scheduler:?}");
            // Exhaustive run: nothing may be stranded.
            assert_eq!(par.queue_leftover, 0, "{scheduler:?}");
            assert_eq!(
                par.exports,
                par.steals + par.reclaims + par.queue_leftover,
                "{scheduler:?}: states conserved"
            );
        }
    }

    /// Aggressive eviction ships every export compact; rehydration by
    /// replay must reproduce the same outcome, and the eviction ledger
    /// must balance.
    #[test]
    fn aggressive_eviction_matches_live_shipping() {
        let base = explore_parallel(&ParallelConfig::new(1, 10_000), branchy_worker);
        for scheduler in [SchedulerKind::Deque, SchedulerKind::Injector] {
            let mut cfg = ParallelConfig::new(3, 10_000).with_scheduler(scheduler);
            cfg.batch = 1;
            cfg.max_local_states = 1;
            cfg.eviction = EvictionPolicy::Aggressive;
            cfg.verify_replay = true;
            let r = explore_parallel(&cfg, branchy_worker);
            assert_eq!(r.total_paths, base.total_paths, "{scheduler:?}");
            assert_eq!(r.bugs.len(), base.bugs.len(), "{scheduler:?}");
            assert!(r.stats.evictions > 0, "{scheduler:?}: nothing was evicted");
            assert_eq!(
                r.stats.evictions,
                r.stats.rehydrations + r.evicted_leftover,
                "{scheduler:?}: evictions conserved"
            );
            assert!(r.queue_bytes_peak > 0, "{scheduler:?}");
        }
    }

    /// Budget-truncated runs strand exported states; they must be
    /// counted, not silently dropped — and conservation must hold at
    /// every truncation point, not just on exhaustive runs.
    #[test]
    fn truncated_budget_reports_nonzero_leftover() {
        for scheduler in [SchedulerKind::Deque, SchedulerKind::Injector] {
            let mut saw_leftover = false;
            for budget in 1..=12u64 {
                // Single worker, single-state cap: every fork surplus is
                // exported, and nobody else can drain it when the budget
                // dies first. Deterministic, so the sweep is stable.
                let mut cfg = ParallelConfig::new(1, budget).with_scheduler(scheduler);
                cfg.batch = 1;
                cfg.max_local_states = 1;
                let r = explore_parallel(&cfg, branchy_worker);
                assert_eq!(
                    r.exports,
                    r.steals + r.reclaims + r.queue_leftover,
                    "{scheduler:?} budget {budget}: states conserved"
                );
                if r.queue_leftover > 0 {
                    saw_leftover = true;
                }
            }
            assert!(
                saw_leftover,
                "{scheduler:?}: no truncation point stranded a state — \
                 the leftover accounting is untested"
            );
        }
    }

    #[test]
    fn deque_and_injector_agree() {
        let mut deque_cfg = ParallelConfig::new(3, 10_000);
        deque_cfg.batch = 1;
        deque_cfg.max_local_states = 1;
        let injector_cfg = deque_cfg.with_scheduler(SchedulerKind::Injector);
        let a = explore_parallel(&deque_cfg, branchy_worker);
        let b = explore_parallel(&injector_cfg, branchy_worker);
        assert_eq!(a.total_paths, b.total_paths);
        assert_eq!(a.covered_blocks, b.covered_blocks);
    }

    #[test]
    fn static_baseline_still_works() {
        let reports = explore_static(4, 10_000, static_worker);
        assert_eq!(reports.len(), 4);
        let total: usize = reports.iter().map(|r| r.paths).sum();
        // Static slices duplicate boundary outcomes; together they cover
        // at least the 3 real paths.
        assert!(total >= 3, "{total}");
        let merged = merge_coverage(&reports);
        assert!(merged.len() >= 4, "merged coverage {merged:?}");
    }

    #[test]
    fn budget_stops_all_workers() {
        for scheduler in [SchedulerKind::Deque, SchedulerKind::Injector] {
            // A budget far too small to finish: the run must still
            // terminate and report at most that many steps.
            let mut cfg = ParallelConfig::new(4, 8).with_scheduler(scheduler);
            cfg.batch = 2;
            let report = explore_parallel(&cfg, branchy_worker);
            assert!(report.stats.blocks_executed <= 8, "{report:?}");
        }
    }

    #[test]
    fn partition_constraints_disjoint() {
        // A worker's partition excludes values owned by other workers.
        let b = ExprBuilder::new();
        let mut st = ExecState::initial(Machine::new());
        let x = b.var("x", Width::W32);
        partition_constraint(&mut st, &b, &x, 1, 4);
        let mut solver = s2e_solver::Solver::new();
        // 0 belongs to worker 0, not worker 1.
        let is_zero = b.eq(x.clone(), b.constant(0, Width::W32));
        assert_eq!(solver.may_be_true(&st.constraints, &is_zero), Some(false));
        // 0x5000_0000 belongs to worker 1.
        let in_slice = b.eq(x, b.constant(0x5000_0000, Width::W32));
        assert_eq!(solver.may_be_true(&st.constraints, &in_slice), Some(true));
    }

    #[test]
    #[should_panic(expected = "bad partition")]
    fn partition_validates_indices() {
        let b = ExprBuilder::new();
        let mut st = ExecState::initial(Machine::new());
        let x = b.var("x", Width::W32);
        partition_constraint(&mut st, &b, &x, 4, 4);
    }
}
