//! The path-exploration engine.
//!
//! The engine is the paper's "automated path explorer": it owns the set of
//! live execution states, runs them block by block under a pluggable
//! search strategy, forks them at symbolic branches, and dispatches events
//! to plugins. Analysis tools are built by configuring an engine with
//! selectors and analyzers and then driving [`Engine::run`] (or calling
//! [`Engine::step`] from a custom loop, as the driver-exerciser tools do).

use crate::config::{ConsistencyModel, EngineConfig};
use crate::exec::{execute_block, BlockOutcome, ExecEnv, ForkRequest, MAX_CHAIN};
use crate::journal::JournalEvent;
use crate::l1::ExecCache;
use crate::plugin::{BugReport, ExecCtx, Plugin};
use crate::search::{Dfs, SearchStrategy};
use crate::state::{CompactState, ExecState, StateId, TerminationReason};
use crate::stats::EngineStats;
use s2e_cache::EpochMap;
use s2e_dbt::{CacheHandle, IndirectPredictions, SharedBlockCache};
use s2e_expr::ExprBuilder;
use s2e_obs::{
    Counter, EventKind, Gauge, Hist, Phase, Recorder, TelemetryHandle, WorkerTimeline,
};
use s2e_solver::{SharedQueryCache, Solver};
use s2e_vm::machine::Machine;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// What happened during one [`Engine::step`].
#[derive(Clone, Debug)]
pub enum StepOutcome {
    /// The state executed a block and continues.
    Continued,
    /// The state forked; the new child's id.
    Forked(StateId),
    /// The state terminated.
    Terminated(TerminationReason),
}

/// Report for one engine step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The state that ran.
    pub state: StateId,
    /// PC of the executed block.
    pub pc: u32,
    /// Outcome.
    pub outcome: StepOutcome,
}

/// Why [`Engine::run`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// No live states remain.
    Exhausted,
    /// The step budget ran out.
    MaxSteps,
}

/// Summary of an [`Engine::run`] call.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Steps (blocks) executed.
    pub steps: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// The pieces of an engine that the parallel explorer's workers share:
/// one expression factory (so variable ids stay globally unique when
/// states migrate), one translation-block cache, and one solver query
/// cache. Clones alias the same underlying storage.
#[derive(Clone, Debug, Default)]
pub struct SharedEngineContext {
    /// Expression factory shared by every worker's states.
    pub builder: Arc<ExprBuilder>,
    /// Cross-engine translation-block cache.
    pub tb_cache: SharedBlockCache,
    /// Cross-engine solver query cache.
    pub query_cache: SharedQueryCache,
}

impl SharedEngineContext {
    /// Creates a fresh shared context.
    pub fn new() -> SharedEngineContext {
        SharedEngineContext::default()
    }
}

/// The S2E engine: explorer plus plugin host.
pub struct Engine {
    builder: Arc<ExprBuilder>,
    solver: Solver,
    config: EngineConfig,
    cache: ExecCache,
    marks: HashSet<u32>,
    plugins: Vec<Box<dyn Plugin>>,
    states: HashMap<StateId, ExecState>,
    strategy: Box<dyn SearchStrategy>,
    next_state_id: u64,
    stats: EngineStats,
    bugs: Vec<BugReport>,
    log: Vec<String>,
    terminated: Vec<(StateId, TerminationReason)>,
    retain_terminated: bool,
    retained: Vec<ExecState>,
    seen_blocks: HashSet<u32>,
    steps_since_watermark: u32,
    obs: Recorder,
    checkpoints: EpochMap<Arc<ExecState>>,
    /// Scratch for chain-hop block starts (reused across steps).
    hop_scratch: Vec<u32>,
    /// Static indirect-target predictions consulted at every
    /// `jmpr`/`callr`/`ret` retirement (`None` disables classification).
    predictions: Option<Arc<IndirectPredictions>>,
    /// `(site, target)` pairs already fed through the refiner — each
    /// discovery triggers incremental re-analysis at most once.
    discovered_seen: HashSet<(u32, u32)>,
    /// Scratch for discoveries surfaced by one step (reused).
    discovery_scratch: Vec<(u32, u32)>,
    /// Incremental re-analysis callback for discovered targets.
    refiner: Option<IndirectRefiner>,
    /// Live-telemetry shard (DESIGN.md §16). `None` — the default —
    /// costs one branch at publish points and nothing per block.
    telemetry: Option<TelemetryHandle>,
}

/// Result of an indirect-target refinement callback: freshly re-stamped
/// block annotations (installing them bumps the cache epoch, which
/// severs superblock chains and wipes per-worker L1s) plus the updated
/// prediction table covering the discovered target.
pub struct RefinementUpdate {
    /// Annotator carrying the re-analyzed facts.
    pub annotator: Arc<dyn s2e_dbt::BlockAnnotator>,
    /// Prediction table after absorbing the discovery.
    pub predictions: Arc<IndirectPredictions>,
}

/// Callback invoked once per newly discovered `(site pc, target)` pair;
/// returning `None` leaves the current annotations and predictions in
/// place (the discovery stays accounted via `indirect_targets_discovered`).
pub type IndirectRefiner = Box<dyn FnMut(u32, u32) -> Option<RefinementUpdate> + Send>;

/// Journal size (bytes) past which [`Engine::step`] refreshes a state's
/// checkpoint even without a fork: bounds both the shipping cost of a
/// compact state and its replay distance on long fork-free stretches.
const JOURNAL_SOFT_CAP: usize = 4096;

/// Epochs a checkpoint survives in the engine's retention registry after
/// its last refresh (epochs advance on the 32-step watermark tick).
const CHECKPOINT_RETAIN_EPOCHS: u64 = 4;

impl Engine {
    /// Creates an engine around an initial machine snapshot.
    pub fn new(machine: Machine, config: EngineConfig) -> Engine {
        Engine::build(
            machine,
            config,
            Arc::new(ExprBuilder::new()),
            Solver::new(),
            CacheHandle::private(),
        )
    }

    /// Creates an engine wired to a [`SharedEngineContext`]: it uses the
    /// shared expression builder, translates through the shared block
    /// cache, and its solver consults the shared query cache after a
    /// local miss. This is how the parallel explorer builds workers.
    pub fn with_shared(
        machine: Machine,
        config: EngineConfig,
        shared: &SharedEngineContext,
    ) -> Engine {
        let mut solver = Solver::new();
        solver.attach_shared_cache(shared.query_cache.clone());
        Engine::build(
            machine,
            config,
            Arc::clone(&shared.builder),
            solver,
            CacheHandle::shared(shared.tb_cache.clone()),
        )
    }

    fn build(
        machine: Machine,
        config: EngineConfig,
        builder: Arc<ExprBuilder>,
        solver: Solver,
        cache: CacheHandle,
    ) -> Engine {
        let mut engine = Engine {
            builder,
            solver,
            config,
            cache: ExecCache::new(cache),
            marks: HashSet::new(),
            plugins: Vec::new(),
            states: HashMap::new(),
            strategy: Box::new(Dfs::new()),
            next_state_id: 1,
            stats: EngineStats::default(),
            bugs: Vec::new(),
            log: Vec::new(),
            terminated: Vec::new(),
            retain_terminated: false,
            retained: Vec::new(),
            seen_blocks: HashSet::new(),
            steps_since_watermark: 0,
            obs: Recorder::disabled(),
            checkpoints: EpochMap::new(CHECKPOINT_RETAIN_EPOCHS),
            hop_scratch: Vec::new(),
            predictions: None,
            discovered_seen: HashSet::new(),
            discovery_scratch: Vec::new(),
            refiner: None,
            telemetry: None,
        };
        let initial = ExecState::initial(machine);
        engine.stats.states_created = 1;
        engine.strategy.push(initial.id);
        engine.states.insert(initial.id, initial);
        engine
    }

    /// Installs (or removes) a static-analysis block annotator on the
    /// translation cache. Newly translated blocks are stamped with the
    /// annotator's facts (lean dispatch, dead writes, fork-freedom);
    /// already-cached blocks are discarded so they re-translate under the
    /// new annotator. On a shared cache this affects every worker.
    pub fn set_annotator(&mut self, annotator: Option<Arc<dyn s2e_dbt::BlockAnnotator>>) {
        self.cache.set_annotator(annotator);
    }

    /// Installs (or removes) the static indirect-target prediction table.
    /// While installed, every retired indirect transfer is classified as
    /// resolved / escaped / discovered in [`EngineStats`], and discovered
    /// targets are handed to the refiner (if one is set).
    pub fn set_predictions(&mut self, predictions: Option<Arc<IndirectPredictions>>) {
        self.predictions = predictions;
    }

    /// Installs (or removes) the incremental re-analysis callback. Each
    /// newly discovered `(site, target)` pair is passed to it exactly
    /// once across the engine's lifetime; a returned update is applied
    /// through [`Engine::set_annotator`] (epoch bump: chains severed,
    /// L1s wiped) and replaces the prediction table.
    pub fn set_refiner(&mut self, refiner: Option<IndirectRefiner>) {
        self.refiner = refiner;
    }

    /// Replaces the search strategy (default: depth-first).
    pub fn set_strategy(&mut self, strategy: Box<dyn SearchStrategy>) {
        // Re-offer all live states to the new strategy.
        self.strategy = strategy;
        let ids: Vec<StateId> = self.states.keys().copied().collect();
        for id in ids {
            self.strategy.push(id);
        }
    }

    /// Registers a selector or analyzer plugin.
    pub fn add_plugin(&mut self, plugin: Box<dyn Plugin>) {
        self.plugins.push(plugin);
    }

    /// The shared expression builder.
    pub fn builder(&self) -> &ExprBuilder {
        &self.builder
    }

    /// A shared handle to the expression builder, convenient when symbolic
    /// values must be injected while the engine is also borrowed mutably.
    pub fn builder_arc(&self) -> Arc<ExprBuilder> {
        Arc::clone(&self.builder)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable configuration access (between steps).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Solver statistics (Fig. 9's raw data).
    pub fn solver_stats(&self) -> &s2e_solver::SolverStats {
        self.solver.stats()
    }

    /// Mutable solver access (to reconfigure between runs).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Translator statistics: the backing cache's counters (shared across
    /// workers on a shared cache) merged with this engine's L1-local ones.
    pub fn dbt_stats(&self) -> s2e_dbt::DbtStats {
        self.cache.stats()
    }

    /// Only this engine's L1-local translator counters (l1 hits, chain
    /// entries/exits). The parallel explorer sums these across workers
    /// and adds the shared cache's counters exactly once.
    pub fn local_dbt_stats(&self) -> s2e_dbt::DbtStats {
        self.cache.local_stats()
    }

    /// Installs an observability recorder. The engine ships with a
    /// disabled one, which costs one branch per entry point and never
    /// reads the clock (DESIGN.md §11).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// Attaches (or detaches) a live-telemetry shard (DESIGN.md §16).
    /// The handle is forwarded to the solver for per-kind query-latency
    /// histograms; translation and replay latencies record here. Plain
    /// stat counters are *not* touched per event — callers publish them
    /// in bulk via [`Engine::publish_telemetry`] at batch boundaries.
    pub fn set_telemetry(&mut self, telemetry: Option<TelemetryHandle>) {
        self.solver.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The attached live-telemetry shard, if any.
    pub fn telemetry(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// Publishes this engine's cumulative stats (engine, solver,
    /// L1-local + shared-mirror DBT) and liveness gauges into the
    /// attached telemetry shard; a no-op without one. The parallel
    /// explorer calls this once per batch and once at worker exit —
    /// that final flush is what makes the sampler's last JSONL line
    /// exactly equal the end-of-run `RunReport`.
    pub fn publish_telemetry(&self) {
        let Some(t) = &self.telemetry else { return };
        t.publish(&self.stats);
        crate::telemetry::publish_solver(t, self.solver.stats());
        crate::telemetry::publish_dbt_stats(
            t,
            &self.cache.local_stats(),
            &self.cache.shared_stats(),
        );
        // No stats-struct field behind these two.
        t.set_counter(Counter::EngineSeenBlocks, self.seen_blocks.len() as u64);
        t.set_gauge(Gauge::GaugeLiveStates, self.states.len() as u64);
    }

    /// The current recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable recorder access (for callers that wrap engine-external
    /// work — migration, scheduling — in spans).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// Finishes recording and returns this engine's timeline, leaving a
    /// disabled recorder behind. The timeline of a never-enabled engine
    /// is empty.
    pub fn take_timeline(&mut self) -> WorkerTimeline {
        std::mem::replace(&mut self.obs, Recorder::disabled()).finish()
    }

    /// Bugs reported so far.
    pub fn bugs(&self) -> &[BugReport] {
        &self.bugs
    }

    /// Guest and plugin log messages.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Block start addresses executed at least once (basic-block
    /// coverage).
    pub fn seen_blocks(&self) -> &HashSet<u32> {
        &self.seen_blocks
    }

    /// Live states.
    pub fn live_states(&self) -> impl Iterator<Item = &ExecState> {
        self.states.values()
    }

    /// Number of live states.
    pub fn live_count(&self) -> usize {
        self.states.len()
    }

    /// A live state by id.
    pub fn state(&self, id: StateId) -> Option<&ExecState> {
        self.states.get(&id)
    }

    /// Mutable access to a live state (for selectors between steps).
    pub fn state_mut(&mut self, id: StateId) -> Option<&mut ExecState> {
        self.states.get_mut(&id)
    }

    /// The id of the single live state, if exactly one exists.
    pub fn sole_state(&self) -> Option<StateId> {
        if self.states.len() == 1 {
            self.states.keys().next().copied()
        } else {
            None
        }
    }

    /// Terminated states and their reasons, in termination order.
    pub fn terminated(&self) -> &[(StateId, TerminationReason)] {
        &self.terminated
    }

    /// When enabled, terminated execution states are kept and can be
    /// inspected via [`Engine::terminated_states`] (used by tools that
    /// replay paths or read final register/memory values).
    pub fn set_retain_terminated(&mut self, on: bool) {
        self.retain_terminated = on;
    }

    /// Retained terminated states (empty unless
    /// [`Engine::set_retain_terminated`] was enabled).
    pub fn terminated_states(&self) -> &[ExecState] {
        &self.retained
    }

    /// Estimated private memory across live states, in bytes (Fig. 8's
    /// metric, sampled).
    pub fn live_memory_bytes(&self) -> usize {
        self.states.values().map(|s| s.machine.private_state_bytes()).sum()
    }

    /// Kills a live state (PathKiller-style).
    pub fn kill_state(&mut self, id: StateId, reason: TerminationReason) {
        if let Some(mut state) = self.states.remove(&id) {
            self.finish_state(&mut state, reason);
        }
    }

    /// Kills every live state except `keep` (the §6.3 exploration
    /// methodology: on stagnation, keep one path and move on).
    pub fn kill_all_except(&mut self, keep: StateId) {
        let victims: Vec<StateId> = self.states.keys().copied().filter(|&id| id != keep).collect();
        for id in victims {
            self.kill_state(id, TerminationReason::Killed(0));
        }
    }

    fn alloc_state_id(&mut self) -> StateId {
        let id = StateId(self.next_state_id);
        self.next_state_id += 1;
        id
    }

    /// Moves this engine's id allocator into a disjoint per-worker
    /// namespace so states forked by different workers can never collide
    /// when they migrate. Call right after construction, before any fork.
    pub fn set_state_id_namespace(&mut self, worker: usize) {
        debug_assert!(self.stats.forks == 0, "namespace set after forking");
        self.next_state_id = ((worker as u64 + 1) << 40) + 1;
    }

    /// Detaches a live state for migration to another engine. The state
    /// is removed without firing termination events; stale strategy
    /// entries for it are skipped naturally by [`Engine::step`].
    pub fn detach_state(&mut self, id: StateId) -> Option<ExecState> {
        self.states.remove(&id)
    }

    /// Detaches every live state (used by parallel workers that start
    /// empty and pull all their work from the shared queue).
    pub fn drain_states(&mut self) -> Vec<ExecState> {
        let ids: Vec<StateId> = self.states.keys().copied().collect();
        ids.into_iter().filter_map(|id| self.states.remove(&id)).collect()
    }

    /// Detaches surplus live states, keeping at most `keep`, preferring
    /// to export the states with the largest
    /// [`ExecState::subtree_estimate`] — the paths forking most per
    /// block executed, whose unexplored subtrees are likely the largest
    /// and therefore the best work units to hand an idle worker
    /// (DESIGN.md §12; replaces the PR-1 shallowest-first rule).
    pub fn detach_overflow(&mut self, keep: usize) -> Vec<ExecState> {
        if self.states.len() <= keep {
            return Vec::new();
        }
        let mut ids: Vec<(std::cmp::Reverse<u64>, u32, StateId)> = self
            .states
            .values()
            .map(|s| (std::cmp::Reverse(s.subtree_estimate()), s.depth, s.id))
            .collect();
        // Largest estimate first; (depth, id) tie-break keeps the victim
        // choice deterministic when estimates collide.
        ids.sort_unstable();
        ids.truncate(self.states.len() - keep);
        ids.into_iter()
            .filter_map(|(_, _, id)| self.states.remove(&id))
            .collect()
    }

    /// Attaches a migrated state and schedules it. The state keeps its
    /// id — per-worker id namespaces ([`Engine::set_state_id_namespace`])
    /// guarantee it cannot collide with a locally-created one.
    ///
    /// # Panics
    ///
    /// Panics if a live state with the same id already exists here.
    pub fn attach_state(&mut self, state: ExecState) {
        let id = state.id;
        let prev = self.states.insert(id, state);
        assert!(prev.is_none(), "state id collision on attach: {id}");
        self.strategy.push(id);
    }

    fn finish_state(&mut self, state: &mut ExecState, reason: TerminationReason) {
        let mut plugins = std::mem::take(&mut self.plugins);
        {
            let mut ctx = ExecCtx {
                builder: &self.builder,
                solver: &mut self.solver,
                config: &self.config,
                stats: &mut self.stats,
                bugs: &mut self.bugs,
                log: &mut self.log,
            };
            for p in plugins.iter_mut() {
                p.on_state_terminated(state, &mut ctx, &reason);
            }
        }
        self.plugins = plugins;
        self.stats.states_terminated += 1;
        self.obs.note(EventKind::PathEnd { state: state.id.0 });
        self.terminated.push((state.id, reason.clone()));
        if self.retain_terminated {
            let mut retained = state.clone();
            retained.status = Some(reason);
            self.retained.push(retained);
        }
    }

    /// Runs one live state for one translation block — or, when block
    /// chaining is enabled (the default), for a chained run of up to
    /// [`MAX_CHAIN`] blocks along observed direct edges (DESIGN.md §14).
    ///
    /// Returns `None` when no live states remain.
    pub fn step(&mut self) -> Option<StepReport> {
        let started = Instant::now();
        let id = loop {
            let id = self.strategy.pop()?;
            if self.states.contains_key(&id) {
                break id;
            }
        };
        let mut state = self.states.remove(&id).expect("live state");
        // Every state carries a checkpoint from its first step on, so
        // eviction is always `{nearest checkpoint, journal suffix}` with a
        // bounded suffix — never a from-the-beginning replay.
        if state.checkpoint().is_none() {
            self.checkpoint_state(&mut state);
        }
        let pc = state.machine.cpu.pc;
        let newly_seen = self.seen_blocks.insert(pc);

        let mut plugins = std::mem::take(&mut self.plugins);
        // Capture any variable ids this block mints (symbolic hardware,
        // `SymbolicReg`/`SymbolicMem`, relaxed-model return conversion):
        // the builder's counter is shared engine-wide, so the ids are a
        // nondeterministic input replay must reissue verbatim.
        s2e_expr::begin_var_capture();
        self.hop_scratch.clear();
        self.discovery_scratch.clear();
        let outcome = {
            let mut env = ExecEnv {
                ctx: ExecCtx {
                    builder: &self.builder,
                    solver: &mut self.solver,
                    config: &self.config,
                    stats: &mut self.stats,
                    bugs: &mut self.bugs,
                    log: &mut self.log,
                },
                cache: &mut self.cache,
                marks: &mut self.marks,
                seen_blocks: &self.seen_blocks,
                obs: &mut self.obs,
                telemetry: self.telemetry.as_ref(),
                block_budget: MAX_CHAIN,
                hops: &mut self.hop_scratch,
                predictions: self.predictions.as_deref(),
                discoveries: &mut self.discovery_scratch,
            };
            execute_block(&mut state, &mut env, &mut plugins)
        };
        // Flush before `handle_fork` clones the journal: a forking block's
        // mints precede the fork decision on both sides' replays.
        let minted = s2e_expr::end_var_capture();
        if !minted.is_empty() {
            state.record_var_ids(&minted);
        }
        self.plugins = plugins;
        // Close the dynamic feedback loop: hand each *new* discovered
        // indirect target to the refiner once. A returned update re-stamps
        // annotations (epoch bump severs chains and wipes L1s) and swaps
        // in the extended prediction table, so the same target retires as
        // `resolved` from then on.
        if !self.discovery_scratch.is_empty() {
            let fresh: Vec<(u32, u32)> = self
                .discovery_scratch
                .drain(..)
                .filter(|d| self.discovered_seen.insert(*d))
                .collect();
            if !fresh.is_empty() {
                if let Some(mut refiner) = self.refiner.take() {
                    for (site, target) in fresh {
                        if let Some(update) = refiner(site, target) {
                            self.set_annotator(Some(update.annotator));
                            self.predictions = Some(update.predictions);
                        }
                    }
                    self.refiner = Some(refiner);
                }
            }
        }
        // Coverage: the step's entry block plus every block entered via a
        // chain hop inside the call.
        let mut new_blocks = u64::from(newly_seen);
        for &hop in &self.hop_scratch {
            if self.seen_blocks.insert(hop) {
                new_blocks += 1;
            }
        }
        if new_blocks > 0 {
            self.strategy.notify_coverage(id, new_blocks as u32);
        }

        let report_outcome = match outcome {
            BlockOutcome::Continue => {
                if state.journal().byte_len() >= JOURNAL_SOFT_CAP {
                    self.checkpoint_state(&mut state);
                }
                self.states.insert(id, state);
                self.strategy.push(id);
                StepOutcome::Continued
            }
            BlockOutcome::Fork(fork) => self.handle_fork(state, fork),
            BlockOutcome::Terminated(reason) => {
                self.finish_state(&mut state, reason.clone());
                StepOutcome::Terminated(reason)
            }
        };

        self.steps_since_watermark += 1;
        let tick = self.steps_since_watermark >= 32;
        if tick || matches!(report_outcome, StepOutcome::Forked(_)) {
            self.steps_since_watermark = 0;
            let mem = self.live_memory_bytes();
            self.stats.memory_watermark_bytes = self.stats.memory_watermark_bytes.max(mem);
        }
        if tick {
            // Age the checkpoint retention registry on the same cadence as
            // the watermark sampler; snapshots not refreshed for
            // CHECKPOINT_RETAIN_EPOCHS ticks drop out (live states still
            // hold their own Arc, so this only trims the registry).
            self.checkpoints.advance();
        }
        self.stats.max_live_states = self.stats.max_live_states.max(self.states.len());
        self.stats.cpu_time += started.elapsed();

        Some(StepReport {
            state: id,
            pc,
            outcome: report_outcome,
        })
    }

    fn handle_fork(&mut self, mut parent: ExecState, fork: ForkRequest) -> StepOutcome {
        let can_fork =
            self.states.len() + 1 < self.config.max_states && parent.depth < self.config.max_depth;
        if !can_fork {
            // Curtail: follow ONE side only. For constrained forks take
            // the else side under ¬cond — for a fork_on_null request the
            // then side is the guaranteed crash, and for branch forks
            // both sides were proven feasible, so ¬cond is always safe.
            //
            // The fork-vs-curtail choice depends on the live-state census,
            // which depends on scheduling — journal it.
            parent.record_event(JournalEvent::Curtail);
            if fork.constrained {
                parent.add_constraint(self.builder.bool_not(fork.cond));
                parent.machine.cpu.pc = fork.else_pc;
            } else {
                parent.machine.cpu.pc = fork.then_pc;
            }
            let id = parent.id;
            self.states.insert(id, parent);
            self.strategy.push(id);
            return StepOutcome::Continued;
        }

        self.obs.enter(Phase::Fork);
        // Count the fork on the parent *before* cloning so both sides
        // carry it in their subtree estimate — and toward the checkpoint
        // interval, so both children measure distance from the snapshot
        // they share.
        parent.forks_on_path += 1;
        parent.count_fork_toward_checkpoint();
        let child_id = self.alloc_state_id();
        let mut child = parent.fork_child(child_id);
        // Journal the branch decision *after* the clone: each side's
        // journal ends with its own direction, not the sibling's.
        parent.record_event(JournalEvent::Fork { taken: true });
        child.record_event(JournalEvent::Fork { taken: false });
        parent.machine.cpu.pc = fork.then_pc;
        child.machine.cpu.pc = fork.else_pc;
        if fork.constrained {
            parent.add_constraint(fork.cond.clone());
            child.add_constraint(self.builder.bool_not(fork.cond.clone()));
        }
        self.stats.forks += 1;
        self.stats.states_created += 1;

        let mut plugins = std::mem::take(&mut self.plugins);
        {
            let mut ctx = ExecCtx {
                builder: &self.builder,
                solver: &mut self.solver,
                config: &self.config,
                stats: &mut self.stats,
                bugs: &mut self.bugs,
                log: &mut self.log,
            };
            for p in plugins.iter_mut() {
                p.on_fork(&mut parent, &mut child, &mut ctx, &fork.cond);
            }
        }
        self.plugins = plugins;
        self.obs.note(EventKind::Fork {
            parent: parent.id.0,
            child: child_id.0,
        });
        self.obs.exit(Phase::Fork);

        // Periodic checkpoint refresh at fork points (§13): forks are
        // where the COW sharing is already being paid for, so a snapshot
        // here is a shallow page-map clone.
        if parent.forks_since_checkpoint() >= self.config.checkpoint_interval {
            self.checkpoint_state(&mut parent);
        }
        if child.forks_since_checkpoint() >= self.config.checkpoint_interval {
            self.checkpoint_state(&mut child);
        }

        let pid = parent.id;
        self.states.insert(pid, parent);
        self.states.insert(child_id, child);
        // Child first so DFS explores the else-branch eagerly after the
        // parent's then-branch (both orders are valid; this one keeps the
        // taken side on top of the stack).
        self.strategy.push(child_id);
        self.strategy.push(pid);
        StepOutcome::Forked(child_id)
    }

    /// Steps until exhaustion or `max_steps` blocks.
    pub fn run(&mut self, max_steps: u64) -> RunSummary {
        let mut steps = 0;
        let mut stop = StopReason::MaxSteps;
        while steps < max_steps {
            if self.step().is_none() {
                stop = StopReason::Exhausted;
                break;
            }
            steps += 1;
        }
        // Final watermark sample so short runs report real numbers.
        let mem = self.live_memory_bytes();
        self.stats.memory_watermark_bytes = self.stats.memory_watermark_bytes.max(mem);
        RunSummary { steps, stop }
    }

    /// Takes a fresh checkpoint of `state` and registers it in the
    /// engine's epoch-based retention registry, keyed by state id. The
    /// registry is bookkeeping for checkpoint reuse (and staging for a
    /// distributed tier that ships snapshots separately from journals);
    /// the state itself holds the authoritative `Arc`.
    fn checkpoint_state(&mut self, state: &mut ExecState) {
        let snap = state.take_checkpoint();
        self.checkpoints.insert(state.id.0, snap);
    }

    /// The checkpoint retention registry: state id → most recent
    /// snapshot, pruned [`CHECKPOINT_RETAIN_EPOCHS`] watermark ticks
    /// after its last refresh.
    pub fn checkpoint_registry(&self) -> &EpochMap<Arc<ExecState>> {
        &self.checkpoints
    }

    /// Evicts a detached live state to compact `{checkpoint, journal
    /// suffix}` form (§13). With `verify`, the original's fingerprint is
    /// embedded so [`Engine::rehydrate`] can assert bit-identity.
    pub fn evict_state(&mut self, state: ExecState, verify: bool) -> CompactState {
        let compact = state.into_compact(verify);
        let journal_bytes = compact.journal.byte_len() as u64;
        self.stats.evictions += 1;
        self.stats.journal_bytes += journal_bytes;
        self.obs.note(EventKind::Evict {
            state: compact.id.0,
            journal_bytes,
        });
        compact
    }

    /// Reconstructs a live state from its compact form by deterministic
    /// replay: clone the checkpoint, then re-execute block by block with
    /// every journaled nondeterministic input (solver probes,
    /// concretizations, fork directions) substituted from the journal, so
    /// the solver is never consulted and schedule-dependent decisions
    /// come out exactly as recorded.
    ///
    /// Replayed work is *not* new exploration: stats, bugs, and log lines
    /// from re-executed blocks go to scratch sinks (only
    /// `EngineStats::rehydrations` / `replayed_instrs` record the replay
    /// itself), and coverage is untouched.
    ///
    /// # Panics
    ///
    /// Panics if replay diverges from the journal — which, given the
    /// deterministic interpreter, indicates a missed nondeterminism
    /// source — or, when the compact state carries a fingerprint, if the
    /// reconstruction is not bit-identical to the evicted original.
    pub fn rehydrate(&mut self, compact: CompactState) -> ExecState {
        // Replay latency is one histogram sample per rehydration; only
        // read the clock when someone is listening.
        let replay_started = self.telemetry.as_ref().map(|_| Instant::now());
        self.obs.enter(Phase::Replay);
        let mut state = (*compact.checkpoint).clone();
        let instrs_at_checkpoint = state.instrs_retired;
        state.begin_replay(&compact.journal);
        // Reissue the recorded variable ids at every mint site, in order,
        // so replayed expressions are structurally identical to the live
        // run's (same `VarId`s, not merely isomorphic ones).
        s2e_expr::begin_var_replay(compact.journal.var_ids());

        let mut scratch_stats = EngineStats::default();
        let mut scratch_bugs = Vec::new();
        let mut scratch_log = Vec::new();
        let mut scratch_obs = Recorder::disabled();
        let mut scratch_hops = Vec::new();
        // Replay must not re-report discoveries the live run already fed
        // back — classification stays off during rehydration.
        let mut scratch_discoveries = Vec::new();
        let mut plugins = std::mem::take(&mut self.plugins);
        let blocks_at_checkpoint = state.blocks_on_path;

        while state.blocks_on_path < compact.blocks_on_path {
            let outcome = {
                let mut env = ExecEnv {
                    ctx: ExecCtx {
                        builder: &self.builder,
                        solver: &mut self.solver,
                        config: &self.config,
                        stats: &mut scratch_stats,
                        bugs: &mut scratch_bugs,
                        log: &mut scratch_log,
                    },
                    cache: &mut self.cache,
                    marks: &mut self.marks,
                    seen_blocks: &self.seen_blocks,
                    obs: &mut scratch_obs,
                    // Replay work is accounted once, in the Replay
                    // histogram below — not as fresh translations.
                    telemetry: None,
                    // Chain freely during replay, but never past the
                    // recorded boundary: `blocks_on_path` advances inside
                    // `execute_block`, so the budget is exactly the
                    // remaining distance.
                    block_budget: compact.blocks_on_path - state.blocks_on_path,
                    hops: &mut scratch_hops,
                    predictions: None,
                    discoveries: &mut scratch_discoveries,
                };
                execute_block(&mut state, &mut env, &mut plugins)
            };
            scratch_hops.clear();
            match outcome {
                BlockOutcome::Continue => {}
                BlockOutcome::Fork(fork) => {
                    let decision =
                        state.replay_fork_decision().expect("cursor active during replay");
                    match decision {
                        JournalEvent::Curtail => {
                            // Mirror handle_fork's curtail arm.
                            if fork.constrained {
                                state.add_constraint(self.builder.bool_not(fork.cond));
                                state.machine.cpu.pc = fork.else_pc;
                            } else {
                                state.machine.cpu.pc = fork.then_pc;
                            }
                        }
                        JournalEvent::Fork { taken } => {
                            // Re-run the fork exactly as handle_fork did —
                            // constraints and plugin callbacks on both
                            // sides — then keep only the journaled side.
                            // The discarded sibling gets a scratch id (no
                            // allocator traffic); the kept side's identity
                            // is restored from `compact` below.
                            state.forks_on_path += 1;
                            state.count_fork_toward_checkpoint();
                            let mut child = state.fork_child(StateId(u64::MAX));
                            state.machine.cpu.pc = fork.then_pc;
                            child.machine.cpu.pc = fork.else_pc;
                            if fork.constrained {
                                state.add_constraint(fork.cond.clone());
                                child.add_constraint(self.builder.bool_not(fork.cond.clone()));
                            }
                            {
                                let mut ctx = ExecCtx {
                                    builder: &self.builder,
                                    solver: &mut self.solver,
                                    config: &self.config,
                                    stats: &mut scratch_stats,
                                    bugs: &mut scratch_bugs,
                                    log: &mut scratch_log,
                                };
                                for p in plugins.iter_mut() {
                                    p.on_fork(&mut state, &mut child, &mut ctx, &fork.cond);
                                }
                            }
                            if !taken {
                                state = child;
                            }
                        }
                        other => {
                            panic!("replay diverged: fork point journaled as {other:?}")
                        }
                    }
                }
                BlockOutcome::Terminated(reason) => panic!(
                    "replay diverged: state {} terminated ({reason:?}) after {} replayed blocks",
                    compact.id,
                    state.blocks_on_path - blocks_at_checkpoint
                ),
            }
        }
        self.plugins = plugins;

        let leftover_vars = s2e_expr::end_var_replay();
        assert_eq!(
            leftover_vars, 0,
            "replay of state {} minted fewer variables than the live run recorded",
            compact.id
        );
        let cursor = state.end_replay();
        assert!(
            cursor.finished(),
            "replay of state {} stopped with journal events left after {} consumed",
            compact.id,
            cursor.consumed()
        );
        assert_eq!(state.depth, compact.depth, "replay diverged: depth mismatch");
        assert_eq!(
            state.forks_on_path, compact.forks_on_path,
            "replay diverged: fork-count mismatch"
        );
        state.adopt_compact_identity(&compact);
        if let Some(expect) = compact.fingerprint {
            assert_eq!(
                state.fingerprint(),
                expect,
                "replayed state {} is not bit-identical to the evicted original",
                state.id
            );
        }

        self.stats.rehydrations += 1;
        self.stats.replayed_instrs += state.instrs_retired - instrs_at_checkpoint;
        self.obs.note(EventKind::Rehydrate {
            state: compact.id.0,
            replayed_blocks: state.blocks_on_path - blocks_at_checkpoint,
        });
        self.obs.exit(Phase::Replay);
        if let (Some(t), Some(started)) = (&self.telemetry, replay_started) {
            t.observe_duration(Hist::HistReplay, started.elapsed());
        }
        state
    }

    /// Enables the consistency model's default hardware symbolication:
    /// under SC-SE and RC-OC the NIC returns unconstrained symbolic values
    /// (the paper's *symbolic hardware*).
    pub fn apply_model_hardware_policy(&mut self) {
        let symbolic = matches!(
            self.config.consistency,
            ConsistencyModel::ScSe | ConsistencyModel::RcOc
        );
        for state in self.states.values_mut() {
            if let Some(nic) = state.machine.devices.nic_mut() {
                nic.symbolic_hardware = symbolic;
            }
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("live_states", &self.states.len())
            .field("terminated", &self.terminated.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
