//! High-level constraint-solving interface with caching and statistics.

use crate::bitblast::BitBlaster;
use crate::independence::{self, ConstraintPartition};
use crate::sat::{SatOutcome, SatSolver};
use s2e_expr::{eval, simplify, Assignment, ExprBuilder, ExprRef, VarId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outcome of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model assigning every variable in the query.
    Sat(Assignment),
    /// Definitely unsatisfiable.
    Unsat,
    /// The conflict budget ran out.
    Unknown,
}

impl SatResult {
    /// True for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// What a query was issued for — used to attribute solver time in the
/// Fig. 9 reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QueryKind {
    /// Branch-feasibility check at a fork point.
    Feasibility,
    /// Concretization of a symbolic value at a symbolic→concrete boundary.
    Concretize,
    /// Other (tool-initiated) queries.
    Other,
}

impl QueryKind {
    /// Every kind, in display order.
    pub const ALL: [QueryKind; 3] = [QueryKind::Feasibility, QueryKind::Concretize, QueryKind::Other];

    /// Position in per-kind stats arrays ([`SolverStats::by_kind`]).
    pub fn index(self) -> usize {
        match self {
            QueryKind::Feasibility => 0,
            QueryKind::Concretize => 1,
            QueryKind::Other => 2,
        }
    }

    /// Short lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Feasibility => "feasibility",
            QueryKind::Concretize => "concretize",
            QueryKind::Other => "other",
        }
    }
}

/// Tunables for the solver frontend.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Conflict budget per SAT search before returning `Unknown`.
    pub max_conflicts: u64,
    /// How many recent models to keep for the counterexample-pool fast
    /// path.
    pub model_pool_size: usize,
    /// Whether to run the bitfield-theory simplifier on every constraint
    /// before solving (the paper's §5 optimization; an ablation bench
    /// toggles this).
    pub simplify_queries: bool,
    /// Whether to consult the query cache and model pool.
    pub enable_cache: bool,
    /// Whether to split queries into independent components (no shared
    /// variables) and solve/cache each separately (see
    /// [`crate::independence`]). Also gates the sliced entry points
    /// ([`Solver::may_be_true_in`] etc.), which fall back to the full
    /// constraint set when this is off.
    pub enable_slicing: bool,
    /// Whether cache lookups may answer from subsuming entries: a cached
    /// superset's SAT model (after an `eval` recheck) answers a subset
    /// query, and a cached subset's UNSAT verdict answers any superset.
    pub enable_subsumption: bool,
    /// Maximum entries held by the query cache. When an insert pushes the
    /// store past this cap, the coldest eighth — fewest exact hits,
    /// oldest insertion as the tie-break — is evicted in one batch and
    /// the subsumption indexes are pruned, so long explorations hold
    /// memory steady instead of accreting every constraint set they ever
    /// solved. Applies to the solver-local store; the cross-worker
    /// [`SharedQueryCache`] takes its own cap at construction.
    pub cache_capacity: usize,
    /// Debugging cross-check (set `S2E_SOLVER_PARANOID=1`): every
    /// waterfall verdict is re-derived by a fresh cache-free core solve
    /// and every sliced verdict re-checked against the full constraint
    /// set; any disagreement panics with the offending query. Orders of
    /// magnitude slower — never enabled in benches or gates.
    pub paranoid: bool,
}

/// Default query-cache capacity (entries), shared by the solver-local
/// store and [`SharedQueryCache::new`]. Sized so steady-state exploration
/// of the bundled guests never evicts, while a pathological workload
/// (fresh constraints every fork, no reuse) stays bounded.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            max_conflicts: 4_000_000,
            model_pool_size: 8,
            simplify_queries: true,
            enable_cache: true,
            enable_slicing: true,
            enable_subsumption: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            paranoid: std::env::var_os("S2E_SOLVER_PARANOID").is_some(),
        }
    }
}

s2e_obs::counters! {
    /// Per-[`QueryKind`] slice of the solver statistics, reported once per
    /// kind with `<kind>.`-prefixed keys.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct KindStats in "solver_by_kind" {
        /// Queries of this kind.
        queries: u64 = Sum,
        /// ... answered satisfiable.
        sat: u64 = Sum,
        /// ... answered unsatisfiable.
        unsat: u64 = Sum,
        /// ... that exhausted the conflict budget.
        unknown: u64 = Sum,
        /// Wall-clock time spent on queries of this kind.
        time: Duration = Sum,
    }
}

s2e_obs::counters! {
    /// Aggregate statistics over all queries issued to a [`Solver`].
    /// Merging parallel workers' solvers sums counters and times
    /// (per-solver CPU time, like `EngineStats::cpu_time`) except
    /// `max_query_time`, which takes the maximum; the two cache
    /// snapshots sum across the disjoint per-worker caches.
    #[derive(Clone, Debug, Default)]
    pub struct SolverStats in "solver" {
        /// Queries answered (including cache hits).
        queries: u64 = Sum,
        /// Queries answered satisfiable.
        sat: u64 = Sum,
        /// Queries answered unsatisfiable.
        unsat: u64 = Sum,
        /// Queries that exhausted the conflict budget.
        unknown: u64 = Sum,
        /// Queries answered from the exact-match cache.
        cache_hits: u64 = Sum,
        /// Queries answered from the cross-worker shared cache (always a
        /// local miss first, so every shared hit is work another solver
        /// instance did).
        shared_hits: u64 = Sum,
        /// Queries answered by re-checking a pooled model.
        pool_hits: u64 = Sum,
        /// Component queries answered by cache subsumption (a superset's SAT
        /// model or a subset's UNSAT verdict), local or shared, instead of an
        /// exact entry.
        subsumption_hits: u64 = Sum,
        /// Component sets that reached the SAT core — every cache layer
        /// missed. This is the number the optimization stack exists to drive
        /// down.
        core_solves: u64 = Sum,
        /// Queries where slicing changed the solved set: a `check` that
        /// split into more than one independent component, or a
        /// partition-aware query ([`Solver::check_relevant`] and friends)
        /// whose slice dropped at least one untouched component.
        sliced_queries: u64 = Sum,
        /// Components solved separately on behalf of sliced queries.
        components_solved: u64 = Sum,
        /// Entries the local exact-match cache has evicted under capacity
        /// pressure (snapshot of [`QueryStore`]'s counter).
        cache_evictions: u64 = Sum,
        /// Entries currently held by the local exact-match cache (snapshot).
        cache_entries: u64 = Sum,
        /// Wall-clock time spent inside the solver (including cache lookups).
        total_time: Duration = Sum,
        /// Longest single query.
        max_query_time: Duration = Max,
        /// Per-[`QueryKind`] breakdown, indexed by [`QueryKind::index`];
        /// each slice reports as its own `KindStats` table.
        by_kind: [KindStats; 3] = Each,
    }
}

impl SolverStats {
    /// Mean time per query; zero if no queries ran.
    pub fn avg_query_time(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.queries as u32
        }
    }

    /// The per-kind slice for `kind`.
    pub fn kind(&self, kind: QueryKind) -> &KindStats {
        &self.by_kind[kind.index()]
    }
}

#[derive(Clone, Debug)]
enum Cached {
    Sat(Assignment),
    Unsat,
}

/// A cache entry stores the constraint set it answers for, so a 64-bit
/// key collision between different queries cannot return a wrong cached
/// verdict (equality is cheap: `ExprRef` fast-rejects on cached hashes).
#[derive(Clone, Debug)]
struct CacheEntry {
    constraints: Vec<ExprRef>,
    outcome: Cached,
    /// Whether a SAT model is the *canonical* one — produced by a core
    /// solve of exactly this constraint set, which is deterministic
    /// across processes and schedules. Models adopted from the model
    /// pool or a subsuming entry are sound witnesses but depend on query
    /// history; concretization must not consume them, or the value an
    /// expression concretizes to (and every path decision downstream of
    /// it) would vary with scheduling and state placement. Verdicts are
    /// facts, so UNSAT entries are always canonical.
    canonical: bool,
}

/// How many indexed candidates a subsumption lookup may examine before
/// giving up — bounds the lookup cost on pathological stores where one
/// constraint appears in thousands of cached sets.
const MAX_SUBSUMPTION_CANDIDATES: usize = 32;

/// What a [`QueryStore`] lookup found beyond an exact match.
enum StoreAnswer {
    /// An exact entry's outcome, plus whether its model is canonical.
    Exact(Cached, bool),
    /// A cached SAT superset's model; the caller must still eval-recheck
    /// it against the query before trusting it.
    SupersetSat(Assignment),
    /// Some cached UNSAT set is a subset of the query.
    SubsetUnsat,
}

/// A [`CacheEntry`] plus the retention metadata eviction ranks on.
#[derive(Debug)]
struct StoredEntry {
    entry: CacheEntry,
    /// Exact-match lookups this entry has answered. Subsumption answers
    /// do not bump it: a useful subsuming entry gets promoted to an
    /// exact entry at the querying key anyway, and that promotion is
    /// what repeats will hit.
    hits: u64,
    /// Monotonic insertion counter; breaks hit-count ties so the oldest
    /// cold entry is evicted first.
    stamp: u64,
}

/// Cache storage shared by the local and cross-worker caches: exact
/// entries keyed by order-independent query hash, plus the two inverted
/// indexes subsumption lookups walk.
///
/// Both indexes store candidate *keys*; the lookup re-verifies the
/// subset/superset relation structurally against the live entry, so
/// stale index rows (an entry overwritten under its key) and 64-bit
/// constraint-hash collisions cost a wasted check, never a wrong answer.
///
/// The store is capacity-capped: inserts past `capacity` trigger a batch
/// eviction of the least-hit entries (see [`QueryStore::evict_cold`]).
#[derive(Debug)]
struct QueryStore {
    entries: HashMap<u64, StoredEntry>,
    /// constraint hash → keys of SAT entries containing that constraint.
    /// A superset of a query must contain every query constraint, so the
    /// query member with the smallest bucket anchors the candidate scan.
    by_member: HashMap<u64, Vec<u64>>,
    /// Representative constraint hash (minimum over the set) → keys of
    /// UNSAT entries. A superset query necessarily contains the
    /// representative, so scanning the buckets of the query's own
    /// members finds every subsumed core.
    unsat_by_rep: HashMap<u64, Vec<u64>>,
    /// Hard cap on `entries`; see [`SolverConfig::cache_capacity`].
    capacity: usize,
    next_stamp: u64,
    /// Entries removed by [`QueryStore::evict_cold`] so far.
    evictions: u64,
}

impl Default for QueryStore {
    fn default() -> QueryStore {
        QueryStore {
            entries: HashMap::new(),
            by_member: HashMap::new(),
            unsat_by_rep: HashMap::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
            next_stamp: 0,
            evictions: 0,
        }
    }
}

impl QueryStore {
    fn get_exact(&mut self, key: u64, query: &[ExprRef]) -> Option<&CacheEntry> {
        let hit = self.entries.get_mut(&key)?;
        if !Solver::same_query(&hit.entry.constraints, query) {
            return None;
        }
        hit.hits += 1;
        Some(&hit.entry)
    }

    fn insert(&mut self, key: u64, entry: CacheEntry) {
        // A zero-capacity store caches nothing; inserting just to evict
        // the same entry one line later would churn the inverted
        // indexes for no retention at all.
        if self.capacity == 0 {
            return;
        }
        match &entry.outcome {
            Cached::Sat(_) => {
                for c in &entry.constraints {
                    let bucket = self.by_member.entry(c.cached_hash()).or_default();
                    if bucket.last() != Some(&key) {
                        bucket.push(key);
                    }
                }
            }
            Cached::Unsat => {
                if let Some(rep) = entry.constraints.iter().map(|c| c.cached_hash()).min() {
                    let bucket = self.unsat_by_rep.entry(rep).or_default();
                    if bucket.last() != Some(&key) {
                        bucket.push(key);
                    }
                }
            }
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(key, StoredEntry { entry, hits: 0, stamp });
        if self.entries.len() > self.capacity {
            self.evict_cold();
        }
    }

    /// Replaces the capacity cap, evicting immediately if the store is
    /// already over it.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        if self.entries.len() > self.capacity {
            self.evict_cold();
        }
    }

    /// Batch-evicts down to 7/8 of capacity, dropping the entries with
    /// the fewest exact hits (oldest first among ties), then prunes the
    /// inverted indexes of keys that no longer resolve. Evicting an
    /// eighth at a time keeps the ranking sort off the per-insert path:
    /// one O(n log n) wave amortizes over capacity/8 subsequent inserts.
    /// The batch is clamped to at least one entry — below 8 entries
    /// `capacity / 8` rounds to zero, which would leave `keep ==
    /// capacity` and charge a full ranking sort to every single insert
    /// past the cap.
    fn evict_cold(&mut self) {
        let batch = (self.capacity / 8).max(1);
        let keep = self.capacity.saturating_sub(batch);
        if self.entries.len() <= keep {
            return;
        }
        let excess = self.entries.len() - keep;
        self.evictions += excess as u64;
        let mut ranked: Vec<(u64, u64, u64)> = self
            .entries
            .iter()
            .map(|(&key, stored)| (stored.hits, stored.stamp, key))
            .collect();
        ranked.sort_unstable();
        for &(_, _, key) in ranked.iter().take(excess) {
            self.entries.remove(&key);
        }
        let live = &self.entries;
        self.by_member.retain(|_, bucket| {
            bucket.retain(|key| live.contains_key(key));
            !bucket.is_empty()
        });
        self.unsat_by_rep.retain(|_, bucket| {
            bucket.retain(|key| live.contains_key(key));
            !bucket.is_empty()
        });
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// A SAT entry whose constraint set is a superset of `query`. Its
    /// model satisfies every query constraint by construction; the
    /// caller eval-rechecks anyway to stay sound under hash collisions.
    fn find_superset_sat(&self, query: &[ExprRef]) -> Option<&Assignment> {
        // Every query constraint must appear in the candidate, so a
        // member nobody cached rules out any superset — and the member
        // with the smallest bucket gives the shortest scan.
        let buckets: Option<Vec<&Vec<u64>>> = query
            .iter()
            .map(|c| self.by_member.get(&c.cached_hash()))
            .collect();
        let anchor = buckets?.into_iter().min_by_key(|b| b.len())?;
        let mut scanned = 0;
        // Newest entries last; scan them first — recent queries resemble
        // the current path.
        for key in anchor.iter().rev() {
            if scanned == MAX_SUBSUMPTION_CANDIDATES {
                break;
            }
            let Some(stored) = self.entries.get(key) else {
                continue;
            };
            let entry = &stored.entry;
            let Cached::Sat(model) = &entry.outcome else {
                continue;
            };
            if entry.constraints.len() < query.len() {
                continue;
            }
            scanned += 1;
            let members: HashSet<&ExprRef> = entry.constraints.iter().collect();
            if query.iter().all(|c| members.contains(c)) {
                return Some(model);
            }
        }
        None
    }

    /// True if some cached UNSAT set is a subset of `query` — adding
    /// constraints never revives an unsatisfiable core.
    fn find_subset_unsat(&self, query: &[ExprRef]) -> bool {
        if self.unsat_by_rep.is_empty() {
            return false;
        }
        let members: HashSet<&ExprRef> = query.iter().collect();
        let mut scanned = 0;
        for c in query {
            let Some(bucket) = self.unsat_by_rep.get(&c.cached_hash()) else {
                continue;
            };
            for key in bucket.iter().rev() {
                if scanned == MAX_SUBSUMPTION_CANDIDATES {
                    return false;
                }
                let Some(stored) = self.entries.get(key) else {
                    continue;
                };
                let entry = &stored.entry;
                if !matches!(entry.outcome, Cached::Unsat) {
                    continue;
                }
                if entry.constraints.len() > query.len() {
                    continue;
                }
                scanned += 1;
                if entry.constraints.iter().all(|c| members.contains(c)) {
                    return true;
                }
            }
        }
        false
    }
}

s2e_obs::counters! {
    /// Aggregate counters for a [`SharedQueryCache`]. There is one cache
    /// per run, so every row is a global value: merging two reads of it,
    /// or every worker's live mirror of it, keeps the larger.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SharedCacheStats in "shared_cache" {
        /// Lookups answered by an exact shared entry.
        hits: u64 = Max,
        /// Lookups answered by a subsuming shared entry (superset SAT model
        /// or subset UNSAT core).
        subsumption_hits: u64 = Max,
        /// Entries published into the shared cache.
        inserts: u64 = Max,
        /// Entries currently held. Not monotonic, so its live form is the
        /// stamped `shared_cache.entries` gauge, published by hand.
        entries: usize = Max report_only,
        /// Entries evicted under capacity pressure.
        evictions: u64 = Max,
    }
}

/// A query cache shared between solver instances — the warm cache the
/// parallel explorer hands every worker.
///
/// Exploration forks re-check near-identical constraint prefixes, and
/// with work-stealing those prefixes migrate between workers; a private
/// cold cache per worker would redo every solve the previous owner
/// already paid for. Entries verify full structural equality of the
/// constraint set on lookup, so a 64-bit key collision can never return
/// a wrong cached verdict. Clones share the same underlying storage.
#[derive(Clone, Debug, Default)]
pub struct SharedQueryCache {
    store: Arc<Mutex<QueryStore>>,
    hits: Arc<AtomicU64>,
    subsumption_hits: Arc<AtomicU64>,
    inserts: Arc<AtomicU64>,
}

impl SharedQueryCache {
    /// Creates an empty shared cache capped at
    /// [`DEFAULT_CACHE_CAPACITY`] entries.
    pub fn new() -> SharedQueryCache {
        SharedQueryCache::default()
    }

    /// Creates an empty shared cache holding at most `capacity` entries;
    /// inserts past the cap batch-evict the least-hit entries (see
    /// [`SolverConfig::cache_capacity`] for the policy).
    pub fn with_capacity(capacity: usize) -> SharedQueryCache {
        let cache = SharedQueryCache::default();
        cache.store.lock().unwrap().capacity = capacity;
        cache
    }

    /// Replaces the capacity cap, evicting immediately if the store is
    /// already over it.
    pub fn set_capacity(&self, capacity: usize) {
        self.store.lock().unwrap().set_capacity(capacity);
    }

    /// One lock acquisition for the whole waterfall: exact, then (when
    /// enabled) subset-UNSAT and superset-SAT subsumption. A
    /// `SupersetSat` answer is *not* counted as a hit here — the caller
    /// must eval-recheck the model and report back via
    /// [`SharedQueryCache::note_subsumption_hit`] only if it validates.
    ///
    /// `canonical_only` restricts SAT answers to canonical models (see
    /// [`CacheEntry::canonical`]): a non-canonical exact SAT entry is
    /// treated as a miss and the superset-SAT path is skipped entirely,
    /// while UNSAT answers — verdicts, not choices — still come back.
    fn lookup(
        &self,
        key: u64,
        query: &[ExprRef],
        subsumption: bool,
        canonical_only: bool,
    ) -> Option<StoreAnswer> {
        let mut store = self.store.lock().unwrap();
        if let Some(hit) = store.get_exact(key, query) {
            if !canonical_only || hit.canonical || matches!(hit.outcome, Cached::Unsat) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(StoreAnswer::Exact(hit.outcome.clone(), hit.canonical));
            }
        }
        if !subsumption {
            return None;
        }
        if store.find_subset_unsat(query) {
            self.subsumption_hits.fetch_add(1, Ordering::Relaxed);
            return Some(StoreAnswer::SubsetUnsat);
        }
        if canonical_only {
            return None;
        }
        store
            .find_superset_sat(query)
            .map(|m| StoreAnswer::SupersetSat(m.clone()))
    }

    fn note_subsumption_hit(&self) {
        self.subsumption_hits.fetch_add(1, Ordering::Relaxed);
    }

    fn insert(&self, key: u64, entry: CacheEntry) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.store.lock().unwrap().insert(key, entry);
    }

    /// Counters (aggregated across every attached solver).
    pub fn stats(&self) -> SharedCacheStats {
        let store = self.store.lock().unwrap();
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            subsumption_hits: self.subsumption_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: store.len(),
            evictions: store.evictions,
        }
    }

    /// Lookups answered by an exact shared entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.store.lock().unwrap().len()
    }

    /// True if nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports every entry whose insertion stamp is at least `since`,
    /// plus the store's next stamp — pass that back as the next `since`
    /// to receive only entries inserted after this call. Used by the
    /// distributed tier (DESIGN.md §17) to ship cache deltas between a
    /// worker's local shared cache and the coordinator's.
    ///
    /// Keys combine `Expr::cached_hash` values, which are deterministic
    /// across processes (fixed-key `DefaultHasher`), so exported keys
    /// are valid in any process's store.
    pub fn export_since(&self, since: u64) -> (Vec<PortableCacheEntry>, u64) {
        let store = self.store.lock().unwrap();
        let mut out = Vec::new();
        for (&key, stored) in &store.entries {
            if stored.stamp < since {
                continue;
            }
            let model = match &stored.entry.outcome {
                Cached::Sat(a) => Some(a.iter().collect()),
                Cached::Unsat => None,
            };
            out.push(PortableCacheEntry {
                key,
                constraints: stored.entry.constraints.clone(),
                model,
                canonical: stored.entry.canonical,
            });
        }
        (out, store.next_stamp)
    }

    /// Imports entries exported from another process's cache; returns
    /// how many were new. Existing keys are left untouched (the local
    /// entry already answers the query), and imports do not bump the
    /// `inserts` counter — they were counted where they originated.
    /// Lookups still verify full structural equality, so a malicious or
    /// stale imported entry costs a wasted check, never a wrong answer.
    pub fn import(&self, entries: Vec<PortableCacheEntry>) -> usize {
        let mut store = self.store.lock().unwrap();
        let mut added = 0;
        for e in entries {
            if store.entries.contains_key(&e.key) {
                continue;
            }
            let outcome = match e.model {
                Some(pairs) => Cached::Sat(pairs.into_iter().collect()),
                None => Cached::Unsat,
            };
            store.insert(
                e.key,
                CacheEntry { constraints: e.constraints, outcome, canonical: e.canonical },
            );
            added += 1;
        }
        added
    }

    /// The monotonic insertion stamp the next insert will receive.
    pub fn next_stamp(&self) -> u64 {
        self.store.lock().unwrap().next_stamp
    }
}

/// One shared-cache entry in portable form, for cross-process cache
/// sync. `model: None` encodes an UNSAT verdict; `Some(bindings)` a SAT
/// model as `(variable, value)` pairs.
#[derive(Clone, Debug)]
pub struct PortableCacheEntry {
    /// The order-independent query-hash key the entry answers under.
    pub key: u64,
    /// The constraint set, verified structurally on every lookup.
    pub constraints: Vec<ExprRef>,
    /// SAT model bindings, or `None` for UNSAT.
    pub model: Option<Vec<(VarId, u64)>>,
    /// Whether the model came from a core solve of exactly this set
    /// (deterministic across processes) rather than a pool or
    /// subsumption adoption. Concretization only trusts canonical
    /// models; see [`SolverConfig::enable_cache`]'s determinism note.
    pub canonical: bool,
}

/// The constraint solver used by the execution engine.
///
/// Wraps the SAT core with the two optimizations KLEE made standard —
/// an exact query cache and a counterexample (model) pool — plus the
/// per-query timing needed to reproduce the paper's solver measurements.
///
/// # Example
///
/// ```
/// use s2e_expr::{ExprBuilder, Width};
/// use s2e_solver::Solver;
///
/// let b = ExprBuilder::new();
/// let x = b.var("x", Width::W8);
/// let c = b.ult(x.clone(), b.constant(10, Width::W8));
/// let mut solver = Solver::new();
/// assert!(solver.check(&[c.clone()]).is_sat());
/// // A value consistent with the constraints:
/// let (v, _model) = solver.concretize(&[c], &x).unwrap();
/// assert!(v < 10);
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    cache: QueryStore,
    /// Cross-instance cache, consulted after a local miss and fed by
    /// every fresh solve (see [`SharedQueryCache`]).
    shared: Option<SharedQueryCache>,
    model_pool: VecDeque<Assignment>,
    stats: SolverStats,
    /// Live per-kind query-latency histograms (one atomic add per
    /// query when attached; see DESIGN.md §16).
    telemetry: Option<s2e_obs::TelemetryHandle>,
    /// Private builder used only to materialize constants during
    /// simplification; it never creates variables.
    simp_builder: ExprBuilder,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        let mut cache = QueryStore::default();
        cache.set_capacity(config.cache_capacity);
        Solver {
            config,
            cache,
            shared: None,
            model_pool: VecDeque::new(),
            stats: SolverStats::default(),
            telemetry: None,
            simp_builder: ExprBuilder::new(),
        }
    }

    /// Attaches (or detaches) a live-telemetry shard. When set, every
    /// query records its wall latency into the per-kind log2 histogram
    /// — exactly one relaxed atomic add per query, so this is safe to
    /// leave on (the `telemetry_overhead` bench gates it at ≤2%).
    pub fn set_telemetry(&mut self, telemetry: Option<s2e_obs::TelemetryHandle>) {
        self.telemetry = telemetry;
    }

    /// Attaches a cross-instance shared query cache. Hits against it are
    /// counted separately ([`SolverStats::shared_hits`]) from local hits.
    pub fn attach_shared_cache(&mut self, shared: SharedQueryCache) {
        self.shared = Some(shared);
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&SharedQueryCache> {
        self.shared.as_ref()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Resets the statistics (the cache is kept).
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::default();
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Replaces the configuration (benches use this to ablate features
    /// on an engine-owned solver). Caches and statistics are kept; every
    /// lookup re-consults the flags, so toggles take effect immediately.
    pub fn set_config(&mut self, config: SolverConfig) {
        self.cache.set_capacity(config.cache_capacity);
        self.config = config;
    }

    /// Checks the conjunction of `constraints` for satisfiability.
    pub fn check(&mut self, constraints: &[ExprRef]) -> SatResult {
        self.check_kind(constraints, QueryKind::Other)
    }

    /// Checks satisfiability, attributing the query to `kind` for
    /// statistics.
    pub fn check_kind(&mut self, constraints: &[ExprRef], kind: QueryKind) -> SatResult {
        let start = Instant::now();
        // Concretization consumes the *model*, not just the verdict, so
        // it must get the canonical (core-solve) model: pool and
        // subsumption models vary with query history, and a
        // history-dependent concrete value makes the explored path tree
        // depend on scheduling and state placement — the distributed
        // tier's bit-identity gate (DESIGN.md §17) would flake.
        let result = self.check_inner(constraints, matches!(kind, QueryKind::Concretize));
        let elapsed = start.elapsed();
        if let Some(t) = &self.telemetry {
            t.observe_duration(s2e_obs::Hist::solve_kind(kind.index()), elapsed);
        }
        self.stats.queries += 1;
        self.stats.total_time += elapsed;
        self.stats.max_query_time = self.stats.max_query_time.max(elapsed);
        let by_kind = &mut self.stats.by_kind[kind.index()];
        by_kind.queries += 1;
        by_kind.time += elapsed;
        match &result {
            SatResult::Sat(_) => {
                self.stats.sat += 1;
                by_kind.sat += 1;
            }
            SatResult::Unsat => {
                self.stats.unsat += 1;
                by_kind.unsat += 1;
            }
            SatResult::Unknown => {
                self.stats.unknown += 1;
                by_kind.unknown += 1;
            }
        }
        // Snapshot the local cache's occupancy and eviction counters;
        // every query funnels through here, so the snapshot is always
        // current when stats are read.
        self.stats.cache_evictions = self.cache.evictions;
        self.stats.cache_entries = self.cache.len() as u64;
        result
    }

    fn check_inner(&mut self, constraints: &[ExprRef], want_canonical: bool) -> SatResult {
        // Simplify and strip trivially-true constraints.
        let mut simplified: Vec<ExprRef> = Vec::with_capacity(constraints.len());
        // X ∧ X = X: dropping duplicates keeps the CNF smaller and gives
        // re-checks of an already-asserted condition (a guest
        // re-validating a bound) the same cache key as the fork query
        // that first solved this constraint set. Keyed on the hash-consed
        // `ExprRef`, so dedup is O(n) rather than a quadratic scan.
        let mut seen: HashSet<ExprRef> = HashSet::with_capacity(constraints.len());
        for c in constraints {
            debug_assert_eq!(c.width(), s2e_expr::Width::BOOL, "constraints are boolean");
            let s = if self.config.simplify_queries {
                simplify(c, &self.simp_builder)
            } else {
                c.clone()
            };
            match s.as_const() {
                Some(0) => return SatResult::Unsat,
                Some(_) => continue,
                None => {
                    if seen.insert(s.clone()) {
                        simplified.push(s);
                    }
                }
            }
        }
        if simplified.is_empty() {
            return SatResult::Sat(Assignment::new());
        }

        if !self.config.enable_slicing {
            return self.check_set(simplified, want_canonical);
        }
        let mut components = independence::partition(&simplified);
        if components.len() == 1 {
            return self.check_set(components.pop().expect("non-empty"), want_canonical);
        }
        // Independent components share no variables: the conjunction is
        // SAT iff each component is, and per-component models stitch into
        // a model of the whole set. Each component gets its own cache
        // entry, so a hit survives growth in *unrelated* components.
        self.stats.sliced_queries += 1;
        let mut model = Assignment::new();
        for component in components {
            self.stats.components_solved += 1;
            // A component's answer may come from the model pool or a
            // superset cache entry, whose model can assign variables
            // *outside* this component (zero-extensions, stale values
            // from the query it originally solved). Stitch only the
            // component's own variables so those strays cannot clobber
            // another component's correct assignment.
            let mut own: HashSet<VarId> = HashSet::new();
            for c in &component {
                own.extend(c.var_ids().iter().copied());
            }
            match self.check_set(component, want_canonical) {
                SatResult::Sat(m) => {
                    for (id, v) in m.iter() {
                        if own.contains(&id) {
                            model.set(id, v);
                        }
                    }
                }
                SatResult::Unsat => return SatResult::Unsat,
                SatResult::Unknown => return SatResult::Unknown,
            }
        }
        SatResult::Sat(model)
    }

    /// Solves one already-simplified, deduplicated constraint set — a
    /// whole query when slicing is off, one independent component
    /// otherwise — through the cache waterfall: local exact → local
    /// subsumption → shared (exact + subsumption) → model pool → SAT
    /// core.
    ///
    /// With `want_canonical`, SAT answers must carry the canonical
    /// core-solve model: non-canonical cached models are passed over
    /// (the core solve then *replaces* the entry with the canonical
    /// one), and the model-pool and superset-SAT fast paths are skipped.
    /// UNSAT fast paths always apply — a verdict is a deterministic fact
    /// however it was derived.
    fn check_set(&mut self, query: Vec<ExprRef>, want_canonical: bool) -> SatResult {
        if !self.config.paranoid {
            return self.check_set_impl(query, want_canonical);
        }
        let reference = Self::raw_outcome(&query, self.config.max_conflicts);
        let r = self.check_set_impl(query.clone(), want_canonical);
        match (&r, &reference) {
            (SatResult::Sat(_), SatOutcome::Unsat) => {
                panic!("paranoid: waterfall SAT but core solve UNSAT for {query:#?}")
            }
            (SatResult::Unsat, SatOutcome::Sat) => {
                panic!("paranoid: waterfall UNSAT but core solve SAT for {query:#?}")
            }
            _ => {}
        }
        if let SatResult::Sat(m) = &r {
            if Self::recheck_model(m, &query).is_none() {
                let extended = Self::extend_model(m, &query);
                let per: Vec<String> = query
                    .iter()
                    .map(|c| format!("{:?}", eval(c, &extended)))
                    .collect();
                panic!(
                    "paranoid: returned model does not satisfy query\n\
                     raw verdict: {reference:?}\nmodel: {m:?}\nper-constraint eval: {per:#?}\n\
                     var_ids per constraint: {:#?}\nquery: {query:#?}",
                    query.iter().map(|c| c.var_ids().to_vec()).collect::<Vec<_>>()
                );
            }
        }
        r
    }

    /// Cache-free reference solve for the paranoid cross-check.
    fn raw_outcome(query: &[ExprRef], max_conflicts: u64) -> SatOutcome {
        let mut sat = SatSolver::new();
        let mut bb = BitBlaster::new(&mut sat);
        for c in query {
            bb.assert_true(&mut sat, c);
        }
        sat.solve(max_conflicts)
    }

    fn check_set_impl(&mut self, mut query: Vec<ExprRef>, want_canonical: bool) -> SatResult {
        // Canonical constraint order. The SAT core's model depends on
        // clause order, so without this two processes building the same
        // constraint *set* along different paths would core-solve
        // different (both correct) models — and a state migrating
        // between them would concretize differently than it would have
        // at home. Sorting by structural hash makes the core solve a
        // pure function of the set; cache-entry set-equality checks and
        // the subsumption indexes never depended on order.
        query.sort_unstable_by_key(|c| c.cached_hash());
        let key = Self::cache_key(&query);
        if self.config.enable_cache {
            if let Some(hit) = self.cache.get_exact(key, &query) {
                match &hit.outcome {
                    Cached::Sat(m) if !want_canonical || hit.canonical => {
                        self.stats.cache_hits += 1;
                        return SatResult::Sat(m.clone());
                    }
                    Cached::Sat(_) => {} // non-canonical; core-solve below
                    Cached::Unsat => {
                        self.stats.cache_hits += 1;
                        return SatResult::Unsat;
                    }
                }
            }
            if self.config.enable_subsumption {
                if self.cache.find_subset_unsat(&query) {
                    self.stats.subsumption_hits += 1;
                    // Promote to an exact entry so the next identical
                    // query skips the index walk.
                    self.cache.insert(
                        key,
                        CacheEntry {
                            constraints: query,
                            outcome: Cached::Unsat,
                            canonical: true,
                        },
                    );
                    return SatResult::Unsat;
                }
                if !want_canonical {
                    if let Some(model) = self.cache.find_superset_sat(&query).cloned() {
                        if let Some(model) = Self::recheck_model(&model, &query) {
                            self.stats.subsumption_hits += 1;
                            return self.adopt_sat(key, query, model);
                        }
                    }
                }
            }
            // Cross-instance cache: another worker may have answered this
            // component (or a subsuming one) already. Adopt the entry
            // locally so repeats stay off the shared lock.
            if let Some(shared) = self.shared.clone() {
                match shared.lookup(key, &query, self.config.enable_subsumption, want_canonical) {
                    Some(StoreAnswer::Exact(Cached::Sat(m), canonical)) => {
                        self.stats.shared_hits += 1;
                        return self.adopt_sat_canonical(key, query, m, canonical);
                    }
                    Some(StoreAnswer::Exact(Cached::Unsat, _)) => {
                        self.stats.shared_hits += 1;
                        self.cache.insert(
                            key,
                            CacheEntry {
                                constraints: query,
                                outcome: Cached::Unsat,
                                canonical: true,
                            },
                        );
                        return SatResult::Unsat;
                    }
                    Some(StoreAnswer::SubsetUnsat) => {
                        self.stats.shared_hits += 1;
                        self.stats.subsumption_hits += 1;
                        self.cache.insert(
                            key,
                            CacheEntry {
                                constraints: query,
                                outcome: Cached::Unsat,
                                canonical: true,
                            },
                        );
                        return SatResult::Unsat;
                    }
                    Some(StoreAnswer::SupersetSat(m)) => {
                        if let Some(model) = Self::recheck_model(&m, &query) {
                            shared.note_subsumption_hit();
                            self.stats.shared_hits += 1;
                            self.stats.subsumption_hits += 1;
                            return self.adopt_sat(key, query, model);
                        }
                    }
                    None => {}
                }
            }
            // Counterexample pool: a previous model (extended with zeros
            // for unseen variables) may already satisfy this query.
            if !want_canonical {
                if let Some(model) = self.try_model_pool(&query) {
                    self.stats.pool_hits += 1;
                    self.insert_both(
                        key,
                        CacheEntry {
                            constraints: query,
                            outcome: Cached::Sat(model.clone()),
                            canonical: false,
                        },
                    );
                    return SatResult::Sat(model);
                }
            }
        }

        self.stats.core_solves += 1;
        let mut sat = SatSolver::new();
        let mut bb = BitBlaster::new(&mut sat);
        for c in &query {
            bb.assert_true(&mut sat, c);
        }
        match sat.solve(self.config.max_conflicts) {
            SatOutcome::Unsat => {
                if self.config.enable_cache {
                    self.insert_both(
                        key,
                        CacheEntry {
                            constraints: query,
                            outcome: Cached::Unsat,
                            canonical: true,
                        },
                    );
                }
                SatResult::Unsat
            }
            SatOutcome::Unknown => SatResult::Unknown,
            SatOutcome::Sat => {
                let mut model = Assignment::new();
                for (id, bits) in bb.blasted_vars() {
                    let mut v = 0u64;
                    for (i, &bit) in bits.iter().enumerate() {
                        if sat.model_value(bit).unwrap_or(false) {
                            v |= 1 << i;
                        }
                    }
                    model.set(id, v);
                }
                if self.config.enable_cache {
                    self.insert_both(
                        key,
                        CacheEntry {
                            constraints: query,
                            outcome: Cached::Sat(model.clone()),
                            canonical: true,
                        },
                    );
                    self.model_pool.push_front(model.clone());
                    self.model_pool.truncate(self.config.model_pool_size);
                }
                SatResult::Sat(model)
            }
        }
    }

    /// Records a SAT answer obtained without the SAT core (shared or
    /// subsuming entry): local exact entry, model pool, and the result.
    fn adopt_sat(&mut self, key: u64, query: Vec<ExprRef>, model: Assignment) -> SatResult {
        self.adopt_sat_canonical(key, query, model, false)
    }

    /// [`Solver::adopt_sat`], preserving the source entry's canonical
    /// flag (a shared exact hit may carry another worker's core-solve
    /// model, which stays canonical through adoption).
    fn adopt_sat_canonical(
        &mut self,
        key: u64,
        query: Vec<ExprRef>,
        model: Assignment,
        canonical: bool,
    ) -> SatResult {
        self.model_pool.push_front(model.clone());
        self.model_pool.truncate(self.config.model_pool_size);
        self.cache.insert(
            key,
            CacheEntry {
                constraints: query,
                outcome: Cached::Sat(model.clone()),
                canonical,
            },
        );
        SatResult::Sat(model)
    }

    /// Inserts a finished query into the local cache and, when attached,
    /// publishes it to the shared cache.
    fn insert_both(&mut self, key: u64, entry: CacheEntry) {
        if let Some(shared) = &self.shared {
            shared.insert(key, entry.clone());
        }
        self.cache.insert(key, entry);
    }

    /// Structural equality of two queries as unordered constraint sets.
    fn same_query(a: &[ExprRef], b: &[ExprRef]) -> bool {
        a.len() == b.len() && b.iter().all(|c| a.contains(c))
    }

    fn cache_key(constraints: &[ExprRef]) -> u64 {
        let mut hashes: Vec<u64> = constraints.iter().map(|c| c.cached_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for h in hashes {
            acc ^= h;
            acc = acc.wrapping_mul(0x1000_0000_01b3);
        }
        acc
    }

    fn try_model_pool(&self, constraints: &[ExprRef]) -> Option<Assignment> {
        self.model_pool
            .iter()
            .find_map(|m| Self::recheck_model(m, constraints))
    }

    /// Extends a candidate model with zeros for unmentioned variables and
    /// keeps it only if it satisfies every constraint — the cheap `eval`
    /// recheck that makes pool and subsumption answers trustworthy even
    /// across 64-bit hash collisions.
    fn recheck_model(model: &Assignment, constraints: &[ExprRef]) -> Option<Assignment> {
        let extended = Self::extend_model(model, constraints);
        for c in constraints {
            match eval(c, &extended) {
                Ok(1) => {}
                _ => return None,
            }
        }
        Some(extended)
    }

    fn extend_model(model: &Assignment, constraints: &[ExprRef]) -> Assignment {
        let mut out = model.clone();
        for c in constraints {
            for &id in c.var_ids() {
                if out.get(id, "").is_none() {
                    out.set(id, 0);
                }
            }
        }
        out
    }

    /// True if `cond` can be true under the constraints; `None` if the
    /// solver gave up.
    pub fn may_be_true(&mut self, constraints: &[ExprRef], cond: &ExprRef) -> Option<bool> {
        let mut q = constraints.to_vec();
        q.push(cond.clone());
        match self.check_kind(&q, QueryKind::Feasibility) {
            SatResult::Sat(_) => Some(true),
            SatResult::Unsat => Some(false),
            SatResult::Unknown => None,
        }
    }

    /// True if `cond` holds on every solution of the constraints; `None`
    /// if the solver gave up.
    pub fn must_be_true(&mut self, constraints: &[ExprRef], cond: &ExprRef) -> Option<bool> {
        let not_cond = {
            let b = &self.simp_builder;
            b.eq(cond.clone(), b.constant(0, cond.width()))
        };
        self.may_be_true(constraints, &not_cond).map(|x| !x)
    }

    /// Finds a concrete value for `expr` consistent with the constraints,
    /// along with the model that produced it.
    ///
    /// This is the workhorse of the symbolic→concrete transition (§2.2 of
    /// the paper): the returned value becomes the soft constraint
    /// `expr == value` on the current path.
    ///
    /// Returns `None` if the constraints are unsatisfiable or the solver
    /// gave up.
    pub fn concretize(
        &mut self,
        constraints: &[ExprRef],
        expr: &ExprRef,
    ) -> Option<(u64, Assignment)> {
        if let Some(v) = expr.as_const() {
            return Some((v, Assignment::new()));
        }
        // Solve the constraints, then extend the model with zeros for the
        // expression's unmentioned variables — any consistent extension of
        // a model stays a model, since constraints don't mention the
        // extended variables.
        match self.check_kind(constraints, QueryKind::Concretize) {
            SatResult::Sat(model) => Self::value_from_model(model, expr),
            _ => None,
        }
    }

    fn value_from_model(model: Assignment, expr: &ExprRef) -> Option<(u64, Assignment)> {
        let mut extended = model;
        for &id in expr.var_ids() {
            if extended.get(id, "").is_none() {
                extended.set(id, 0);
            }
        }
        let v = eval(expr, &extended).ok()?;
        Some((v, extended))
    }

    /// Like [`Solver::check_kind`], against a pre-partitioned constraint
    /// set: only the components sharing variables with `extra` (plus the
    /// partition's variable-free residue) are sent to the solver; the
    /// rest of the path condition never leaves the state.
    ///
    /// # Soundness
    ///
    /// Skipping components is sound only when the partition's full
    /// constraint set is known satisfiable. That holds for execution-
    /// state path conditions by construction — every constraint is added
    /// only after the branch it encodes was proven feasible — and it is
    /// exactly what makes the verdict of the sliced query equal that of
    /// the full query: the skipped components are satisfiable and share
    /// no variables with the slice, so their models conjoin freely.
    /// Falls back to the full set when `enable_slicing` is off.
    pub fn check_relevant(
        &mut self,
        partition: &ConstraintPartition,
        extra: &[ExprRef],
        kind: QueryKind,
    ) -> SatResult {
        let mut query = if self.config.enable_slicing {
            let mut vars: Vec<VarId> = Vec::new();
            for e in extra {
                vars = independence::merge_vars(&vars, e.var_ids());
            }
            let slice = partition.slice_for(&vars);
            if slice.len() < partition.len() {
                self.stats.sliced_queries += 1;
            }
            slice
        } else {
            partition.all()
        };
        query.extend(extra.iter().cloned());
        let r = self.check_kind(&query, kind);
        if self.config.paranoid && self.config.enable_slicing {
            let mut full = partition.all();
            full.extend(extra.iter().cloned());
            let reference = Self::raw_outcome(&full, self.config.max_conflicts);
            match (&r, &reference) {
                (SatResult::Sat(_), SatOutcome::Unsat) => panic!(
                    "paranoid: sliced query SAT but full set UNSAT\nslice: {query:#?}\nfull: {full:#?}"
                ),
                (SatResult::Unsat, SatOutcome::Sat) => panic!(
                    "paranoid: sliced query UNSAT but full set SAT\nslice: {query:#?}\nfull: {full:#?}"
                ),
                _ => {}
            }
        }
        r
    }

    /// [`Solver::may_be_true`] against a pre-partitioned constraint set
    /// (see [`Solver::check_relevant`] for the soundness argument).
    pub fn may_be_true_in(
        &mut self,
        partition: &ConstraintPartition,
        cond: &ExprRef,
    ) -> Option<bool> {
        match self.check_relevant(partition, std::slice::from_ref(cond), QueryKind::Feasibility) {
            SatResult::Sat(_) => Some(true),
            SatResult::Unsat => Some(false),
            SatResult::Unknown => None,
        }
    }

    /// [`Solver::must_be_true`] against a pre-partitioned constraint set.
    pub fn must_be_true_in(
        &mut self,
        partition: &ConstraintPartition,
        cond: &ExprRef,
    ) -> Option<bool> {
        let not_cond = {
            let b = &self.simp_builder;
            b.eq(cond.clone(), b.constant(0, cond.width()))
        };
        self.may_be_true_in(partition, &not_cond).map(|x| !x)
    }

    /// [`Solver::concretize`] against a pre-partitioned constraint set:
    /// solves only the components constraining the expression's
    /// variables. Components the expression doesn't touch cannot affect
    /// its feasible values, so the sliced model (zero-extended over the
    /// expression's unconstrained variables) concretizes it exactly as
    /// the full path condition would.
    pub fn concretize_in(
        &mut self,
        partition: &ConstraintPartition,
        expr: &ExprRef,
    ) -> Option<(u64, Assignment)> {
        if let Some(v) = expr.as_const() {
            return Some((v, Assignment::new()));
        }
        let constraints = if self.config.enable_slicing {
            let slice = partition.slice_for_expr(expr);
            if slice.len() < partition.len() {
                self.stats.sliced_queries += 1;
            }
            slice
        } else {
            partition.all()
        };
        match self.check_kind(&constraints, QueryKind::Concretize) {
            SatResult::Sat(model) => Self::value_from_model(model, expr),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2e_expr::Width;

    fn setup() -> (ExprBuilder, Solver) {
        (ExprBuilder::new(), Solver::new())
    }

    #[test]
    fn empty_query_is_sat() {
        let (_, mut s) = setup();
        assert!(s.check(&[]).is_sat());
    }

    #[test]
    fn trivially_false_is_unsat() {
        let (b, mut s) = setup();
        assert_eq!(s.check(&[b.false_()]), SatResult::Unsat);
    }

    #[test]
    fn linear_equation_solved() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W16);
        // 3x + 7 == 100  =>  x == 31
        let lhs = b.add(
            b.mul(x.clone(), b.constant(3, Width::W16)),
            b.constant(7, Width::W16),
        );
        let c = b.eq(lhs, b.constant(100, Width::W16));
        match s.check(&[c]) {
            SatResult::Sat(m) => assert_eq!(eval(&x, &m).unwrap(), 31),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_constraints_unsat() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let c1 = b.ult(x.clone(), b.constant(5, Width::W8));
        let c2 = b.ult(b.constant(10, Width::W8), x);
        assert_eq!(s.check(&[c1, c2]), SatResult::Unsat);
    }

    #[test]
    fn cache_hits_on_repeat() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let c = b.eq(x, b.constant(3, Width::W8));
        s.check(std::slice::from_ref(&c));
        let before = s.stats().cache_hits;
        s.check(&[c]);
        assert_eq!(s.stats().cache_hits, before + 1);
    }

    #[test]
    fn eviction_caps_store_under_churn() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            cache_capacity: 32,
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W16);
        for i in 0..400u64 {
            let eq = b.eq(x.clone(), b.constant(i, Width::W16));
            if i % 3 == 0 {
                // UNSAT sets exercise the unsat_by_rep index too.
                let clash = b.eq(x.clone(), b.constant(i + 1, Width::W16));
                assert_eq!(s.check(&[eq, clash]), SatResult::Unsat);
            } else {
                assert!(s.check(&[eq]).is_sat());
            }
            assert!(s.cache.len() <= 32, "cache grew past capacity");
        }
        // Eviction waves prune the inverted indexes, so they stay
        // proportional to the live entries (at most one row per entry
        // here) plus the handful of inserts since the last wave — not
        // to the 400 total inserts.
        let rows: usize = s.cache.by_member.values().map(Vec::len).sum::<usize>()
            + s.cache.unsat_by_rep.values().map(Vec::len).sum::<usize>();
        assert!(rows <= 2 * 32, "stale index rows accreted: {rows}");
        // Shrinking the cap evicts immediately.
        s.set_config(SolverConfig {
            cache_capacity: 8,
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        assert!(s.cache.len() <= 8);
    }

    #[test]
    fn hot_entries_survive_churn_eviction() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            cache_capacity: 16,
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W16);
        let hot = b.eq(x.clone(), b.constant(9999, Width::W16));
        assert!(s.check(std::slice::from_ref(&hot)).is_sat());
        for i in 0..200u64 {
            assert!(s
                .check(&[b.eq(x.clone(), b.constant(i, Width::W16))])
                .is_sat());
            // Touch the hot entry so its hit count outranks the churn.
            assert!(s.check(std::slice::from_ref(&hot)).is_sat());
        }
        let before = s.stats().cache_hits;
        assert!(s.check(&[hot]).is_sat());
        assert_eq!(
            s.stats().cache_hits,
            before + 1,
            "the frequently-hit entry was evicted"
        );
        // Every churn query was distinct, so exactly hot + churn reached
        // the SAT core; none of the hot repeats did.
        assert_eq!(s.stats().core_solves, 201);
    }

    #[test]
    fn shared_cache_eviction_caps_under_churn() {
        let b = ExprBuilder::new();
        let shared = SharedQueryCache::with_capacity(16);
        let mut s = Solver::with_config(SolverConfig {
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        s.attach_shared_cache(shared.clone());
        let x = b.var("x", Width::W16);
        for i in 0..200u64 {
            let c = b.eq(x.clone(), b.constant(i, Width::W16));
            assert!(s.check(&[c]).is_sat());
        }
        assert_eq!(shared.stats().inserts, 200);
        assert!(shared.len() <= 16, "shared cache grew past capacity");
        // Tightening the cap takes effect immediately.
        shared.set_capacity(4);
        assert!(shared.len() <= 4);
    }

    #[test]
    fn tiny_capacity_eviction_batch_is_clamped() {
        // Below 8 entries `capacity / 8` rounds to zero; the eviction
        // batch must still be at least one below capacity, so a wave
        // leaves the store strictly under the cap (and the ranking sort
        // amortizes over the refill instead of running every insert).
        let b = ExprBuilder::new();
        for cap in [2usize, 4, 7] {
            let mut s = Solver::with_config(SolverConfig {
                cache_capacity: cap,
                model_pool_size: 0,
                ..SolverConfig::default()
            });
            let x = b.var("x", Width::W16);
            for i in 0..=cap as u64 {
                assert!(s.check(&[b.eq(x.clone(), b.constant(i, Width::W16))]).is_sat());
                assert!(s.cache.len() <= cap, "cap {cap}: store exceeded capacity");
            }
            assert!(
                s.cache.len() < cap,
                "cap {cap}: an eviction wave must dip below capacity, got {}",
                s.cache.len()
            );
            assert!(s.cache.evictions > 0, "cap {cap}: churn past the cap evicts");
        }
    }

    #[test]
    fn zero_capacity_store_drops_inserts_instead_of_thrashing() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            cache_capacity: 0,
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W16);
        for i in 0..20u64 {
            let eq = b.eq(x.clone(), b.constant(i, Width::W16));
            assert!(s.check(std::slice::from_ref(&eq)).is_sat());
            let clash = b.eq(x.clone(), b.constant(i + 1, Width::W16));
            assert_eq!(s.check(&[eq, clash]), SatResult::Unsat);
        }
        assert_eq!(s.cache.len(), 0, "zero-capacity store holds nothing");
        assert_eq!(
            s.cache.evictions, 0,
            "inserts must be dropped up front, not inserted and evicted"
        );
        assert!(s.cache.by_member.is_empty(), "no index rows without entries");
        assert!(s.cache.unsat_by_rep.is_empty(), "no index rows without entries");
    }

    #[test]
    fn shared_cache_survives_tiny_and_zero_capacities() {
        let b = ExprBuilder::new();
        let x = b.var("x", Width::W16);

        let tiny = SharedQueryCache::with_capacity(2);
        let mut s = Solver::with_config(SolverConfig {
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        s.attach_shared_cache(tiny.clone());
        for i in 0..50u64 {
            assert!(s.check(&[b.eq(x.clone(), b.constant(i, Width::W16))]).is_sat());
            assert!(tiny.len() <= 2, "shared cache exceeded tiny capacity");
        }
        assert!(tiny.stats().evictions > 0);

        let zero = SharedQueryCache::with_capacity(0);
        let mut s0 = Solver::with_config(SolverConfig {
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        s0.attach_shared_cache(zero.clone());
        for i in 0..20u64 {
            assert!(s0.check(&[b.eq(x.clone(), b.constant(i, Width::W16))]).is_sat());
        }
        assert_eq!(zero.len(), 0);
        assert_eq!(zero.stats().inserts, 20, "publication attempts are still counted");
        assert_eq!(zero.stats().evictions, 0, "dropped inserts never become evictions");

        // Zeroing the cap on a warm cache flushes it outright.
        tiny.set_capacity(0);
        assert_eq!(tiny.len(), 0);
    }

    #[test]
    fn model_pool_answers_weaker_query() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let eq = b.eq(x.clone(), b.constant(3, Width::W8));
        let lt = b.ult(x, b.constant(10, Width::W8));
        s.check(&[eq]);
        // The model x=3 also satisfies x<10; should be a pool hit.
        let before = s.stats().pool_hits;
        assert!(s.check(&[lt]).is_sat());
        assert_eq!(s.stats().pool_hits, before + 1);
    }

    #[test]
    fn may_and_must() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let c = b.ult(x.clone(), b.constant(5, Width::W8)); // x < 5
        let lt10 = b.ult(x.clone(), b.constant(10, Width::W8));
        let eq7 = b.eq(x.clone(), b.constant(7, Width::W8));
        assert_eq!(s.must_be_true(std::slice::from_ref(&c), &lt10), Some(true));
        assert_eq!(s.may_be_true(std::slice::from_ref(&c), &eq7), Some(false));
        let eq2 = b.eq(x, b.constant(2, Width::W8));
        assert_eq!(s.may_be_true(&[c], &eq2), Some(true));
    }

    #[test]
    fn concretize_respects_constraints() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let lo = b.ule(b.constant(100, Width::W8), x.clone());
        let hi = b.ule(x.clone(), b.constant(110, Width::W8));
        let (v, model) = s.concretize(&[lo, hi], &x).unwrap();
        assert!((100..=110).contains(&v), "v={v}");
        assert_eq!(eval(&x, &model).unwrap(), v);
    }

    #[test]
    fn concretize_constant_is_free() {
        let (b, mut s) = setup();
        let c = b.constant(42, Width::W8);
        let (v, _) = s.concretize(&[], &c).unwrap();
        assert_eq!(v, 42);
        assert_eq!(s.stats().queries, 0);
    }

    #[test]
    fn concretize_unconstrained_var_defaults() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let (v, model) = s.concretize(&[], &x).unwrap();
        assert_eq!(eval(&x, &model).unwrap(), v);
    }

    #[test]
    fn stats_track_time_and_outcomes() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        s.check(&[b.eq(x.clone(), b.constant(1, Width::W8))]);
        s.check(&[b.false_()]);
        let st = s.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.sat, 1);
        assert_eq!(st.unsat, 1);
        assert!(st.avg_query_time() <= st.max_query_time.max(st.total_time));
    }

    #[test]
    fn shared_cache_crosses_solver_instances() {
        let b = ExprBuilder::new();
        let shared = SharedQueryCache::new();
        let x = b.var("x", Width::W8);
        let c = b.eq(x.clone(), b.constant(3, Width::W8));

        let mut s1 = Solver::new();
        s1.attach_shared_cache(shared.clone());
        assert!(s1.check(std::slice::from_ref(&c)).is_sat());
        assert_eq!(s1.stats().shared_hits, 0);
        assert_eq!(shared.stats().inserts, 1);

        // A different solver instance with a cold local cache answers the
        // same query from the shared cache without re-solving.
        let mut s2 = Solver::new();
        s2.attach_shared_cache(shared.clone());
        match s2.check(std::slice::from_ref(&c)) {
            SatResult::Sat(m) => assert_eq!(eval(&x, &m).unwrap(), 3),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(s2.stats().shared_hits, 1);
        assert_eq!(shared.hits(), 1);

        // Repeat on s2 now hits locally, not the shared lock.
        s2.check(&[c]);
        assert_eq!(s2.stats().cache_hits, 1);
        assert_eq!(shared.hits(), 1);
    }

    #[test]
    fn shared_cache_unsat_and_stats() {
        let b = ExprBuilder::new();
        let shared = SharedQueryCache::new();
        let x = b.var("x", Width::W8);
        let c1 = b.ult(x.clone(), b.constant(5, Width::W8));
        let c2 = b.ult(b.constant(10, Width::W8), x);

        let mut s1 = Solver::new();
        s1.attach_shared_cache(shared.clone());
        assert_eq!(s1.check(&[c1.clone(), c2.clone()]), SatResult::Unsat);

        let mut s2 = Solver::new();
        s2.attach_shared_cache(shared.clone());
        // Constraint order must not matter for the shared hit.
        assert_eq!(s2.check(&[c2, c1]), SatResult::Unsat);
        assert_eq!(s2.stats().shared_hits, 1);
        assert!(!shared.is_empty());
        assert_eq!(shared.stats().entries, shared.len());
    }

    #[test]
    fn shared_cache_export_import_round_trip() {
        let b = ExprBuilder::new();
        let src = SharedQueryCache::new();
        let x = b.var("x", Width::W8);
        let sat = b.eq(x.clone(), b.constant(3, Width::W8));
        let c1 = b.ult(x.clone(), b.constant(5, Width::W8));
        let c2 = b.ult(b.constant(10, Width::W8), x.clone());

        let mut s = Solver::new();
        s.attach_shared_cache(src.clone());
        assert!(s.check(std::slice::from_ref(&sat)).is_sat());
        assert_eq!(s.check(&[c1.clone(), c2.clone()]), SatResult::Unsat);

        // Ship the delta into a fresh cache (another process's, in the
        // distributed tier) and hit both verdicts there without solving.
        let (delta, stamp) = src.export_since(0);
        assert_eq!(delta.len(), 2);
        let dst = SharedQueryCache::new();
        assert_eq!(dst.import(delta), 2);
        assert_eq!(dst.len(), src.len());
        let mut s2 = Solver::new();
        s2.attach_shared_cache(dst.clone());
        let solves = s2.stats().core_solves;
        assert!(s2.check(&[sat]).is_sat());
        assert_eq!(s2.check(&[c2, c1]), SatResult::Unsat);
        assert_eq!(s2.stats().core_solves, solves);
        assert_eq!(s2.stats().shared_hits, 2);
        // Imports do not echo: re-exporting from the returned stamp on
        // the source, and from zero on the import side after a
        // round-trip mark update, yields nothing new.
        assert!(src.export_since(stamp).0.is_empty());
        assert_eq!(src.import(dst.export_since(0).0), 0);
    }

    #[test]
    fn disabled_cache_still_correct() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            enable_cache: false,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W8);
        let c = b.eq(x, b.constant(3, Width::W8));
        assert!(s.check(std::slice::from_ref(&c)).is_sat());
        assert!(s.check(&[c]).is_sat());
        assert_eq!(s.stats().cache_hits, 0);
    }

    #[test]
    fn unsimplified_queries_still_correct() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            simplify_queries: false,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W8);
        let masked = b.and(x.clone(), b.constant(0x0f, Width::W8));
        let c = b.eq(masked, b.constant(0x05, Width::W8));
        match s.check(&[c]) {
            SatResult::Sat(m) => {
                let v = eval(&x, &m).unwrap();
                assert_eq!(v & 0x0f, 0x05);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn sliced_query_stitches_model_across_components() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let y = b.var("y", Width::W8);
        let cx = b.eq(x.clone(), b.constant(3, Width::W8));
        let cy = b.eq(y.clone(), b.constant(7, Width::W8));
        match s.check(&[cx, cy]) {
            SatResult::Sat(m) => {
                assert_eq!(eval(&x, &m).unwrap(), 3);
                assert_eq!(eval(&y, &m).unwrap(), 7);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(s.stats().sliced_queries, 1);
        assert_eq!(s.stats().components_solved, 2);
    }

    #[test]
    fn stitched_model_ignores_stray_pool_assignments() {
        // A pooled model can carry assignments for variables outside the
        // component it answers (here x=5 *and* y=7 from the first
        // query). When it answers the x-component of a later query, the
        // stale y=7 must not clobber the y-component's freshly solved
        // y=3.
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let y = b.var("y", Width::W8);
        let both = b.and(
            b.eq(x.clone(), b.constant(5, Width::W8)),
            b.eq(y.clone(), b.constant(7, Width::W8)),
        );
        assert!(s.check(&[both]).is_sat());
        let q = [
            b.eq(y.clone(), b.constant(3, Width::W8)),
            b.eq(x.clone(), b.constant(5, Width::W8)),
        ];
        match s.check(&q) {
            SatResult::Sat(m) => {
                assert_eq!(eval(&x, &m).unwrap(), 5);
                assert_eq!(eval(&y, &m).unwrap(), 3);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn sliced_component_cache_survives_unrelated_growth() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let cx = b.eq(x.clone(), b.constant(3, Width::W8));
        s.check(std::slice::from_ref(&cx));
        let solves = s.stats().core_solves;
        // A second query adds an unrelated constraint: the x-component is
        // answered from cache, only the y-component hits the SAT core.
        let y = b.var("y", Width::W8);
        let cy = b.eq(y, b.constant(7, Width::W8));
        assert!(s.check(&[cx, cy]).is_sat());
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.stats().core_solves, solves + 1);
    }

    #[test]
    fn sliced_unsat_component_fails_whole_query() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let y = b.var("y", Width::W8);
        let cy = b.eq(y, b.constant(7, Width::W8));
        let lo = b.ult(x.clone(), b.constant(5, Width::W8));
        let hi = b.ult(b.constant(10, Width::W8), x);
        assert_eq!(s.check(&[cy, lo, hi]), SatResult::Unsat);
    }

    #[test]
    fn subset_unsat_answers_superset_query() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let lo = b.ult(x.clone(), b.constant(5, Width::W8));
        let hi = b.ult(b.constant(10, Width::W8), x.clone());
        assert_eq!(s.check(&[lo.clone(), hi.clone()]), SatResult::Unsat);
        let solves = s.stats().core_solves;
        // Tighten with a third constraint over the same variable (so
        // slicing keeps one component and the set is a strict superset).
        let extra = b.ne(x, b.constant(7, Width::W8));
        assert_eq!(s.check(&[lo, hi, extra]), SatResult::Unsat);
        assert_eq!(s.stats().subsumption_hits, 1);
        assert_eq!(s.stats().core_solves, solves, "no new SAT-core solve");
    }

    #[test]
    fn superset_sat_model_answers_subset_query() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let lo = b.ule(b.constant(100, Width::W8), x.clone());
        let hi = b.ule(x.clone(), b.constant(110, Width::W8));
        assert!(s.check(&[lo.clone(), hi]).is_sat());
        let solves = s.stats().core_solves;
        // Drop a constraint: the cached superset model still applies.
        // (It would also be a pool hit; subsumption answers first.)
        assert!(s.check(&[lo]).is_sat());
        assert_eq!(s.stats().subsumption_hits, 1);
        assert_eq!(s.stats().core_solves, solves);
    }

    #[test]
    fn subsumption_disabled_still_correct() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            enable_subsumption: false,
            model_pool_size: 0,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W8);
        let lo = b.ult(x.clone(), b.constant(5, Width::W8));
        let hi = b.ult(b.constant(10, Width::W8), x.clone());
        assert_eq!(s.check(&[lo.clone(), hi.clone()]), SatResult::Unsat);
        let extra = b.ne(x, b.constant(7, Width::W8));
        assert_eq!(s.check(&[lo, hi, extra]), SatResult::Unsat);
        assert_eq!(s.stats().subsumption_hits, 0);
        assert_eq!(s.stats().core_solves, 2);
    }

    #[test]
    fn slicing_disabled_still_correct() {
        let b = ExprBuilder::new();
        let mut s = Solver::with_config(SolverConfig {
            enable_slicing: false,
            ..SolverConfig::default()
        });
        let x = b.var("x", Width::W8);
        let y = b.var("y", Width::W8);
        let cx = b.eq(x.clone(), b.constant(3, Width::W8));
        let cy = b.eq(y.clone(), b.constant(7, Width::W8));
        match s.check(&[cx, cy]) {
            SatResult::Sat(m) => {
                assert_eq!(eval(&x, &m).unwrap(), 3);
                assert_eq!(eval(&y, &m).unwrap(), 7);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(s.stats().sliced_queries, 0);
    }

    #[test]
    fn shared_cache_subsumption_crosses_instances() {
        let b = ExprBuilder::new();
        let shared = SharedQueryCache::new();
        let x = b.var("x", Width::W8);
        let lo = b.ult(x.clone(), b.constant(5, Width::W8));
        let hi = b.ult(b.constant(10, Width::W8), x.clone());

        let mut s1 = Solver::new();
        s1.attach_shared_cache(shared.clone());
        assert_eq!(s1.check(&[lo.clone(), hi.clone()]), SatResult::Unsat);

        // A different instance asks a strict superset: answered by the
        // shared subset-UNSAT entry, no SAT-core work.
        let mut s2 = Solver::new();
        s2.attach_shared_cache(shared.clone());
        let extra = b.ne(x, b.constant(7, Width::W8));
        assert_eq!(s2.check(&[lo, hi, extra]), SatResult::Unsat);
        assert_eq!(s2.stats().core_solves, 0);
        assert_eq!(s2.stats().subsumption_hits, 1);
        assert_eq!(shared.stats().subsumption_hits, 1);
    }

    #[test]
    fn check_relevant_slices_by_query_vars() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W8);
        let y = b.var("y", Width::W8);
        let mut p = ConstraintPartition::new();
        p.add(b.ult(x.clone(), b.constant(5, Width::W8)));
        p.add(b.ult(y.clone(), b.constant(5, Width::W8)));

        // Feasibility of a condition on x consults only the x component.
        let eq7 = b.eq(x.clone(), b.constant(7, Width::W8));
        assert_eq!(s.may_be_true_in(&p, &eq7), Some(false));
        let eq2 = b.eq(x.clone(), b.constant(2, Width::W8));
        assert_eq!(s.may_be_true_in(&p, &eq2), Some(true));
        let lt10 = b.ult(x.clone(), b.constant(10, Width::W8));
        assert_eq!(s.must_be_true_in(&p, &lt10), Some(true));

        // Concretization slices on the expression's variables.
        let (v, model) = s.concretize_in(&p, &x).unwrap();
        assert!(v < 5);
        assert_eq!(eval(&x, &model).unwrap(), v);

        // Sliced answers agree with the full-set entry points.
        let all = p.all();
        let mut full = Solver::new();
        assert_eq!(full.may_be_true(&all, &eq7), Some(false));
        assert_eq!(full.may_be_true(&all, &eq2), Some(true));
    }

    #[test]
    fn wide_constraint_64_bit() {
        let (b, mut s) = setup();
        let x = b.var("x", Width::W64);
        let c = b.eq(
            b.mul(x.clone(), b.constant(3, Width::W64)),
            b.constant(0x3fff_ffff_ffff_fffd, Width::W64),
        );
        // 3x == 0x3ffffffffffffffd (mod 2^64); x = inverse(3)*rhs.
        match s.check(&[c]) {
            SatResult::Sat(m) => {
                let v = eval(&x, &m).unwrap();
                assert_eq!(v.wrapping_mul(3), 0x3fff_ffff_ffff_fffd);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
