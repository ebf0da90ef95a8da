//! Layer probes of the traced run: the solver query replay and the
//! migration round trip. Both call public functions of one layer at a
//! time, on inputs harvested from a real exploration, and time each
//! call from outside.

use crate::spans::{durations_of, Tracer};
use s2e_core::wire::{decode_compact, encode_compact};
use s2e_core::{Engine, ExecState};
use s2e_dist::frame::{read_frame, write_frame};
use s2e_dist::proto::T_ASSIGN;
use s2e_expr::wire::WireReader;
use s2e_expr::{node_count, ExprRef};
use s2e_prng::SplitMix64;
use s2e_solver::bitblast::BitBlaster;
use s2e_solver::sat::{SatOutcome, SatSolver};
use s2e_solver::{independence, QueryKind, SatResult, Solver, SolverConfig};
use std::time::Instant;

/// Paths drawn for the replay, and the longest constraint prefix
/// replayed per path (the last ones: deep queries are the costly ones).
const REPLAY_PATHS: usize = 16;
const REPLAY_PREFIXES: usize = 24;

/// States pushed through the migration round trip.
const MIGRATION_STATES: usize = 48;
/// Steps between two overflow harvests.
const MIGRATION_STRIDE: u64 = 64;

/// The replayed query population, Sharma-style: sizes, verdicts and a
/// time distribution per solver stage, not one average.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    pub paths: usize,
    pub sat: u64,
    pub unsat: u64,
    pub unknown: u64,
    pub partition_ns: Vec<u64>,
    pub blast_ns: Vec<u64>,
    pub sat_ns: Vec<u64>,
    pub cold_ns: Vec<u64>,
    pub warm_ns: Vec<u64>,
    pub clauses: Vec<u64>,
    pub vars: Vec<u64>,
    /// Expression nodes per query, summed over its constraints.
    pub nodes: Vec<u64>,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    /// Queries where the raw SAT core, the cold solver and the warm
    /// solver did not all reach the same verdict.
    pub disagreements: u64,
}

impl ReplayReport {
    pub fn queries(&self) -> u64 {
        self.sat + self.unsat + self.unknown
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

fn replay_query(query: &[ExprRef], warm: &mut Solver, max_conflicts: u64, r: &mut ReplayReport) {
    r.nodes
        .push(query.iter().map(|c| node_count(c) as u64).sum());

    let t = Instant::now();
    let parts = independence::partition(query);
    r.partition_ns.push(elapsed_ns(t));
    std::hint::black_box(parts);

    let mut sat = SatSolver::new();
    let mut blaster = BitBlaster::new(&mut sat);
    let t = Instant::now();
    for c in query {
        blaster.assert_true(&mut sat, c);
    }
    r.blast_ns.push(elapsed_ns(t));
    r.vars.push(sat.num_vars() as u64);
    r.clauses.push(sat.num_clauses() as u64);
    let t = Instant::now();
    let core = sat.solve(max_conflicts);
    r.sat_ns.push(elapsed_ns(t));
    r.conflicts += sat.conflicts();
    r.decisions += sat.decisions();
    r.propagations += sat.propagations();

    let mut cold = Solver::new();
    let t = Instant::now();
    let cold_verdict = cold.check_kind(query, QueryKind::Feasibility);
    r.cold_ns.push(elapsed_ns(t));
    let t = Instant::now();
    let warm_verdict = warm.check_kind(query, QueryKind::Feasibility);
    r.warm_ns.push(elapsed_ns(t));

    let class = |v: &SatResult| match v {
        SatResult::Sat(_) => SatOutcome::Sat,
        SatResult::Unsat => SatOutcome::Unsat,
        SatResult::Unknown => SatOutcome::Unknown,
    };
    match core {
        SatOutcome::Sat => r.sat += 1,
        SatOutcome::Unsat => r.unsat += 1,
        SatOutcome::Unknown => r.unknown += 1,
    }
    if class(&cold_verdict) != core || class(&warm_verdict) != core {
        r.disagreements += 1;
    }
}

/// Replays the queries behind a seeded sample of terminated paths:
/// every replayed constraint prefix `c1..ci` goes through
/// `independence::partition`, a fresh bit-blast + SAT search, a cold
/// `Solver` (fresh per query) and a warm one (one per path, prefixes
/// in path order, as the engine's solver meets them).
pub fn replay_queries(states: &[ExecState], seed: u64) -> ReplayReport {
    let max_conflicts = SolverConfig::default().max_conflicts;
    let mut candidates: Vec<&ExecState> = states
        .iter()
        .filter(|s| !s.constraints.is_empty())
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut report = ReplayReport::default();
    while report.paths < REPLAY_PATHS && !candidates.is_empty() {
        let pick = rng.below(candidates.len() as u64) as usize;
        let state = candidates.swap_remove(pick);
        report.paths += 1;
        let cs = &state.constraints;
        let mut warm = Solver::new();
        for i in cs.len().saturating_sub(REPLAY_PREFIXES) + 1..=cs.len() {
            replay_query(&cs[..i], &mut warm, max_conflicts, &mut report);
        }
    }
    report
}

/// Per-state costs of moving a state between workers.
#[derive(Clone, Debug, Default)]
pub struct MigrationReport {
    pub evict_ns: Vec<u64>,
    pub rehydrate_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    pub write_frame_ns: Vec<u64>,
    pub read_frame_ns: Vec<u64>,
    /// Resident bytes of the compact form (journal plus header).
    pub compact_bytes: Vec<u64>,
    /// Encoded bytes on the wire, checkpoint included.
    pub wire_bytes: Vec<u64>,
}

/// Drives `engine` and sends its fork overflow through the whole
/// migration round trip, one stage per span: evict (fingerprinted, so
/// rehydrate asserts bit-identity), encode, frame out, frame in,
/// decode, rehydrate. Each state is attached again afterwards, so the
/// exploration goes on as if nothing had moved.
pub fn migration_round_trips(
    engine: &mut Engine,
    tracer: &mut Tracer,
) -> Result<MigrationReport, String> {
    let first = tracer.spans().len();
    let mut report = MigrationReport::default();
    let mut moved = 0;
    'harvest: while moved < MIGRATION_STATES {
        for _ in 0..MIGRATION_STRIDE {
            if engine.step().is_none() {
                break 'harvest;
            }
        }
        if engine.live_count() < 2 {
            continue;
        }
        for state in engine.detach_overflow(1) {
            let compact = tracer.scope("evict_state", || engine.evict_state(state, true));
            report.compact_bytes.push(compact.resident_bytes() as u64);
            let mut payload = Vec::new();
            tracer
                .scope("encode_compact", || encode_compact(&compact, &mut payload))
                .map_err(|e| format!("encode_compact: {e}"))?;
            report.wire_bytes.push(payload.len() as u64);
            let mut wire = Vec::new();
            tracer
                .scope("write_frame", || write_frame(&mut wire, T_ASSIGN, &payload))
                .map_err(|e| format!("write_frame: {e}"))?;
            let (_, received) = tracer
                .scope("read_frame", || read_frame(&mut wire.as_slice()))
                .map_err(|e| format!("read_frame: {e}"))?;
            let mut reader = WireReader::new(&received);
            let back = tracer
                .scope("decode_compact", || decode_compact(&mut reader))
                .map_err(|e| format!("decode_compact: {e}"))?;
            if !reader.is_empty() {
                return Err("trailing bytes after a decoded compact state".to_string());
            }
            let state = tracer.scope("rehydrate", || engine.rehydrate(back));
            engine.attach_state(state);
            moved += 1;
        }
    }
    let spans = &tracer.spans()[first..];
    report.evict_ns = durations_of(spans, "evict_state");
    report.encode_ns = durations_of(spans, "encode_compact");
    report.write_frame_ns = durations_of(spans, "write_frame");
    report.read_frame_ns = durations_of(spans, "read_frame");
    report.decode_ns = durations_of(spans, "decode_compact");
    report.rehydrate_ns = durations_of(spans, "rehydrate");
    Ok(report)
}
