//! A worker process: the in-process explorer's three-phase loop
//! (run / export-overflow / steal-or-park), with every scheduler
//! interaction turned into a lock-step RPC on one TCP stream
//! (DESIGN.md §17).
//!
//! The loop body mirrors `s2e_core::parallel`'s deque worker closely
//! on purpose — same batch claims against a global budget, same
//! halve-when-hungry export heuristic, same reclaim/steal semantics
//! (the coordinator classifies by exporter id). Where the in-process
//! worker touches shared memory, this one sends a frame:
//!
//! * budget claim / refund   → `CLAIM` / `GRANT`
//! * deque push of overflow  → `EXPORT` (states evicted to compact
//!   wire form, fingerprint embedded and re-verified on rehydration)
//! * deque pop / park        → `NEED_WORK`, blocking until `ASSIGN`
//!   or `FINISHED`
//! * shared query cache      → periodic `CACHE_SYNC`/`CACHE_DELTA`
//!   batches against the coordinator's master cache
//! * telemetry sampler       → periodic `SNAPSHOT` lines in the
//!   single-worker `s2e-live-v1` schema, relayed into the merged feed
//!
//! Identity across processes needs two namespaces: the expression
//! builder's variable-id namespace and the engine's state-id
//! namespace, both keyed by the worker index exactly as the in-process
//! tiers do. Fresh ids minted by different processes can then never
//! collide when a state (whose journal replays variable allocation)
//! migrates.

use crate::guest;
use crate::proto::{
    self, Claim, ExportBatch, Grant, Hello, JobSpec, Refund, WorkerDone,
};
use s2e_core::wire::{decode_compact, encode_compact};
use s2e_core::{Engine, ExecState, SharedEngineContext};
use s2e_expr::wire::{bad_data, WireReader};
use s2e_obs::{snapshot_line, MetricsRegistry, MetricsSnapshot};
use std::io;
use std::net::TcpStream;
use std::time::Instant;

/// Cache-sync cadence, in claim batches. Syncing costs one round trip
/// plus an export scan under the cache lock; every 8 batches keeps the
/// cross-process hit rate close to the shared-memory tier's without
/// making the coordinator a per-query bottleneck.
const CACHE_SYNC_EVERY: u64 = 8;

/// Runs one worker process against the coordinator at `addr`.
/// Blocks until the coordinator declares the job finished.
pub fn run_worker(addr: &str, worker: usize) -> io::Result<()> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    proto::send(&mut conn, proto::T_HELLO, &Hello { worker: worker as u32 }.encode())?;
    let spec = JobSpec::decode(&proto::recv(&mut conn, proto::T_JOB, "job")?)?;

    // A process-local shared context: this worker's engine is the only
    // user, but the namespaced builder and the query cache behave
    // exactly as one shard of the in-process exploration.
    let shared = SharedEngineContext::new();
    shared.builder.set_var_id_namespace(worker);
    let (machine, config) = guest::build(&spec.guest, spec.model)?;
    let mut engine = Engine::with_shared(machine, config, &shared);
    engine.set_state_id_namespace(worker);
    guest::inject(&mut engine, &spec.guest)?;
    engine.set_retain_terminated(spec.collect_digests);
    if worker != 0 {
        // Every worker builds the same root; only worker 0 explores it.
        engine.drain_states();
    }

    let telemetry =
        (spec.snapshot_every > 0).then(|| MetricsRegistry::new(1, &s2e_core::counter_schema()));
    if let Some(reg) = &telemetry {
        engine.set_telemetry(Some(reg.handle(0)));
    }
    let started = Instant::now();
    let mut snap_seq = 0u64;
    let mut snap_prev: Option<(MetricsSnapshot, u64)> = None;

    let mut cache_mark = 0u64;
    let mut refund = 0u64;
    let mut exports_total = 0u64;
    let mut batches = 0u64;

    'outer: loop {
        // Phase 1: run local work, batch by batch against the global
        // budget.
        while engine.live_count() > 0 {
            proto::send(
                &mut conn,
                proto::T_CLAIM,
                &Claim { refund, batch: spec.batch }.encode(),
            )?;
            refund = 0;
            let grant = Grant::decode(&proto::recv(&mut conn, proto::T_GRANT, "grant")?)?;
            if grant.steps == 0 {
                // Budget spent: the coordinator has marked the run done.
                break 'outer;
            }
            let mut used = 0;
            while used < grant.steps {
                if engine.step().is_none() {
                    break;
                }
                used += 1;
            }
            refund = grant.steps - used;
            batches += 1;

            if batches % CACHE_SYNC_EVERY == 0 {
                cache_mark = sync_cache(&mut conn, &shared, cache_mark)?;
            }
            if let Some(reg) = &telemetry {
                if batches % spec.snapshot_every == 0 {
                    engine.publish_telemetry();
                    send_snapshot(&mut conn, reg, &started, &mut snap_seq, &mut snap_prev, false)?;
                }
            }

            // Phase 2: export fork overflow. `hungry` is the starvation
            // count the coordinator piggybacked on the grant — the same
            // instantaneous signal the in-process heuristic reads, one
            // round trip stale.
            let live = engine.live_count();
            let keep = if grant.hungry > 0 && live > 1 {
                (live + 1) / 2
            } else if live > spec.max_local_states as usize {
                spec.max_local_states as usize
            } else {
                live
            };
            if keep < live {
                let surplus = engine.detach_overflow(keep);
                let states = pack_surplus(&mut engine, surplus)?;
                exports_total += states.len() as u64;
                proto::send(&mut conn, proto::T_EXPORT, &ExportBatch { states }.encode())?;
                proto::recv(&mut conn, proto::T_EXPORT_ACK, "export ack")?;
            }
        }

        // Phase 3: local frontier dry — ask for work and block. The
        // coordinator parks us server-side; no polling.
        proto::send(&mut conn, proto::T_NEED_WORK, &Refund { refund }.encode())?;
        refund = 0;
        let (ty, payload) = crate::frame::read_frame(&mut conn)?;
        match ty {
            proto::T_ASSIGN => {
                let a = proto::Assign::decode(&payload)?;
                let state = unpack_assigned(&mut engine, &a.state)?;
                engine.attach_state(state);
            }
            proto::T_FINISHED => break 'outer,
            other => {
                return Err(bad_data(format!(
                    "expected assignment or finished, got frame type {other}"
                )))
            }
        }
    }

    // Last cache delta and final snapshot, then the report.
    cache_mark = sync_cache(&mut conn, &shared, cache_mark)?;
    let _ = cache_mark;
    if let Some(reg) = &telemetry {
        engine.publish_telemetry();
        send_snapshot(&mut conn, reg, &started, &mut snap_seq, &mut snap_prev, true)?;
    }
    let done = build_report(&engine, worker as u32, refund, exports_total);
    proto::send(&mut conn, proto::T_DONE, &done.encode())?;
    proto::recv(&mut conn, proto::T_DONE_ACK, "done ack")?;
    Ok(())
}

/// Evicts each surplus state to compact form (replay-verified, so the
/// embedded fingerprint is known-good before it crosses the wire) and
/// encodes it for shipping.
fn pack_surplus(engine: &mut Engine, surplus: Vec<ExecState>) -> io::Result<Vec<Vec<u8>>> {
    let mut states = Vec::with_capacity(surplus.len());
    for s in surplus {
        let compact = engine.evict_state(s, true);
        let mut buf = Vec::new();
        encode_compact(&compact, &mut buf)?;
        states.push(buf);
    }
    Ok(states)
}

/// Decodes and rehydrates an assigned compact state. Rehydration
/// replays the journal on this engine and asserts the exporter's
/// fingerprint — the end-to-end integrity check for the wire transit.
fn unpack_assigned(engine: &mut Engine, bytes: &[u8]) -> io::Result<ExecState> {
    let mut r = WireReader::new(bytes);
    let compact = decode_compact(&mut r)?;
    if !r.is_empty() {
        return Err(bad_data("trailing bytes after assigned compact state"));
    }
    Ok(engine.rehydrate(compact))
}

/// One cache round trip: ship local entries newer than `mark`, import
/// the coordinator's delta, and move the mark past everything now
/// resident — the worker is single-threaded between syncs, so nothing
/// it later exports can be an echo of an import.
fn sync_cache(
    conn: &mut TcpStream,
    shared: &SharedEngineContext,
    mark: u64,
) -> io::Result<u64> {
    let (mine, _) = shared.query_cache.export_since(mark);
    proto::send(conn, proto::T_CACHE_SYNC, &proto::encode_cache_batch(&mine))?;
    let delta =
        proto::decode_cache_batch(&proto::recv(conn, proto::T_CACHE_DELTA, "cache delta")?)?;
    shared.query_cache.import(delta);
    Ok(shared.query_cache.next_stamp())
}

/// Emits one `s2e-live-v1` snapshot line for the relay.
fn send_snapshot(
    conn: &mut TcpStream,
    reg: &MetricsRegistry,
    started: &Instant,
    seq: &mut u64,
    prev: &mut Option<(MetricsSnapshot, u64)>,
    is_final: bool,
) -> io::Result<()> {
    let wall_ns = started.elapsed().as_nanos() as u64;
    let snap = reg.snapshot();
    let line = snapshot_line(
        *seq,
        wall_ns,
        1,
        &snap,
        prev.as_ref().map(|(s, w)| (s, *w)),
        is_final,
    )
    .render();
    *seq += 1;
    *prev = Some((snap, wall_ns));
    proto::send(conn, proto::T_SNAPSHOT, &proto::encode_line(&line))?;
    proto::recv(conn, proto::T_SNAPSHOT_ACK, "snapshot ack")?;
    Ok(())
}

/// Folds the engine's end-of-run numbers into the wire report.
fn build_report(engine: &Engine, worker: u32, refund: u64, exports: u64) -> WorkerDone {
    let stats = engine.stats();
    let solver = engine.solver_stats();
    let mut path_digests: Vec<u64> = engine
        .terminated_states()
        .iter()
        .map(ExecState::path_digest)
        .collect();
    path_digests.sort_unstable();
    let mut covered_blocks: Vec<u32> = engine.seen_blocks().iter().copied().collect();
    covered_blocks.sort_unstable();
    WorkerDone {
        worker,
        refund,
        paths: engine.terminated().len() as u64,
        exports,
        path_digests,
        covered_blocks,
        forks: stats.forks,
        states_created: stats.states_created,
        states_terminated: stats.states_terminated,
        blocks_executed: stats.blocks_executed,
        instrs_concrete: stats.instrs_concrete,
        instrs_symbolic: stats.instrs_symbolic,
        concretizations: stats.concretizations,
        evictions: stats.evictions,
        rehydrations: stats.rehydrations,
        replayed_instrs: stats.replayed_instrs,
        journal_bytes: stats.journal_bytes,
        solver_queries: solver.queries,
        shared_query_hits: solver.shared_hits,
        solver_core_solves: solver.core_solves,
    }
}
