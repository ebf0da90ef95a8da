//! The benchmark's contract, as `BENCHMARK.json` at the repo root
//! declares it: metric names, units, directions and bounds. A test
//! holds the two together.

/// `run_seconds`, for runs that name no `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the baseline's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// Reported by every untraced pass, in this order.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("explore_ms", "ms", true, 0.10),
    end_to_end("paths_per_s", "1/s", false, 0.10),
    end_to_end("guest_instrs_per_s", "1/s", false, 0.10),
    end_to_end("peak_rss_mb", "MB", true, 0.10),
    end_to_end("setup_s", "s", true, 0.20),
];

/// A per-layer metric; these carry no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn per_layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
    }
}

/// Reported by every traced pass, in this order. One that does not
/// apply to the workload (a `dist.*` number on a single engine) reads 0.
pub const PER_LAYER: [PerLayer; 62] = [
    per_layer("solver.queries.feasibility", "count", false),
    per_layer("solver.queries.concretize", "count", false),
    per_layer("solver.queries.other", "count", false),
    per_layer("solver.core_solves", "count", false),
    per_layer("solver.cache_hit_ratio", "ratio", true),
    per_layer("solver.timeouts", "count", false),
    per_layer("solver.feasibility_ns", "ns", false),
    per_layer("solver.concretize_ns", "ns", false),
    per_layer("solver.replay_queries", "count", true),
    per_layer("solver.check_cold_ns", "ns", false),
    per_layer("solver.check_cold_ns.p90", "ns", false),
    per_layer("solver.check_warm_ns", "ns", false),
    per_layer("solver.check_warm_ns.p90", "ns", false),
    per_layer("solver.partition_ns", "ns", false),
    per_layer("solver.partition_ns.p90", "ns", false),
    per_layer("solver.blast_ns", "ns", false),
    per_layer("solver.blast_ns.p90", "ns", false),
    per_layer("solver.sat_ns", "ns", false),
    per_layer("solver.sat_ns.p90", "ns", false),
    per_layer("solver.clauses", "count", false),
    per_layer("solver.vars", "count", false),
    per_layer("solver.sat_unsat_ratio", "ratio", true),
    per_layer("expr.nodes_per_query", "count", false),
    per_layer("core.step_ns", "ns", false),
    per_layer("core.phase.translate_share", "ratio", false),
    per_layer("core.phase.concrete_share", "ratio", false),
    per_layer("core.phase.symbolic_share", "ratio", false),
    per_layer("core.phase.solve_share", "ratio", false),
    per_layer("core.phase.fork_share", "ratio", false),
    per_layer("core.phase.migrate_share", "ratio", false),
    per_layer("core.phase.idle_share", "ratio", false),
    per_layer("core.phase.replay_share", "ratio", false),
    per_layer("core.phase.unaccounted_share", "ratio", false),
    per_layer("core.forks", "count", false),
    per_layer("core.exports", "count", false),
    per_layer("core.steals", "count", false),
    per_layer("core.evict_ns", "ns", false),
    per_layer("core.rehydrate_ns", "ns", false),
    per_layer("core.compact_bytes", "bytes", false),
    per_layer("dbt.translate_ns_per_block", "ns", false),
    per_layer("dbt.blocks", "count", false),
    per_layer("dbt.hit_ratio", "ratio", true),
    per_layer("dbt.l1_hit_ratio", "ratio", true),
    per_layer("dbt.chain_entries", "count", true),
    per_layer("dbt.overhead_x", "x", false),
    per_layer("cache.checkpoints_live", "count", false),
    per_layer("vm.ref_instrs_per_s", "1/s", true),
    per_layer("analysis.refined_ms", "ms", false),
    per_layer("analysis.instrumented_instrs", "count", false),
    per_layer("dist.run_job_ms", "ms", false),
    per_layer("dist.spawn_ms", "ms", false),
    per_layer("dist.encode_ns_per_state", "ns", false),
    per_layer("dist.decode_ns_per_state", "ns", false),
    per_layer("dist.write_frame_ns", "ns", false),
    per_layer("dist.read_frame_ns", "ns", false),
    per_layer("dist.bytes_per_state", "bytes", false),
    per_layer("dist.cache_imports", "count", false),
    per_layer("dist.steps_used", "count", false),
    per_layer("tier.par2_speedup_x", "x", true),
    per_layer("tier.dist2_speedup_x", "x", true),
    per_layer("obs.trace_overhead_share", "ratio", false),
    per_layer("obs.traced_explorations", "count", true),
];
