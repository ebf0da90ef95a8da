//! Engine-wide statistics.
//!
//! These counters back the paper's quantitative evaluation: concrete vs
//! symbolic instruction mix (§6.2's overhead discussion), fork and state
//! counts, and the memory high-watermark reported in Fig. 8.

use std::time::Duration;

s2e_obs::counters! {
    /// Counters accumulated by the engine across all states. Merging
    /// parallel workers' stats sums the additive rows and takes the
    /// maximum of the watermarks: `max_live_states` and
    /// `memory_watermark_bytes` are per-engine peaks, so the merged
    /// value is the largest any single worker saw. The live
    /// `engine.seen_blocks` counter and `live_states` gauge have no row
    /// here; `Engine::publish_telemetry` writes them by hand.
    #[derive(Clone, Debug, Default)]
    pub struct EngineStats in "engine" {
        /// States created (initial + forked).
        states_created: u64 = Sum,
        /// States terminated.
        states_terminated: u64 = Sum,
        /// Fork events.
        forks: u64 = Sum,
        /// Translation blocks executed.
        blocks_executed: u64 = Sum,
        /// Instructions executed on the concrete fast path.
        instrs_concrete: u64 = Sum,
        /// Instructions that touched symbolic data (dispatched to the
        /// embedded symbolic executor).
        instrs_symbolic: u64 = Sum,
        /// Translation blocks executed on the lean dispatch path (statically
        /// proven concrete-only by the `s2e-analysis` pre-pass).
        concrete_only_blocks: u64 = Sum,
        /// Instructions whose per-operand symbolic check was statically
        /// discharged (subset of `instrs_concrete`).
        lean_instrs: u64 = Sum,
        /// Symbolic ALU results never materialized because the destination
        /// register was statically dead.
        dead_writes_skipped: u64 = Sum,
        /// Branch feasibility probes skipped because the block is statically
        /// fork-free (two per skipped branch resolution).
        feasibility_probes_skipped: u64 = Sum,
        /// Memory accesses with a symbolic address (solver-backed page
        /// handling).
        symbolic_ptr_accesses: u64 = Sum,
        /// Concretization events (symbolic→concrete conversions).
        concretizations: u64 = Sum,
        /// Interrupts delivered.
        interrupts_delivered: u64 = Sum,
        /// Syscall traps.
        syscalls: u64 = Sum,
        /// Indirect control transfers retired through `exec_indirect`
        /// (`jmpr`/`callr`/`ret`) while a prediction table was installed.
        indirect_retirements: u64 = Sum,
        /// Retired indirect targets the static analysis predicted.
        indirect_targets_resolved: u64 = Sum,
        /// Retired indirect targets at sites known to escape the analyzed
        /// region (unmatched `ret`s leaving the unit).
        indirect_targets_escaped: u64 = Sum,
        /// Retired indirect targets the static CFG did not predict — each
        /// one is fed back through incremental re-analysis.
        indirect_targets_discovered: u64 = Sum,
        /// Live states evicted to compact `{checkpoint, journal}` form (§13).
        evictions: u64 = Sum,
        /// Compact states rehydrated by deterministic replay.
        rehydrations: u64 = Sum,
        /// Instructions re-executed during rehydration replay (not new
        /// exploration work; excluded from the instruction-mix counters).
        replayed_instrs: u64 = Sum,
        /// Total encoded journal bytes shipped into compact states.
        journal_bytes: u64 = Sum,
        /// Maximum number of simultaneously live states.
        max_live_states: usize = Max,
        /// High-watermark of estimated private state memory across live
        /// states, in bytes (Fig. 8's metric).
        memory_watermark_bytes: usize = Max,
        /// CPU time spent in [`crate::engine::Engine::step`], summed across
        /// engines when merged. On a parallel run this exceeds wall-clock
        /// time (workers run concurrently); wall-clock is reported
        /// separately by `ParallelReport::wall_time`.
        cpu_time: Duration = Sum,
    }
}

impl EngineStats {
    /// Total instructions executed.
    pub fn total_instrs(&self) -> u64 {
        self.instrs_concrete + self.instrs_symbolic
    }

    /// Ratio of concretely-executed instructions (the paper reports ~4
    /// orders of magnitude more concrete than symbolic for ping).
    pub fn concrete_ratio(&self) -> f64 {
        let total = self.total_instrs();
        if total == 0 {
            0.0
        } else {
            self.instrs_concrete as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = EngineStats::default();
        assert_eq!(s.concrete_ratio(), 0.0);
        s.instrs_concrete = 3;
        s.instrs_symbolic = 1;
        assert_eq!(s.total_instrs(), 4);
        assert!((s.concrete_ratio() - 0.75).abs() < 1e-12);
    }
}
