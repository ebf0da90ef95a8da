//! The S2E platform core: selective symbolic execution with pluggable
//! consistency models, path selectors, and analyzers.
//!
//! This crate is the reproduction of the paper's central contribution
//! (§2–§5): an engine that runs a whole guest machine, executes most
//! instructions concretely, dispatches instructions that touch symbolic
//! data to an embedded symbolic executor, forks execution states at
//! symbolic branches, and converts data back and forth across the
//! unit/environment boundary according to a configurable *execution
//! consistency model*.
//!
//! # Quick start
//!
//! ```
//! use s2e_core::{ConsistencyModel, Engine, EngineConfig};
//! use s2e_core::selectors::make_reg_symbolic;
//! use s2e_vm::asm::Assembler;
//! use s2e_vm::isa::reg;
//! use s2e_vm::machine::Machine;
//!
//! // A guest with one data-dependent branch.
//! let mut a = Assembler::new(0x2000);
//! a.movi(reg::R1, 5);
//! a.bltu(reg::R0, reg::R1, "small");
//! a.halt_code(1);
//! a.label("small");
//! a.halt_code(2);
//! let prog = a.finish();
//!
//! let mut m = Machine::new();
//! m.load(&prog);
//! let mut engine = Engine::new(m, EngineConfig::with_model(ConsistencyModel::ScSe));
//! // Make r0 symbolic: both sides of the branch become reachable.
//! let id = engine.sole_state().unwrap();
//! let b = engine.builder_arc();
//! make_reg_symbolic(engine.state_mut(id).unwrap(), &b, reg::R0, "input");
//! engine.run(1_000);
//! // Two paths, exit codes 1 and 2.
//! assert_eq!(engine.terminated().len(), 2);
//! ```

pub mod analyzers;
pub mod config;
pub mod deque;
pub mod engine;
pub mod exec;
pub mod journal;
pub mod l1;
pub mod observe;
pub mod parallel;
pub mod plugin;
pub mod search;
pub mod selectors;
pub mod state;
pub mod stats;
pub mod telemetry;
pub mod threaded;
pub mod wire;

pub use config::{Annotation, CodeRanges, ConsistencyModel, EngineConfig};
pub use engine::{
    Engine, IndirectRefiner, RefinementUpdate, RunSummary, SharedEngineContext, StepOutcome,
    StepReport, StopReason,
};
pub use journal::{Journal, JournalEvent, ReplayCursor};
pub use observe::build_run_report;
pub use parallel::{
    explore_parallel, explore_parallel_live, explore_static, merge_coverage,
    partition_constraint, EvictionPolicy, ParallelConfig, ParallelReport, SchedulerKind,
    WorkerContext, WorkerReport,
};
pub use plugin::{BugKind, BugReport, ExecCtx, MachineSnapshot, MemAccess, Plugin, PortAccess};
pub use state::{CompactState, ExecState, StateId, TerminationReason};
pub use stats::EngineStats;
pub use telemetry::counter_schema;
