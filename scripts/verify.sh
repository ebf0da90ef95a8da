#!/usr/bin/env bash
# Tier-1 verification, fully offline, plus the std-only dependency gate
# (DESIGN.md §7). Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Gate 1: no Cargo.toml may carry a non-path (registry) dependency.
# Path deps are written `foo = { path = ... }` / `foo.workspace = true`;
# registry deps need a version requirement, which is what we reject:
#   foo = "1.2"            (bare version string)
#   foo = { version = .. } (inline table with version)
# `[workspace.package] version = "..."` (the crates' own version) and
# `version.workspace = true` stay legal.
fail=0
while IFS= read -r manifest; do
    if grep -nE '^[A-Za-z0-9_-]+ *= *"[0-9^~<>=*]' "$manifest" \
       | grep -vE '^[0-9]+:(version|edition|rust-version|resolver) *=' ; then
        echo "error: $manifest declares a registry dependency (bare version)" >&2
        fail=1
    fi
    if grep -nE '^[A-Za-z0-9_-]+ *= *\{[^}]*version' "$manifest"; then
        echo "error: $manifest declares a registry dependency (inline version)" >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')
if [ "$fail" -ne 0 ]; then
    echo "std-only policy violated: only path dependencies are allowed" >&2
    exit 1
fi
echo "dependency gate: ok (path-only)"

# Gate 2: tier-1 build and tests of every workspace crate, offline —
# the registry must never be needed.
cargo build --release --offline
cargo test -q --offline --workspace

# Gate 3: solver-stack smoke — on a fixed seeded corpus the sliced +
# subsuming configuration must agree with the exact-match baseline and
# issue no more SAT-core solves (exits nonzero otherwise).
cargo run -q --release --offline -p bench --bin solver_opt -- --smoke

# Gate 4: static pre-pass smoke — a warnings-clean build, then the
# dataflow ablation under a small budget: identical path counts and
# block coverage with the pre-pass on vs off, every analysis within its
# worklist iteration bound (exits nonzero otherwise).
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
cargo run -q --release --offline -p bench --bin static_prepass -- --smoke

# Gate 5: observability smoke — identical path counts across the
# baseline/off/on arms (recording must never perturb exploration) and a
# well-formed unified run report. Smoke mode skips the 2% overhead
# assertion (CI containers are too noisy); the emitted report must parse
# back and carry a phase breakdown plus per-worker timelines, which the
# trace-report renderer then consumes as a final self-check.
cargo run -q --release --offline -p bench --bin obs_overhead -- --smoke
test -s results/run_report.json
cargo run -q --release --offline -p s2e-tools --bin trace-report -- \
    results/run_report.json > /dev/null

# Gate 6: scheduler-ablation smoke — the per-worker-deque scheduler and
# the injector-queue baseline must explore the identical path set (same
# count, same covered blocks) at every worker count, with state
# conservation (exports == steals + reclaims + leftover) holding on
# every run; emits results/parallel_scaling.json with both arms (exits
# nonzero otherwise).
cargo run -q --release --offline -p bench --bin parallel_scaling -- --smoke
test -s results/parallel_scaling.json

# Gate 7: replay-identity smoke — on the 91C111-LC corpus, aggressive
# eviction (every exported state shipped as compact
# `{checkpoint, journal}` and rehydrated by deterministic replay, with
# per-state fingerprint verification on) must explore the identical
# path set as live shipping while holding materially fewer resident
# bytes in scheduler queues; emits results/fig8_checkpoint.json (exits
# nonzero otherwise).
cargo run -q --release --offline -p bench --bin fig8_consistency_memory -- --smoke
test -s results/fig8_checkpoint.json

# Gate 8: DBT dispatch smoke — superblock chaining + direct-threaded
# dispatch + the per-worker L1 front must be a pure optimization: the
# chained arm terminates the bit-identical path sequence, fork count,
# and block coverage as the unchained arm on both corpora, the chained
# arm actually forms/traverses chains and serves lookups from the L1,
# and under explore_parallel the majority of steady-state lookups never
# touch the shared-cache mutex; emits results/dbt_dispatch.json (exits
# nonzero otherwise).
cargo run -q --release --offline -p bench --bin dbt_dispatch -- --smoke
test -s results/dbt_dispatch.json

# Gate 9: interprocedural-refinement smoke — the value-range pipeline
# must be a pure optimization (identical path counts and block coverage
# across off/base/refined on both corpora) while provably tightening
# the static model: UNKNOWN_SINK edges drop, the refined arm
# instruments strictly fewer instructions than the base pre-pass, and
# every dynamically retired indirect target is classified (resolved /
# escaped / discovered — nothing silently absorbed); exits nonzero
# otherwise.
cargo run -q --release --offline -p bench --bin static_refine -- --smoke

# Gate 10: live-telemetry smoke — the sharded registry, delta sampler,
# and scrape endpoint must never perturb exploration: bit-identical
# path sets across off/sampling/endpoint arms on both schedulers, and
# the final run_live.jsonl line's cumulative counters must exactly
# equal their RunReport twins (plus the documented composites). Smoke
# mode skips the 2% overhead assertion (single-core CI noise); emits
# results/telemetry_overhead.json and results/run_live.jsonl (exits
# nonzero otherwise).
cargo run -q --release --offline -p bench --bin telemetry_overhead -- --smoke
test -s results/telemetry_overhead.json
test -s results/run_live.jsonl

# Gate 11: distributed-identity smoke — a coordinator plus two worker
# *processes* on localhost must explore the bit-identical path-digest
# multiset, fork count, and covered-block set as in-process
# `explore_parallel` on the 91C111-LC corpus, with the global state
# ledger conserved (exports == steals + reclaims + leftover, leftover 0
# on an exhaustive run) and every relayed telemetry snapshot reaching
# the merged feed; emits results/dist_explore.json (exits nonzero
# otherwise).
cargo run -q --release --offline -p bench --bin dist_explore -- --smoke
test -s results/dist_explore.json

# Gate 12: the repo benchmark's yardstick — one exploration per
# workload with every pinned count, reason histogram and digest fold in
# benchmark/expected.json asserted (exits nonzero on any difference),
# then the benchmark package's own tests.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check
cargo test --offline --manifest-path benchmark/Cargo.toml
echo "verify: ok"
