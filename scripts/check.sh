#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite — the exact
# sequence ROADMAP.md names as the bar every change must keep green.
#
#   $ scripts/check.sh            # RelWithDebInfo build + ctest
#   $ scripts/check.sh --asan     # ASan/UBSan build, runs store, query,
#                                 # planner, property, rng-seeding, wiring,
#                                 # P-Grid peer, GridVine peer,
#                                 # dispatch-branch, executor, serving, fault,
#                                 # sharded, trace and selforg tests
#   $ scripts/check.sh --tsan     # TSan build, runs the sharded-engine tests
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

if [[ "${1:-}" == "--tsan" ]]; then
  # ThreadSanitizer over everything that spins up the worker pool: the
  # sharded determinism + chaos suites (real threads at shards 2/4), plus
  # the single-threaded engine tests for the shared seams they exercise.
  cmake --preset tsan
  cmake --build build-tsan -j "$(nproc)" --target sharded_determinism_test \
    sharded_soak_test simulator_test network_test fault_soak_test
  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
  ./build-tsan/tests/sharded_determinism_test
  ./build-tsan/tests/sharded_soak_test
  ./build-tsan/tests/simulator_test
  ./build-tsan/tests/network_test
  # Continuous self-organization on the sharded engine: real worker threads
  # under the organizer's fetch/push traffic at shards 2/4.
  ./build-tsan/tests/fault_soak_test --gtest_filter='SelforgSoakTest.Shard*'
  echo "tsan run clean"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  cmake -B build-san -S . -DGV_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-san -j "$(nproc)" --target triple_store_test query_test \
    planner_test property_test rng_test pgrid_builder_test compact_peer_test \
    pgrid_peer_test gridvine_peer_test dispatch_branch_test executor_test \
    serving_test churn_test retry_policy_test network_test \
    conjunctive_chaos_test sharded_determinism_test sharded_soak_test \
    trace_test incremental_assessor_test self_organizer_test embedding_test
  export ASAN_OPTIONS=detect_leaks=1
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  ./build-san/tests/triple_store_test
  ./build-san/tests/query_test
  ./build-san/tests/planner_test
  ./build-san/tests/property_test
  # Per-peer seed derivation and packed-path wiring: the bit packing and
  # word shifts are what UBSan checks here.
  ./build-san/tests/rng_test
  ./build-san/tests/pgrid_builder_test
  ./build-san/tests/compact_peer_test
  # The retrieve responder compares caller-supplied value prefixes against
  # arbitrary stored bytes.
  ./build-san/tests/pgrid_peer_test
  # Query dispatch/reformulation bookkeeping (pending-query lifetimes).
  ./build-san/tests/gridvine_peer_test
  # Re-entrant paths: a dispatch branch that closes inside its own open step
  # (the issuer answers itself), and an executor that finishes inside
  # ResolveBoundCall — with batching and the service model on too.
  ./build-san/tests/dispatch_branch_test
  ./build-san/tests/executor_test
  ./build-san/tests/serving_test
  # Fault layer (churn, retries, transport faults, the layered selforg chaos
  # run) and the selforg unit binaries (incremental/full differential and
  # property walls). None reads GV_SOAK_SEED, so they run once here rather
  # than per soak seed in CI's fault matrix.
  ./build-san/tests/churn_test
  ./build-san/tests/retry_policy_test
  ./build-san/tests/network_test
  ./build-san/tests/conjunctive_chaos_test
  # The sharded delivery path (lanes on the shared transport policy, the
  # cross-shard mailboxes) and the trace end-op hand-off across the barrier:
  # TSan checks their races, these runs check object lifetimes.
  ./build-san/tests/sharded_determinism_test
  ./build-san/tests/sharded_soak_test
  ./build-san/tests/trace_test
  ./build-san/tests/incremental_assessor_test
  ./build-san/tests/self_organizer_test
  ./build-san/tests/embedding_test
  echo "sanitizer run clean"
  exit 0
fi

cmake -B build -S .
cmake --build build -j "$(nproc)"
cd build && ctest --output-on-failure
