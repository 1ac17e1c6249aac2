#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite — the exact
# sequence ROADMAP.md names as the bar every change must keep green.
#
#   $ scripts/check.sh            # RelWithDebInfo build + ctest
#   $ scripts/check.sh --asan     # ASan/UBSan build, runs store, query,
#                                 # planner, property, rng-seeding, wiring,
#                                 # routing-table, P-Grid peer, maintenance,
#                                 # GridVine peer, dispatch-branch, executor,
#                                 # serving, fault, event-engine, trace and
#                                 # selforg tests
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

if [[ "${1:-}" == "--asan" ]]; then
  cmake -B build-san -S . -DGV_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-san -j "$(nproc)" --target triple_store_test query_test \
    planner_test property_test rng_test pgrid_builder_test compact_peer_test \
    routing_table_test pgrid_peer_test maintenance_test gridvine_peer_test \
    dispatch_branch_test executor_test serving_test churn_test \
    retry_policy_test network_test conjunctive_chaos_test simulator_test \
    sharded_determinism_test sharded_soak_test trace_test \
    incremental_assessor_test self_organizer_test embedding_test
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
  # The next-hop picks index over a ref level narrowed by an avoid set.
  ./build-san/tests/routing_table_test
  # The retrieve responder compares caller-supplied value prefixes against
  # arbitrary stored bytes.
  ./build-san/tests/pgrid_peer_test
  # Maintenance drives the request path under churn: refs evicted and
  # re-adopted while requests are pending.
  ./build-san/tests/maintenance_test
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
  # The event engines: the heap's slot pool and the keyed engine's run loop
  # (callables moved out before they fire, deliveries that re-enter the
  # transport, global tasks that schedule), and the span ring.
  ./build-san/tests/simulator_test
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
