#!/usr/bin/env bash
# CI gate: the tier-1 build + full test suite under the release preset
# (plus a telemetry smoke: RunReport and span-trace artifacts validated by
# scripts/check_run_report.py, the performance ledger's smoke test
# (perfbench/tests/smoke_test.py), and a live observability drill: stats
# scrapes, a merged client+server trace, and the crash flight recorder,
# reconciled by scripts/check_stats.py), then the tier2-sanitize suites
# (fault injection, cancellation, checkpoint streams, negative inputs)
# under ASan + UBSan. Both tiers first verify that every public header in
# src/ is self-contained (compiles standalone with only -I src).
#
#   scripts/ci.sh             # both tiers
#   scripts/ci.sh --tier1     # release build + full ctest only
#   scripts/ci.sh --tier2     # sanitize build + labeled suites only
set -euo pipefail

cd "$(dirname "$0")/.."

run_tier1=1
run_tier2=1
case "${1:-}" in
  --tier1) run_tier2=0 ;;
  --tier2) run_tier1=0 ;;
  "") ;;
  *) echo "usage: scripts/ci.sh [--tier1|--tier2]" >&2; exit 2 ;;
esac

# Every public header must compile on its own: a consumer should be able
# to include any src/**/*.hpp first without hunting for its transitive
# includes. Cheap (-fsyntax-only), so it runs in both tiers.
header_check() {
  echo "== header self-containment: every src/**/*.hpp compiles alone =="
  local cxx="${CXX:-c++}" failed=0 hpp
  while IFS= read -r hpp; do
    if ! "$cxx" -std=c++20 -fsyntax-only -I src -x c++ "$hpp"; then
      echo "not self-contained: $hpp" >&2
      failed=1
    fi
  done < <(find src -name '*.hpp' | sort)
  [[ $failed -eq 0 ]] || exit 1
}

if [[ $run_tier1 -eq 1 ]]; then
  header_check
  echo "== tier 1: release build + full test suite =="
  cmake --preset default
  cmake --build --preset default -j"$(nproc)"
  ctest --preset default

  echo "== tier 1: telemetry smoke (run report + span trace) =="
  smoke_dir=$(mktemp -d)
  # Also reap any daemon a failed drill left behind.
  trap 'jobs -p | xargs -r kill 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
  ./build/bench/table4_runtime --pairs=64 --m=16 --n=64 \
      --json="$smoke_dir/table4.json" > /dev/null
  ./build/examples/fault_drill --campaigns=4 --count=32 \
      --trace="$smoke_dir/drill.trace.json" > /dev/null
  python3 scripts/check_run_report.py \
      "$smoke_dir/table4.json" "$smoke_dir/drill.trace.json"

  echo "== tier 1: overlapped chunk engine smoke (bit-identity gate) =="
  ./build/bench/table4_runtime --pairs=128 --m=16 --n=64 \
      --overlap --chunk-pairs=16 --overlap-depth=3 > /dev/null

  echo "== tier 1: lane-width dispatch matrix (score fingerprint gate) =="
  # SWBPBC_FORCE_LANE_WIDTH drives the whole dispatch through one binary:
  # 64 (the baseline), scalar-wide (the no-SIMD wide fallback, dispatchable
  # on any host), and auto (whatever this CPU probes widest). Scores are
  # bit-identical across widths, so the RunReport fingerprints must match.
  ref_fnv=""
  for lane_width in 64 scalar-wide auto; do
    SWBPBC_FORCE_LANE_WIDTH=$lane_width ./build/examples/database_filter \
        --entries=96 --json="$smoke_dir/filter_$lane_width.json" > /dev/null
    fnv=$(python3 - "$smoke_dir/filter_$lane_width.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))["config"]
print(cfg["scores_fnv"], cfg["hits"])
EOF
)
    echo "  width=$lane_width -> $fnv"
    if [[ -z $ref_fnv ]]; then
      ref_fnv=$fnv
    elif [[ $fnv != "$ref_fnv" ]]; then
      echo "lane-width dispatch is not bit-identical: $fnv != $ref_fnv" >&2
      exit 1
    fi
  done

  echo "== tier 1: protein dispatch matrix (affine+BLOSUM62 fingerprint) =="
  # The same forced-width sweep over the full ScoringScheme path:
  # BLOSUM62 substitution + Gotoh affine gaps, served both in memory and
  # from the pre-transposed store (protein_screen exits nonzero unless the
  # store serve is bit-identical and a scalar-Gotoh spot check passes).
  # Fingerprints must agree across 64-bit lanes, the forced-scalar wide
  # fallback, and whatever auto probes widest on this host.
  protein_ref=""
  for lane_width in 64 scalar-wide auto; do
    SWBPBC_FORCE_LANE_WIDTH=$lane_width ./build/examples/protein_screen \
        --count=96 --db="$smoke_dir/protein_$lane_width.swdb" \
        --json="$smoke_dir/protein_$lane_width.json" > /dev/null
    fnv=$(python3 - "$smoke_dir/protein_$lane_width.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))["config"]
assert cfg["scheme"] == "affine/blosum62", cfg["scheme"]
print(cfg["scores_fnv"], cfg["hits"])
EOF
)
    echo "  width=$lane_width -> $fnv"
    if [[ -z $protein_ref ]]; then
      protein_ref=$fnv
    elif [[ $fnv != "$protein_ref" ]]; then
      echo "protein dispatch is not bit-identical: $fnv != $protein_ref" >&2
      exit 1
    fi
  done

  echo "== tier 1: backend dispatch matrix (force-gate on scores_fnv) =="
  # SWBPBC_FORCE_BACKEND drives the host-engine choice through one
  # binary: bpbc (the paper's bitwise engine), striped (the Farrar
  # lazy-F rival), and auto (the measured cost model picks). The engines
  # are bit-identical, so every fingerprint must equal the ref_fnv the
  # lane-width matrix just pinned on the same workload.
  for backend in bpbc striped auto; do
    SWBPBC_FORCE_BACKEND=$backend ./build/examples/database_filter \
        --entries=96 --json="$smoke_dir/backend_$backend.json" > /dev/null
    fnv=$(python3 - "$smoke_dir/backend_$backend.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))["config"]
print(cfg["scores_fnv"], cfg["hits"])
EOF
)
    echo "  backend=$backend -> $fnv"
    if [[ $fnv != "$ref_fnv" ]]; then
      echo "backend dispatch is not bit-identical: $fnv != $ref_fnv" >&2
      exit 1
    fi
  done
  # The same force sweep over the protein path (affine + BLOSUM62, the
  # striped engine's home turf) against the protein matrix's reference.
  for backend in bpbc striped auto; do
    SWBPBC_FORCE_BACKEND=$backend ./build/examples/protein_screen \
        --count=96 --json="$smoke_dir/protein_backend_$backend.json" \
        > /dev/null
    fnv=$(python3 - "$smoke_dir/protein_backend_$backend.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))["config"]
print(cfg["scores_fnv"], cfg["hits"])
EOF
)
    echo "  backend=$backend -> $fnv"
    if [[ $fnv != "$protein_ref" ]]; then
      echo "protein backend dispatch is not bit-identical:" \
           "$fnv != $protein_ref" >&2
      exit 1
    fi
  done

  echo "== tier 1: forced-backend negative smoke (typed rejection) =="
  # An unparsable override must be a loud typed error naming the
  # variable, never a silent fall-through to some default engine.
  if SWBPBC_FORCE_BACKEND=banana ./build/examples/database_filter \
      --entries=64 > "$smoke_dir/badbackend.out" 2>&1; then
    echo "SWBPBC_FORCE_BACKEND=banana was silently accepted" >&2
    exit 1
  fi
  grep -q "SWBPBC_FORCE_BACKEND" "$smoke_dir/badbackend.out" || {
    echo "rejection does not name SWBPBC_FORCE_BACKEND" >&2
    cat "$smoke_dir/badbackend.out" >&2
    exit 1
  }

  echo "== tier 1: crossover bench smoke (BPBC x striped bit-identity) =="
  # CI sizes: the per-region engine bit-identity and scalar spot-check
  # gates stay armed; the timing-derived dispatcher-agreement gate is
  # skipped (--smoke regions are all noise).
  ./build/bench/ablation_crossover --smoke > /dev/null

  echo "== tier 1: performance ledger smoke (build, metrics, score gate) =="
  # perfbench/ builds its own copy of the libraries from src/, so a
  # library change that breaks the ledger's build, drops a metric, or
  # trips its correctness gate fails here, not in the next benchmark run.
  python3 perfbench/tests/smoke_test.py

  echo "== tier 1: forced-lane-width negative smoke (typed rejection) =="
  # An unparsable override must be a loud typed error, never a silent
  # default width.
  if SWBPBC_FORCE_LANE_WIDTH=banana ./build/examples/database_filter \
      --entries=64 > "$smoke_dir/badwidth.out" 2>&1; then
    echo "SWBPBC_FORCE_LANE_WIDTH=banana was silently accepted" >&2
    exit 1
  fi
  grep -q "SWBPBC_FORCE_LANE_WIDTH" "$smoke_dir/badwidth.out" || {
    echo "rejection does not name SWBPBC_FORCE_LANE_WIDTH" >&2
    cat "$smoke_dir/badwidth.out" >&2
    exit 1
  }

  echo "== tier 1: database store round trip + corruption drill =="
  # Build the store, screen from it clean, then with an injected fault on
  # one shard, and with on-disk rot on another: every run must quarantine
  # only the damaged shard and score bit-identically to the in-memory run
  # (same fingerprint the dispatch matrix just pinned in ref_fnv).
  ./build/examples/database_build --entries=96 \
      --out="$smoke_dir/seqs.swdb" > /dev/null
  for drill in db db-flip db-rot; do
    case $drill in
      db)      args=(--db="$smoke_dir/seqs.swdb") ;;
      db-flip) args=(--db="$smoke_dir/seqs.swdb" --db-flip-shard=1) ;;
      db-rot)  ./build/examples/database_build --entries=96 \
                   --out="$smoke_dir/rot.swdb" --corrupt-shard=0 > /dev/null
               args=(--db="$smoke_dir/rot.swdb") ;;
    esac
    ./build/examples/database_filter --entries=96 "${args[@]}" \
        --json="$smoke_dir/filter_$drill.json" > /dev/null
    read -r scores hits quarantined < <(python3 - \
        "$smoke_dir/filter_$drill.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))["config"]
print(cfg["scores_fnv"], cfg["hits"], cfg["db_shards_quarantined"])
EOF
)
    fnv="$scores $hits"
    echo "  $drill -> $fnv (quarantined=$quarantined)"
    if [[ $fnv != "$ref_fnv" ]]; then
      echo "db-served scores are not bit-identical: $fnv != $ref_fnv" >&2
      exit 1
    fi
    case $drill in
      db)      want=0 ;;
      *)       want=1 ;;
    esac
    if [[ $quarantined != "$want" ]]; then
      echo "$drill: expected $want quarantined shard(s), got $quarantined" >&2
      exit 1
    fi
  done

  # A store built for a different batch must be refused with a typed
  # DB_MISMATCH, not screened against the wrong planes.
  ./build/examples/database_build --entries=32 \
      --out="$smoke_dir/other.swdb" > /dev/null
  if ./build/examples/database_filter --entries=96 \
      --db="$smoke_dir/other.swdb" > "$smoke_dir/mismatch.out" 2>&1; then
    echo "mismatched store was silently accepted" >&2
    exit 1
  fi
  grep -q "DB_MISMATCH" "$smoke_dir/mismatch.out" || {
    echo "mismatched store not rejected with DB_MISMATCH" >&2
    cat "$smoke_dir/mismatch.out" >&2
    exit 1
  }

  # A missing store is a typed error plus a usage hint, not a bare errno.
  if ./build/examples/database_filter --entries=96 \
      --db="$smoke_dir/does_not_exist.swdb" \
      > "$smoke_dir/missingdb.out" 2>&1; then
    echo "missing store was silently accepted" >&2
    exit 1
  fi
  grep -q "hint: --db expects a store" "$smoke_dir/missingdb.out" || {
    echo "missing store rejection carries no usage hint" >&2
    cat "$smoke_dir/missingdb.out" >&2
    exit 1
  }

  echo "== tier 1: daemon smoke (fault-injected serve, drain, shed) =="
  sock="$smoke_dir/daemon.sock"
  journal="$smoke_dir/daemon.journal"
  # Serve under transport fault injection: torn/flipped/dropped/stalled
  # response frames. The client must retry through all of it and end with
  # scores bit-identical to the direct in-process sw::screen reference.
  ./build/examples/screen_serve --socket="$sock" --journal="$journal" \
      --lane-group=8 --linger-ms=1 --fault-seed=42 --tear-prob=0.2 \
      --flip-prob=0.2 --disconnect-prob=0.15 --stall-prob=0.1 --stall-ms=2 \
      > "$smoke_dir/serve1.log" 2>&1 &
  serve_pid=$!
  ./build/examples/screen_client --socket="$sock" --requests=8 --pairs=2 \
      --m=8 --n=24 --tenant=drill --verify --retry-initial-ms=2 \
      --retry-max-attempts=20 > "$smoke_dir/client1.log"
  grep -q "verify: OK" "$smoke_dir/client1.log" || {
    echo "fault-injected serve is not bit-identical to direct screen" >&2
    cat "$smoke_dir/client1.log" >&2
    exit 1
  }
  # Graceful drain: SIGTERM finishes in-flight work and exits 0.
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "screen_serve did not drain cleanly on SIGTERM" >&2
    cat "$smoke_dir/serve1.log" >&2
    exit 1
  }
  grep -q "drained" "$smoke_dir/serve1.log" || {
    echo "screen_serve drain left no stats line" >&2
    exit 1
  }

  echo "== tier 1: daemon crash drill (kill -9 mid-batch, bit-identity) =="
  # A fresh journal, a daemon rigged to die (_Exit 137) as its 3rd batch
  # dispatches, and a patient client. The restarted daemon must replay the
  # journal — recomputing admitted-but-incomplete requests, serving
  # completed ones from cache — and the client's verify gate proves every
  # score equals the uninterrupted reference.
  rm -f "$journal"
  ./build/examples/screen_serve --socket="$sock" --journal="$journal" \
      --lane-group=8 --linger-ms=1 --crash-after-batches=3 \
      > "$smoke_dir/serve_crash.log" 2>&1 &
  crash_pid=$!
  ./build/examples/screen_client --socket="$sock" --requests=8 --pairs=2 \
      --m=8 --n=24 --tenant=drill --verify --retry-initial-ms=5 \
      --retry-max-ms=100 --retry-max-attempts=40 \
      > "$smoke_dir/client_crash.log" 2>&1 &
  client_pid=$!
  if wait "$crash_pid"; then
    echo "rigged daemon did not crash" >&2
    exit 1
  fi
  ./build/examples/screen_serve --socket="$sock" --journal="$journal" \
      --lane-group=8 --linger-ms=1 --report="$smoke_dir/serve.report.json" \
      > "$smoke_dir/serve2.log" 2>&1 &
  serve_pid=$!
  wait "$client_pid" || {
    echo "client did not recover across the daemon crash" >&2
    cat "$smoke_dir/client_crash.log" >&2
    exit 1
  }
  grep -q "verify: OK" "$smoke_dir/client_crash.log" || {
    echo "crash-recovered scores are not bit-identical" >&2
    cat "$smoke_dir/client_crash.log" >&2
    exit 1
  }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "restarted daemon did not drain cleanly" >&2
    cat "$smoke_dir/serve2.log" >&2
    exit 1
  }
  grep -Eq "recovered_pending=[1-9]|recovered_completed=[1-9]" \
      "$smoke_dir/serve2.log" || {
    echo "restarted daemon recovered nothing from the journal" >&2
    cat "$smoke_dir/serve2.log" >&2
    exit 1
  }
  python3 scripts/check_run_report.py "$smoke_dir/serve.report.json"

  echo "== tier 1: daemon shed drill (overload, quota, deadline) =="
  # Each flood holds the queue full (huge lane group, huge linger: nothing
  # dispatches) so rejections are deterministic; the SIGTERM drain then
  # flushes the admitted remainder so the flooding client can finish
  # reading. Tiny queue + huge per-tenant quota: the GLOBAL cap binds and
  # floods shed kOverloaded. Tiny quota: kQuotaExceeded. Microscopic
  # deadline budget: kDeadlineExceeded, shed while queued, never scored.
  wait_for_socket() {
    for _ in $(seq 1 100); do
      [[ -S "$1" ]] && return 0
      sleep 0.05
    done
    echo "daemon socket $1 never appeared" >&2
    return 1
  }
  ./build/examples/screen_serve --socket="$sock" \
      --max-queued-requests=2 --tenant-quota-pairs=100000 \
      --lane-group=4096 --linger-ms=100000 \
      > "$smoke_dir/serve_shed.log" 2>&1 &
  serve_pid=$!
  wait_for_socket "$sock"
  ./build/examples/screen_client --socket="$sock" --requests=8 --pairs=4 \
      --m=8 --n=24 --tenant=flood --flood > "$smoke_dir/flood.log" 2>&1 &
  client_pid=$!
  sleep 0.5
  kill -TERM "$serve_pid"
  wait "$client_pid" || true
  wait "$serve_pid" || true
  grep -Eq "overloaded=[1-9]" "$smoke_dir/flood.log" || {
    echo "flooded daemon shed nothing with kOverloaded" >&2
    cat "$smoke_dir/flood.log" >&2
    exit 1
  }

  ./build/examples/screen_serve --socket="$sock" --tenant-quota-pairs=8 \
      --lane-group=4096 --linger-ms=100000 \
      > "$smoke_dir/serve_quota.log" 2>&1 &
  serve_pid=$!
  wait_for_socket "$sock"
  ./build/examples/screen_client --socket="$sock" --requests=6 --pairs=4 \
      --m=8 --n=24 --tenant=greedy --flood > "$smoke_dir/quota.log" 2>&1 &
  client_pid=$!
  sleep 0.5
  kill -TERM "$serve_pid"
  wait "$client_pid" || true
  wait "$serve_pid" || true
  grep -Eq "quota=[1-9]" "$smoke_dir/quota.log" || {
    echo "over-quota tenant was not shed with kQuotaExceeded" >&2
    cat "$smoke_dir/quota.log" >&2
    exit 1
  }

  ./build/examples/screen_serve --socket="$sock" --lane-group=4096 \
      --linger-ms=100000 > "$smoke_dir/serve_deadline.log" 2>&1 &
  serve_pid=$!
  ./build/examples/screen_client --socket="$sock" --requests=2 --pairs=2 \
      --m=8 --n=24 --tenant=impatient --deadline-budget-ms=0.01 \
      > "$smoke_dir/deadline.log" || true
  grep -Eq "deadline=[1-9]" "$smoke_dir/deadline.log" || {
    echo "expired budgets were not shed with kDeadlineExceeded" >&2
    cat "$smoke_dir/deadline.log" >&2
    exit 1
  }
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "daemon did not drain cleanly after the shed drill" >&2
    exit 1
  }

  echo "== tier 1: live observability drill (scrape, trace, reconcile) =="
  # A telemetry-enabled daemon on the persistent engine backend. One
  # traced client run produces a single merged Perfetto export (client +
  # server spans correlated by one trace id); two live scrapes straddle a
  # second workload so the counters must move, and only forward; the
  # drain's Prometheus dump must reconcile with the scrapes.
  prom="$smoke_dir/daemon.prom"
  merged="$smoke_dir/merged.trace.json"
  ./build/examples/screen_serve --socket="$sock" --telemetry --engine \
      --lane-group=8 --linger-ms=1 --stats-dump="$prom" \
      > "$smoke_dir/serve_obs.log" 2>&1 &
  serve_pid=$!
  wait_for_socket "$sock"
  ./build/examples/screen_client --socket="$sock" --requests=6 --pairs=4 \
      --m=8 --n=24 --tenant=obs --verify --trace="$merged" \
      > "$smoke_dir/client_obs.log"
  grep -q "verify: OK" "$smoke_dir/client_obs.log" || {
    echo "traced run is not bit-identical to direct screen" >&2
    cat "$smoke_dir/client_obs.log" >&2
    exit 1
  }
  ./build/examples/screen_client --socket="$sock" --requests=0 \
      --stats-out="$smoke_dir/scrape1.json" > /dev/null
  ./build/examples/screen_client --socket="$sock" --requests=4 --pairs=2 \
      --m=8 --n=24 --tenant=obs2 --verify > "$smoke_dir/client_obs2.log"
  grep -q "verify: OK" "$smoke_dir/client_obs2.log" || {
    echo "second observability workload failed verify" >&2
    cat "$smoke_dir/client_obs2.log" >&2
    exit 1
  }
  ./build/examples/screen_client --socket="$sock" --requests=0 \
      --stats-out="$smoke_dir/scrape2.json" > /dev/null
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "observability daemon did not drain cleanly" >&2
    cat "$smoke_dir/serve_obs.log" >&2
    exit 1
  }
  python3 scripts/check_stats.py "$smoke_dir/scrape1.json" \
      "$smoke_dir/scrape2.json" --prom "$prom"
  python3 scripts/check_run_report.py "$merged"
  # One grep correlates the whole request lifecycle: the id the client
  # stamped must tag its own span, the server's admission and queue
  # spans, and the engine's compute stage in the one merged file.
  trace_id=$(sed -n 's/.*trace_id \(0x[0-9a-f]*\).*/\1/p' \
      "$smoke_dir/client_obs.log")
  [[ -n "$trace_id" ]] || {
    echo "traced client printed no trace id" >&2
    cat "$smoke_dir/client_obs.log" >&2
    exit 1
  }
  python3 - "$merged" "$trace_id" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
tid = sys.argv[2]
tagged = {e["name"] for e in doc["traceEvents"]
          if e.get("ph") == "X"
          and e.get("args", {}).get("trace_id") == tid}
need = {"client.screen", "admit", "queue.wait", "SWA"}
missing = need - tagged
if missing:
    sys.exit(f"merged trace: spans not tagged with {tid}: {sorted(missing)}")
print(f"  trace drill: {len(tagged)} span names carry {tid}")
EOF

  echo "== tier 1: flight recorder post-mortem drill (abort mid-batch) =="
  # A daemon rigged to abort as its first batch dispatches, with the
  # crash handler armed. The SIGABRT path must leave a parseable dump
  # whose newest entries show the run up to the failure.
  flight="$smoke_dir/flight.dump"
  rm -f "$flight"
  ./build/examples/screen_serve --socket="$sock" --abort-after-batches=1 \
      --flight-recorder="$flight" --lane-group=8 --linger-ms=1 \
      > "$smoke_dir/serve_abort.log" 2>&1 &
  abort_pid=$!
  wait_for_socket "$sock"
  ./build/examples/screen_client --socket="$sock" --requests=1 --pairs=2 \
      --m=8 --n=24 --tenant=doomed --retry-initial-ms=2 \
      --retry-max-attempts=2 > "$smoke_dir/client_abort.log" 2>&1 || true
  if wait "$abort_pid"; then
    echo "rigged daemon did not abort" >&2
    exit 1
  fi
  [[ -s "$flight" ]] || {
    echo "crashed daemon left no flight recorder dump" >&2
    cat "$smoke_dir/serve_abort.log" >&2
    exit 1
  }
  grep -q "swbpbc.flight_recorder v1" "$flight" || {
    echo "flight dump is missing its header" >&2
    cat "$flight" >&2
    exit 1
  }
  grep -q "abort.drill" "$flight" || {
    echo "flight dump does not show the pre-abort breadcrumb" >&2
    cat "$flight" >&2
    exit 1
  }
fi

if [[ $run_tier2 -eq 1 ]]; then
  if [[ $run_tier1 -eq 0 ]]; then header_check; fi
  echo "== tier 2: ASan+UBSan build + tier2-sanitize suites =="
  cmake --preset sanitize
  cmake --build --preset sanitize -j"$(nproc)"
  ctest --preset tier2-sanitize
fi

echo "CI OK"
