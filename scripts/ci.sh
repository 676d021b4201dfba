#!/usr/bin/env bash
# CI gate: the tier-1 build + full test suite under the release preset
# (plus ScoreParams, lane-dispatch and orphan-header fences over src/, a
# warning fence over a clean build's log, an ISA containment fence over
# the AVX2/AVX-512 kernel objects and binaries, a
# telemetry smoke: RunReport and span-trace artifacts validated by
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

# The legacy ScoreParams triple is fenced in: it may appear only in the
# scalar references, the wordwise baselines, the entry configs and their
# boundary conversion. Every engine below the configs takes
# sw::ScoringScheme, so a new src/ file naming ScoreParams fails tier 1.
score_params_fence() {
  echo "== tier 1: ScoreParams fence (allow-listed src/ files only) =="
  local allowed='^src/(sw/(params|scoring|scalar|wordwise|pipeline)'
  allowed+='\.[ch]pp|service/server\.hpp|device/sw_stage_kernels\.hpp)$'
  local stray
  stray=$(grep -rl ScoreParams src | sort | grep -Ev "$allowed" || true)
  if [[ -n $stray ]]; then
    echo "ScoreParams named outside the allow-list:" >&2
    echo "$stray" >&2
    exit 1
  fi
  echo "  $(grep -rl ScoreParams src | wc -l) allow-listed files name it"
}

# One lane-width dispatch: sw::with_lane_word (sw/lane.hpp) is the only
# place a LaneWidth becomes a lane-word type, so a src/ file outside
# sw/lane.{hpp,cpp} with a `case` on LaneWidth::k512 — a hand-written
# width switch — fails tier 1.
lane_dispatch_fence() {
  echo "== tier 1: lane-dispatch fence (width switches in sw/lane only) =="
  local stray
  stray=$(grep -rlE 'case[[:space:]]+(sw::)?LaneWidth::k512' src | sort |
          grep -Ev '^src/sw/lane\.[ch]pp$' || true)
  if [[ -n $stray ]]; then
    echo "LaneWidth switched on outside sw/lane (use sw::with_lane_word):" >&2
    echo "$stray" >&2
    exit 1
  fi
  echo "  only sw/lane.{hpp,cpp} switch on LaneWidth"
}

# No test-only library code: every src/**/*.hpp must be included by some
# file under src/ (other than its own .cpp), bench/, examples/ or
# perfbench/. A header that only its unit test includes is dead weight
# the library carries, so it fails tier 1.
orphan_header_fence() {
  echo "== tier 1: orphan-header fence (no src/ header only tests include) =="
  local hpp rel includers orphans=""
  while IFS= read -r hpp; do
    rel=${hpp#src/}
    includers=$(grep -rlF --include='*.[ch]pp' "#include \"$rel\"" \
                    src bench examples perfbench |
                grep -vxF "${hpp%.hpp}.cpp" || true)
    [[ -n $includers ]] || orphans+="$rel"$'\n'
  done < <(find src -name '*.hpp' | sort)
  if [[ -n $orphans ]]; then
    echo "src/ headers included only by tests (or by nothing):" >&2
    printf '%s' "$orphans" >&2
    exit 1
  fi
  echo "  every src/ header has a library, bench or example includer"
}

# ISA containment (DESIGN.md decision 25): only sw/kernel_avx2.cpp and
# sw/kernel_avx512.cpp are compiled for AVX2 / AVX-512, and only for their
# ISA-tagged lane words, bitsim::isa_word<Bits, Isa>, whose name every
# function compiled for them carries. Any other function with a ymm/zmm
# operand or a VEX/EVEX (v-prefixed) instruction would run on CPUs that
# lack the ISA, so it fails tier 1. Checked in the two kernel objects —
# where an untagged inline function could be compiled for the ISA, however
# the linker later resolves it — and in a linked example and test binary.
# The kernel objects must also really hold ymm/zmm code, so a dropped
# compile flag cannot pass unnoticed.
isa_containment_fence() {
  echo "== tier 1: ISA containment fence (AVX code in tagged functions only) =="
  local obj=build/src/sw/CMakeFiles/swbpbc_sw.dir
  local file stray
  for file in build/examples/database_filter build/tests/wide_lane_test \
              "$obj/kernel_avx2.cpp.o" "$obj/kernel_avx512.cpp.o"; do
    stray=$(objdump -d -C --no-show-raw-insn "$file" | awk '
      /^[0-9a-f]+ <.*>:$/ { fn = $0; tagged = fn ~ /bitsim::isa_word</; next }
      !tagged && (/%[yz]mm/ || /\tv[a-z]/) { bad[fn] = 1 }
      END { for (f in bad) print f }')
    if [[ -n $stray ]]; then
      echo "$file: AVX code in functions without the ISA tag:" >&2
      echo "$stray" >&2
      exit 1
    fi
  done
  if [[ $(uname -m) == x86_64 ]]; then
    # grep -c reads all of objdump's output (-q would SIGPIPE it).
    local isa reg
    for isa in avx2:ymm avx512:zmm; do
      reg=${isa#*:}
      isa=${isa%:*}
      if [[ $(objdump -d "$obj/kernel_$isa.cpp.o" | grep -c "%$reg") -eq 0 ]]
      then
        echo "kernel_$isa.cpp.o holds no $reg code" >&2
        exit 1
      fi
    done
  fi
  echo "  AVX2/AVX-512 code only in ISA-tagged functions"
}

# Warning-free build: a clean build's log ($1) may hold no compiler
# warning located in the repo's own sources (src/, tests/, bench/,
# examples/). Reports located in system headers — GCC 12's -Wrestrict
# false positive in <bits/char_traits.h> — are not the repo's and pass.
build_warning_fence() {
  echo "== tier 1: warning fence (no warnings in the repo's own sources) =="
  local stray
  stray=$(awk -v root="$(pwd -P)/" '/: warning:/ {
      line = $0
      if (index(line, root) == 1) line = substr(line, length(root) + 1)
      if (line ~ /^(src|tests|bench|examples)\//) print line
    }' "$1" | sort -u)
  if [[ -n $stray ]]; then
    echo "the build warns in the repo's own sources:" >&2
    echo "$stray" >&2
    exit 1
  fi
  echo "  no warnings in src/, tests/, bench/ or examples/"
}

if [[ $run_tier1 -eq 1 ]]; then
  header_check
  score_params_fence
  lane_dispatch_fence
  orphan_header_fence
  echo "== tier 1: release build + full test suite =="
  cmake --preset default
  build_log=$(mktemp)
  cmake --build --preset default -j"$(nproc)" --clean-first 2>&1 |
      tee "$build_log"
  build_warning_fence "$build_log"
  rm -f "$build_log"
  ctest --preset default
  isa_containment_fence

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

  echo "== tier 1: fault drill without stage integrity (kills as faults) =="
  # With the engine's checks off, a watchdog-killed block must still reach
  # the screen layer as a stage fault and be retried; the drill exits
  # nonzero if any reported score disagrees with the scalar reference.
  ./build/examples/fault_drill --campaigns=4 --count=32 --integrity=0 \
      > /dev/null

  echo "== tier 1: engine-vs-host chunked screen smoke (bit-identity gate) =="
  # The device engine backend and the host default screen path must agree
  # on every score (table4_runtime exits nonzero if not).
  ./build/bench/table4_runtime --pairs=128 --m=16 --n=64 \
      --engine-vs-host --chunk-pairs=16 > /dev/null

  echo "== tier 1: Table V traffic counters (committed-artifact gate) =="
  # The simulator's memory traffic is deterministic: at table5_gcups'
  # default config (512 pairs, m = 64, n = 256/512/1024) every device.*
  # counter — global reads/writes/transactions, shared accesses, bank
  # conflicts and device.runs; not the .ms histograms — must equal the
  # committed BENCH_table5.json exactly.
  ./build/bench/table5_gcups --json="$smoke_dir/table5.json" > /dev/null
  python3 - BENCH_table5.json "$smoke_dir/table5.json" <<'EOF'
import json, sys
def device_counters(path):
    counters = json.load(open(path))["metrics"]["counters"]
    return {k: v for k, v in counters.items() if k.startswith("device.")}
want, got = device_counters(sys.argv[1]), device_counters(sys.argv[2])
assert len(want) == 19, f"committed artifact has {len(want)} device counters"
bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
for k in bad:
    print(f"  {k}: committed {want.get(k)}, measured {got.get(k)}",
          file=sys.stderr)
if bad:
    sys.exit("Table V device counters drifted from BENCH_table5.json")
print(f"  {len(want)} device counters match BENCH_table5.json")
EOF

  echo "== tier 1: lane-width dispatch matrix (score fingerprint gate) =="
  # SWBPBC_FORCE_LANE_WIDTH drives the whole dispatch through one binary:
  # every lane word the kernel's cell runs at (32..512), and auto
  # (whatever this CPU probes widest). Scores are bit-identical across
  # widths, so the RunReport fingerprints must match.
  ref_fnv=""
  for lane_width in 32 64 128 256 512 auto; do
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
  # store serve is bit-identical and the try_screen self-check finds no
  # mismatch against scalar Gotoh). Fingerprints must agree across every
  # lane word (32..512) and whatever auto probes widest on this host, the
  # self-check must have verified lanes with 0 mismatches, and the store
  # must serve at the width the screen resolved (32 lanes included: half
  # shards).
  protein_ref=""
  for lane_width in 32 64 128 256 512 auto; do
    SWBPBC_FORCE_LANE_WIDTH=$lane_width ./build/examples/protein_screen \
        --count=96 --db="$smoke_dir/protein_$lane_width.swdb" \
        --json="$smoke_dir/protein_$lane_width.json" > /dev/null
    fnv=$(python3 - "$smoke_dir/protein_$lane_width.json" <<'EOF'
import json, sys
cfg = json.load(open(sys.argv[1]))["config"]
assert cfg["scheme"] == "affine/blosum62", cfg["scheme"]
assert cfg["db_width"] == cfg["width_resolved"], (cfg["db_width"],
                                                  cfg["width_resolved"])
assert int(cfg["check_lanes_verified"]) > 0, cfg["check_lanes_verified"]
assert int(cfg["check_mismatches"]) == 0, cfg["check_mismatches"]
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
assert int(cfg["check_lanes_verified"]) > 0, cfg["check_lanes_verified"]
assert int(cfg["check_mismatches"]) == 0, cfg["check_mismatches"]
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
  # variable, never a silent fall-through to some default engine; the
  # retired wordwise-naive engine name is no longer a backend either.
  for bad in banana wordwise-naive; do
    if SWBPBC_FORCE_BACKEND=$bad ./build/examples/database_filter \
        --entries=64 > "$smoke_dir/badbackend.out" 2>&1; then
      echo "SWBPBC_FORCE_BACKEND=$bad was silently accepted" >&2
      exit 1
    fi
    grep -q "SWBPBC_FORCE_BACKEND" "$smoke_dir/badbackend.out" || {
      echo "rejection of $bad does not name SWBPBC_FORCE_BACKEND" >&2
      cat "$smoke_dir/badbackend.out" >&2
      exit 1
    }
  done

  echo "== tier 1: retired lane-width negative smoke (typed rejection) =="
  # The retired scalar-wide width is an unknown spelling: the override and
  # the --width flag of every example that takes one must reject it as a
  # typed INVALID_INPUT listing the widths that remain.
  for example in database_filter protein_screen screen_serve; do
    if ./build/examples/$example --width=scalar-wide \
        > "$smoke_dir/retiredwidth.out" 2>&1; then
      echo "$example --width=scalar-wide was silently accepted" >&2
      exit 1
    fi
    grep "INVALID_INPUT" "$smoke_dir/retiredwidth.out" \
        | grep -q "32|64|128|256|512|auto" || {
      echo "$example --width=scalar-wide not rejected with INVALID_INPUT" >&2
      cat "$smoke_dir/retiredwidth.out" >&2
      exit 1
    }
  done
  if SWBPBC_FORCE_LANE_WIDTH=scalar-wide ./build/examples/database_filter \
      --entries=64 > "$smoke_dir/retiredwidth.out" 2>&1; then
    echo "SWBPBC_FORCE_LANE_WIDTH=scalar-wide was silently accepted" >&2
    exit 1
  fi
  grep "SWBPBC_FORCE_LANE_WIDTH" "$smoke_dir/retiredwidth.out" \
      | grep -q "32|64|128|256|512|auto" || {
    echo "SWBPBC_FORCE_LANE_WIDTH=scalar-wide not rejected by name" >&2
    cat "$smoke_dir/retiredwidth.out" >&2
    exit 1
  }

  echo "== tier 1: crossover bench smoke (BPBC x striped bit-identity) =="
  # CI sizes: the per-region engine bit-identity and scalar spot-check
  # gates stay armed; the timing-derived dispatcher-agreement gate is
  # skipped (--smoke regions are all noise).
  ./build/bench/ablation_crossover --smoke > /dev/null

  echo "== tier 1: crossover dispatcher-agreement gate (full-size sweep) =="
  # The full-size regions with the agreement gate armed: the run fails if
  # the committed CostModel picks the slower engine on any region the
  # faster one wins by >= 25% (best of 5 reps per engine, about 2 s).
  ./build/bench/ablation_crossover --reps=5 > /dev/null

  echo "== tier 1: undeclared-flag negative smoke (typed rejection) =="
  # Every bench and example declares the flags it accepts; a misspelt or
  # retired one (the deleted overlap's --overlap-depth here) must fail
  # with a typed INVALID_INPUT naming it, not run as if it were absent.
  if ./build/bench/table4_runtime --pairs=64 --m=16 --n=64 \
      --overlap-depth=3 > "$smoke_dir/badflag.out" 2>&1; then
    echo "table4_runtime --overlap-depth=3 was silently accepted" >&2
    exit 1
  fi
  grep "INVALID_INPUT" "$smoke_dir/badflag.out" \
      | grep -q -- "--overlap-depth" || {
    echo "--overlap-depth not rejected with INVALID_INPUT naming it" >&2
    cat "$smoke_dir/badflag.out" >&2
    exit 1
  }

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

  # A config the validator refuses: the store serves the BPBC kernels, so
  # forcing the striped engine on it must be a typed INVALID_INPUT naming
  # the database field before anything is screened.
  if ./build/examples/database_filter --entries=96 \
      --db="$smoke_dir/seqs.swdb" --backend=striped \
      > "$smoke_dir/dbstriped.out" 2>&1; then
    echo "--db with --backend=striped was silently accepted" >&2
    exit 1
  fi
  grep "INVALID_INPUT" "$smoke_dir/dbstriped.out" | grep -q "database" || {
    echo "--db with --backend=striped not rejected with INVALID_INPUT" \
         "naming database" >&2
    cat "$smoke_dir/dbstriped.out" >&2
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
  # drain's Prometheus dump must reconcile with the scrapes. The daemon
  # journals, so the scrapes carry the journal replay counters too.
  prom="$smoke_dir/daemon.prom"
  merged="$smoke_dir/merged.trace.json"
  rm -f "$smoke_dir/obs.journal"
  ./build/examples/screen_serve --socket="$sock" --telemetry --engine \
      --journal="$smoke_dir/obs.journal" \
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
