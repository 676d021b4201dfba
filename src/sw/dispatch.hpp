// Backend selection for the screening front ends: BPBC (the paper's
// bitwise engine), striped SIMD (the honest wordwise rival), or a
// measured cost-model auto-dispatch between the two.
//
// The two production engines are bit-identical on every scheme, so the
// choice is purely a throughput decision — which is exactly why it can
// be automated: resolve_backend_choice() evaluates a small per-cell cost
// model (coefficients measured by bench/ablation_crossover.cpp on the
// same workloads BENCH_crossover.json records) over the workload shape
// (s bit slices, m, n, pairs, alphabet bits, resolved lane width, gap
// model, matrix vs uniform) and picks the cheaper engine. BPBC's
// per-cell cost grows with the slice count and the scheme's circuit
// depth but is divided across the lane width; striped's per-cell cost is
// nearly flat (8 or 4 cells per vector op, independent of s). So BPBC
// wins small-s DNA at wide lanes, striped wins large-s / affine / matrix
// schemes — the crossover surface in BENCH_crossover.json.
//
// SWBPBC_FORCE_BACKEND=bpbc|striped|auto outranks every
// config field (the lane-width override pattern: read and validated
// once, a malformed value is a typed kInvalidInput). It selects among
// the *host engines* only: an explicit Backend instance and the
// database store are data-placement decisions, not engine choices, and
// keep outranking it in the screen loop.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "bulk/executor.hpp"
#include "sw/lane.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

class Backend;  // sw/backend.hpp

enum class BackendChoice : std::uint8_t {
  kAuto = 0,     // cost-model dispatch between bpbc and striped
  kBpbc = 1,     // bitwise parallel bulk computation (the paper)
  kStriped = 2,  // striped SIMD with lazy-F deconstruction
};

[[nodiscard]] const char* backend_choice_name(BackendChoice choice);
[[nodiscard]] std::optional<BackendChoice> parse_backend_choice(
    std::string_view s);

/// SWBPBC_FORCE_BACKEND policy as a pure function: nullopt when `value`
/// is null/empty (not forced), the parsed choice, or a typed
/// kInvalidInput naming the variable and the accepted spellings.
[[nodiscard]] util::Expected<std::optional<BackendChoice>>
parse_forced_backend(const char* value);

/// The forced choice from the environment (read and validated once; a
/// malformed value throws util::StatusError on first use, the lane-width
/// override behaviour). nullopt = not forced.
[[nodiscard]] std::optional<BackendChoice> forced_backend_choice();

/// The workload shape the cost model prices.
struct DispatchWorkload {
  std::size_t pairs = 1;
  std::size_t m = 0;          // query length
  std::size_t n = 0;          // target length
  unsigned slices = 8;        // s: BPBC bit slices for (scheme, m, n)
  unsigned alphabet_bits = 2; // epsilon
  unsigned lane_bits = 64;    // resolved BPBC lane width
  bool affine = false;        // three carry chains instead of one
  bool matrix = false;        // substitution mux tree instead of XOR
  bool wide_cells = false;    // striped needs 32-bit cells (4 lanes)

  [[nodiscard]] static DispatchWorkload from(const ScoringScheme& scheme,
                                             std::size_t pairs, std::size_t m,
                                             std::size_t n,
                                             LaneWidth resolved_width);
};

/// Per-cell nanosecond coefficients, measured on the dispatch host by
/// bench/ablation_crossover.cpp (regenerate with --emit-model; the
/// committed BENCH_crossover.json records the run the builtin table came
/// from). The absolute scale cancels in the comparison — only the ratios
/// place the crossover.
struct CostModel {
  // BPBC: per cell per instance at 64 lanes. Cost scales with the slice
  // count (ripple-carry chains are s gate layers deep), multiplies for
  // affine (H/E/F chains), pays a per-plane mux tree for matrix lookup,
  // and divides across lane_bits/64 — but the batch pays for *padded*
  // lanes: ceil(pairs / lane_bits) full words, so a 4-pair batch at 128
  // lanes costs the same word ops as a 128-pair batch. That lane
  // under-fill term is what hands small batches to striped.
  double bpbc_base_ns = 0.77;
  double bpbc_slice_ns = 0.08;
  double bpbc_affine_mul = 1.41;
  double bpbc_matrix_ns = 0.07;  // per matrix-mux leaf (2^alphabet_bits)
  // Striped: per cell at 16-bit elements (8 lanes/vector); 32-bit cells
  // halve the lanes (measured: the memory system hides it — the fit
  // clamps the multiplier at 1). Each text column also pays a fixed
  // lazy-F / loop overhead, which is why short queries (small m) lean
  // BPBC. Profile build is charged per (symbol, position).
  double striped_cell_ns = 1.35;
  double striped_column_ns = 64.21;
  double striped_wide_mul = 1.0;
  double striped_profile_ns = 196.27;

  [[nodiscard]] double bpbc_cost_ns(const DispatchWorkload& w) const;
  [[nodiscard]] double striped_cost_ns(const DispatchWorkload& w) const;

  /// The builtin measured table.
  [[nodiscard]] static const CostModel& measured();
};

/// Resolves kAuto against the cost model (never returns kAuto). The
/// environment override outranks `requested`. Deterministic: a pure
/// function of (override, requested, workload, model).
[[nodiscard]] BackendChoice resolve_backend_choice(
    BackendChoice requested, const DispatchWorkload& workload,
    const CostModel& model = CostModel::measured());

/// A resolved host engine for the DNA screen loop: the choice actually
/// selected plus the Backend that implements it.
struct DispatchedBackend {
  BackendChoice choice = BackendChoice::kBpbc;
  std::unique_ptr<Backend> backend;
};

/// Builds the host engine `requested` resolves to for this workload:
/// kBpbc through make_host_backend (lane-width dispatch intact), kStriped
/// through make_striped_backend. Both score every scheme try_screen
/// accepts.
[[nodiscard]] DispatchedBackend make_dispatch_backend(
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    BackendChoice requested, const DispatchWorkload& workload);

}  // namespace swbpbc::sw
