// Backend selection for the screening front ends: BPBC (the paper's
// bitwise engine), striped SIMD (the honest wordwise rival), or a
// measured cost-model auto-dispatch between the two.
//
// The two production engines are bit-identical on every scheme, so the
// choice is purely a throughput decision — which is exactly why it can
// be automated: resolve_backend_choice() prices the workload shape (s
// bit slices, m, n, pairs, alphabet, resolved lane width, gap model,
// matrix vs uniform) on both engines and picks the cheaper one. BPBC is
// priced from its kernel's exact per-cell op count (bitops::
// ops_scheme_cell, the paper's Theorem 6 generalized, plus the matrix
// mux) times the lane words the batch occupies, plus its word-to-bit
// transpose; striped from its cells, text columns and query profile.
// The few coefficients are nanoseconds per physical unit, fitted by
// bench/ablation_crossover.cpp --emit-model on this build (DESIGN.md
// decision 30). BPBC's cost grows with s and the scheme's circuit but
// is shared by every lane of a word; striped's is flat in s. So BPBC
// wins short-query DNA at full lanes, striped wins long queries, affine
// and matrix schemes and thin batches — the crossover surface in
// BENCH_crossover.json.
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
  unsigned symbols = 4;       // sigma: alphabet size
  unsigned lane_bits = 64;    // resolved BPBC lane width
  bool affine = false;        // three carry chains instead of one
  bool matrix = false;        // substitution mux instead of XOR compare
  unsigned mux_planes = 0;    // matrix: sign-split magnitude planes

  [[nodiscard]] static DispatchWorkload from(const ScoringScheme& scheme,
                                             std::size_t pairs, std::size_t m,
                                             std::size_t n,
                                             LaneWidth resolved_width);
};

/// Nanosecond coefficients per physical unit, fitted on the dispatch host
/// by bench/ablation_crossover.cpp --emit-model (a least-squares fit over
/// every region of the sweep; the committed values are the medians of
/// the per-sweep fits recorded in EXPERIMENTS.md, and
/// BENCH_crossover.json records one such sweep). Only the ratio of the
/// two engines' prices places the crossover.
struct CostModel {
  // BPBC: the batch is packed one instance per lane, so it pays for
  // ceil(pairs / lane_bits) whole lane words however few lanes are real.
  // Every word runs m * n kernel cells of bitops::ops_scheme_cell word
  // ops (about 0.16 ns each at every width from 32 to 512 lanes on the
  // fit host: a wide word op is one vector instruction), and a matrix
  // scheme adds bitops::ops_matrix_mux ops per cell. Each mux op reads a
  // profile word from a sigma * planes * n-word table, so it has its own
  // price (about 5x a cell op). W2B transposes every lane slot of every
  // word, real or padding, at each of the m + n positions.
  double bpbc_op_ns = 0.163;     // per lane-word op of the fused cell
  double bpbc_mux_op_ns = 0.80;  // per lane-word op of the matrix mux
  double bpbc_w2b_ns = 2.37;     // per transposed lane slot and position
  // Striped: per cell of the 128-bit kernel. Its 8-bit first pass does
  // the work whatever the exact cell width, so 32-bit cells cost no more
  // (the fit put them below 16-bit ones). Each text column pays a fixed
  // lazy-F / loop overhead, which is what prices short queries out.
  // Each call builds one query profile: a fixed cost plus one entry per
  // (symbol, query position).
  double striped_cell_ns = 0.204;
  double striped_column_ns = 10.3;
  double striped_profile_ns = 6.02;
  double striped_profile_base_ns = 19050.0;

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
/// selected, the Backend that implements it, and both engines' predicted
/// cost (CostModel::measured()), so a trace can show why.
struct DispatchedBackend {
  BackendChoice choice = BackendChoice::kBpbc;
  std::unique_ptr<Backend> backend;
  double bpbc_cost_ns = 0.0;
  double striped_cost_ns = 0.0;
};

/// Builds the host engine `requested` resolves to for this workload:
/// kBpbc through make_host_backend (lane-width dispatch intact), kStriped
/// through make_striped_backend. Both score every scheme try_screen
/// accepts.
[[nodiscard]] DispatchedBackend make_dispatch_backend(
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    BackendChoice requested, const DispatchWorkload& workload);

}  // namespace swbpbc::sw
