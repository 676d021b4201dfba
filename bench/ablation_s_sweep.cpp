// Ablation: BPBC SWA cost as a function of the slice count s.
//
// Theorem 6 predicts 48s-18 word operations per cell, i.e. wall time
// linear in s. s is controlled through the match reward (s =
// bit_width(match * m)), holding m and n fixed. Also measures the
// circuit-simulated cell (generic vs constant-baked netlist) to quantify
// the constant-operand optimization the optimizer performs.
#include <benchmark/benchmark.h>

#include "circuit/evaluate.hpp"
#include "circuit/optimize.hpp"
#include "circuit/sw_circuit.hpp"
#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "sw/banded.hpp"
#include "sw/scheme_aligner.hpp"

namespace {

using namespace swbpbc;

using View32 = encoding::PlanarGenericView<std::uint32_t>;

// SWA of one 32-lane DNA group of m x n cells under `scheme`.
void run_group_swa(benchmark::State& state, const sw::ScoringScheme& scheme,
                   std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto xs = encoding::random_sequences(rng, 32, m);
  const auto ys = encoding::random_sequences(rng, 32, n);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);
  const sw::SchemeBpbcAligner<std::uint32_t> aligner(scheme, m, n);
  std::vector<std::uint32_t> slices(aligner.slices());
  for (auto _ : state) {
    aligner.max_score_slices(View32::from(bx.groups[0]),
                             View32::from(by.groups[0]),
                             std::span<std::uint32_t>(slices));
    benchmark::DoNotOptimize(slices.data());
  }
  state.counters["s"] = aligner.slices();
  state.SetItemsProcessed(state.iterations() * 32 *
                          static_cast<std::int64_t>(m * n));
}

void BM_BpbcSwaBySliceCount(benchmark::State& state) {
  const auto match = static_cast<std::uint32_t>(state.range(0));
  run_group_swa(state, sw::ScoringScheme::from_params({match, 1, 1}), 32,
                256, 10);
}
// match = 1, 3, 7, 15, 63 -> s = 6, 7, 8, 9, 11 for m = 32.
BENCHMARK(BM_BpbcSwaBySliceCount)->Arg(1)->Arg(3)->Arg(7)->Arg(15)->Arg(63);

void BM_CircuitCellGeneric(benchmark::State& state) {
  const unsigned s = 9;
  const circuit::Circuit cell = circuit::build_sw_cell(s);
  util::Xoshiro256 rng(11);
  std::vector<std::uint32_t> in(cell.input_count());
  for (auto& w : in) w = static_cast<std::uint32_t>(rng.next());
  std::vector<std::uint32_t> value, out;
  for (auto _ : state) {
    circuit::evaluate_into<std::uint32_t>(cell, in, value, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["gates"] = static_cast<double>(cell.counts().logic());
}
BENCHMARK(BM_CircuitCellGeneric);

void BM_CircuitCellConstBaked(benchmark::State& state) {
  const unsigned s = 9;
  const circuit::Circuit cell =
      circuit::optimize(circuit::build_sw_cell_const(s, {2, 1, 1}));
  util::Xoshiro256 rng(12);
  std::vector<std::uint32_t> in(cell.input_count());
  for (auto& w : in) w = static_cast<std::uint32_t>(rng.next());
  std::vector<std::uint32_t> value, out;
  for (auto _ : state) {
    circuit::evaluate_into<std::uint32_t>(cell, in, value, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["gates"] = static_cast<double>(cell.counts().logic());
}
BENCHMARK(BM_CircuitCellConstBaked);

// Affine (Gotoh) vs linear gap cost per cell: the affine cell runs four
// extra ssub/max stages, quantifying the price of the future-work
// extension relative to the paper's linear recurrence.
void BM_LinearGapSwa(benchmark::State& state) {
  run_group_swa(state, sw::ScoringScheme::from_params({2, 1, 1}), 32, 256,
                30);
}
BENCHMARK(BM_LinearGapSwa);

void BM_AffineGapSwa(benchmark::State& state) {
  sw::ScoringScheme scheme;
  scheme.gap_model = sw::GapModel::kAffine;
  scheme.gap_open = 3;
  scheme.gap_extend = 1;
  run_group_swa(state, scheme, 32, 256, 30);
}
BENCHMARK(BM_AffineGapSwa);

// Banded pruning: cells drop from m*n to ~m*(2*band+1); wall time should
// follow the cell count.
void BM_BandedSwa(benchmark::State& state) {
  const auto band = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 32, n = 256;
  util::Xoshiro256 rng(31);
  const auto xs = encoding::random_sequences(rng, 32, m);
  const auto ys = encoding::random_sequences(rng, 32, n);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);
  const sw::BandedBpbcAligner<std::uint32_t> aligner({2, 1, 1}, m, n,
                                                     band);
  std::vector<std::uint32_t> slices(aligner.slices());
  for (auto _ : state) {
    aligner.max_score_slices(bx.groups[0], by.groups[0],
                             std::span<std::uint32_t>(slices));
    benchmark::DoNotOptimize(slices.data());
  }
  state.counters["band"] = static_cast<double>(band);
}
BENCHMARK(BM_BandedSwa)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
