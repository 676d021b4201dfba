// Ablation: BPBC SWA cost as a function of the slice count s.
//
// Theorem 6 predicts 48s-18 word operations per cell, i.e. wall time
// linear in s. s is controlled through the match reward (s =
// bit_width(match * m)), holding m and n fixed.
#include <benchmark/benchmark.h>

#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "sw/scheme_aligner.hpp"

namespace {

using namespace swbpbc;

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
    aligner.max_score_slices(bx.groups[0].view(), by.groups[0].view(),
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

}  // namespace
