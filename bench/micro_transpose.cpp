// Micro-benchmarks of the W2B/B2W machinery: dense network vs the
// liveness-specialized plans of Table I (the planner ablation), the
// end-to-end string batch transpose, and the wide-lane PayloadTranspose
// (one cached 64-bit plan per limb block) across 64..512-bit words.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "bitsim/plan.hpp"
#include "bitsim/transpose.hpp"
#include "bitsim/wide_transpose.hpp"
#include "encoding/batch.hpp"
#include "encoding/random.hpp"

namespace {

using namespace swbpbc;

void BM_DenseTranspose32(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<std::uint32_t> a(32);
  for (auto& w : a) w = static_cast<std::uint32_t>(rng.next());
  for (auto _ : state) {
    bitsim::transpose_bits(std::span<std::uint32_t>(a));
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_DenseTranspose32);

void BM_PlannedTranspose32(benchmark::State& state) {
  const unsigned s = static_cast<unsigned>(state.range(0));
  const bitsim::TransposePlan plan =
      bitsim::TransposePlan::transpose_low_bits(32, s);
  util::Xoshiro256 rng(2);
  std::vector<std::uint32_t> a(32);
  const std::uint32_t mask = s >= 32 ? ~0u : ((1u << s) - 1);
  for (auto& w : a) w = static_cast<std::uint32_t>(rng.next()) & mask;
  for (auto _ : state) {
    plan.apply(std::span<std::uint32_t>(a));
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["plan_ops"] =
      static_cast<double>(plan.total_operations());
}
BENCHMARK(BM_PlannedTranspose32)->Arg(2)->Arg(9)->Arg(16)->Arg(32);

template <encoding::TransposeMethod Method>
void BM_StringBatchW2B(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  const auto seqs = encoding::random_sequences(
      rng, 256, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto batch = encoding::transpose_strings<std::uint32_t>(seqs, Method);
    benchmark::DoNotOptimize(batch.groups.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * state.range(0));
}
BENCHMARK(BM_StringBatchW2B<encoding::TransposeMethod::kPlanned>)
    ->Arg(256)->Arg(1024);
BENCHMARK(BM_StringBatchW2B<encoding::TransposeMethod::kNaive>)
    ->Arg(256)->Arg(1024);

// Wide-lane payload transpose: one block of word_bits_v<W> words carries
// that many instances. items_processed counts instances * payload bits so
// throughput is comparable across widths (wider words move more lanes per
// block; the work per lane should stay roughly flat).
template <class W>
void BM_PayloadTranspose(benchmark::State& state) {
  const unsigned s = static_cast<unsigned>(state.range(0));
  const auto plan = bitsim::PayloadTranspose<W>::forward(s);
  util::Xoshiro256 rng(5);
  constexpr std::size_t lanes = bitsim::word_bits_v<W>;
  std::vector<W> block(lanes);
  const std::uint64_t mask = s >= 64 ? ~0ull : ((1ull << s) - 1);
  for (auto& w : block) w = W{rng.next() & mask};
  for (auto _ : state) {
    plan.apply(std::span<W>(block));
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes) * s);
}
BENCHMARK(BM_PayloadTranspose<std::uint64_t>)->Arg(9)->Arg(32);
BENCHMARK(BM_PayloadTranspose<bitsim::simd_word<128>>)->Arg(9)->Arg(32);
BENCHMARK(BM_PayloadTranspose<bitsim::simd_word<256>>)->Arg(9)->Arg(32);
BENCHMARK(BM_PayloadTranspose<bitsim::simd_word<512>>)->Arg(9)->Arg(32);

// End-to-end string batch W2B at each lane width: lanes-per-group grows
// with the word, so per-instance cost is items_processed-normalized.
template <class W>
void BM_StringBatchW2BWide(benchmark::State& state) {
  util::Xoshiro256 rng(6);
  constexpr std::size_t lanes = bitsim::word_bits_v<W>;
  const auto seqs = encoding::random_sequences(
      rng, lanes, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto batch = encoding::transpose_strings<W>(
        seqs, encoding::TransposeMethod::kPlanned);
    benchmark::DoNotOptimize(batch.groups.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes) *
                          state.range(0));
}
BENCHMARK(BM_StringBatchW2BWide<std::uint64_t>)->Arg(256);
BENCHMARK(BM_StringBatchW2BWide<bitsim::simd_word<128>>)->Arg(256);
BENCHMARK(BM_StringBatchW2BWide<bitsim::simd_word<256>>)->Arg(256);
BENCHMARK(BM_StringBatchW2BWide<bitsim::simd_word<512>>)->Arg(256);

void BM_ScoreB2W(benchmark::State& state) {
  const unsigned s = 9;
  util::Xoshiro256 rng(4);
  std::vector<std::uint32_t> slices(s);
  for (auto& w : slices) w = static_cast<std::uint32_t>(rng.next());
  for (auto _ : state) {
    auto values = encoding::untranspose_values<std::uint32_t>(
        std::span<const std::uint32_t>(slices), s);
    benchmark::DoNotOptimize(values.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ScoreB2W);

}  // namespace
