// Ablation: scaling of the bulk BPBC SWA with worker-thread count — the
// "streaming multiprocessor" axis of the device simulator. On a machine
// with few cores the curve saturates immediately; the paper's 447-524x
// CPU->GPU factors correspond to thousands of CUDA cores.
#include <benchmark/benchmark.h>

#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace swbpbc;

void BM_GroupsAcrossThreads(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const std::size_t groups = 16, m = 32, n = 128;
  util::Xoshiro256 rng(20);
  const auto xs = encoding::random_sequences(rng, groups * 32, m);
  const auto ys = encoding::random_sequences(rng, groups * 32, n);
  const auto bx = encoding::transpose_strings<std::uint32_t>(xs);
  const auto by = encoding::transpose_strings<std::uint32_t>(ys);
  const sw::SchemeBpbcAligner<std::uint32_t> aligner(sw::ScoringScheme{},
                                                     m, n);

  util::ThreadPool pool(n_threads);
  std::vector<std::vector<std::uint32_t>> out(
      groups, std::vector<std::uint32_t>(aligner.slices()));
  for (auto _ : state) {
    pool.parallel_for(0, groups, [&](std::size_t g) {
      aligner.max_score_slices(bx.groups[g].view(), by.groups[g].view(),
                               std::span<std::uint32_t>(out[g]));
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(groups * 32 * m * n));
}
BENCHMARK(BM_GroupsAcrossThreads)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
