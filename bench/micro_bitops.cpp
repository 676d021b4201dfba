// Micro-benchmarks of the Section IV.A bit-sliced primitives and of the
// kernel cell built from them: cost per call and derived cost per lane,
// for both lane widths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bitops/arith.hpp"
#include "bitops/slices.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/rng.hpp"

namespace {

using namespace swbpbc;

template <typename W>
std::vector<W> random_slices(unsigned s, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<W> v(s);
  for (auto& w : v) w = static_cast<W>(rng.next());
  return v;
}

template <typename W>
void BM_MaxB(benchmark::State& state) {
  const unsigned s = static_cast<unsigned>(state.range(0));
  const auto a = random_slices<W>(s, 1);
  const auto b = random_slices<W>(s, 2);
  std::vector<W> q(s);
  for (auto _ : state) {
    bitops::max_b<W>(a, b, q);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * sizeof(W)));
}
BENCHMARK(BM_MaxB<std::uint32_t>)->Arg(4)->Arg(9)->Arg(16);
BENCHMARK(BM_MaxB<std::uint64_t>)->Arg(4)->Arg(9)->Arg(16);

template <typename W>
void BM_AddB(benchmark::State& state) {
  const unsigned s = static_cast<unsigned>(state.range(0));
  const auto a = random_slices<W>(s, 3);
  const auto b = random_slices<W>(s, 4);
  std::vector<W> q(s);
  for (auto _ : state) {
    bitops::add_b<W>(a, b, q);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * sizeof(W)));
}
BENCHMARK(BM_AddB<std::uint32_t>)->Arg(9);
BENCHMARK(BM_AddB<std::uint64_t>)->Arg(9);

template <typename W>
void BM_SsubB(benchmark::State& state) {
  const unsigned s = static_cast<unsigned>(state.range(0));
  const auto a = random_slices<W>(s, 5);
  const auto b = random_slices<W>(s, 6);
  std::vector<W> q(s);
  for (auto _ : state) {
    bitops::ssub_b<W>(a, b, q);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * sizeof(W)));
}
BENCHMARK(BM_SsubB<std::uint32_t>)->Arg(9);
BENCHMARK(BM_SsubB<std::uint64_t>)->Arg(9);

// The full SW cell: the paper's Theorem 6 unit of work, timed as the
// production kernel runs it (sw::scheme_cell, the uniform linear cell
// with the running max folded in). items_processed counts lane-cells, so
// the report directly shows cell updates/second of the inner kernel.
template <typename W>
void BM_SwCell(benchmark::State& state) {
  const unsigned s = static_cast<unsigned>(state.range(0));
  const auto up = random_slices<W>(s, 7);
  const auto left = random_slices<W>(s, 8);
  const auto diag = random_slices<W>(s, 9);
  const auto gap = bitops::broadcast_constant<W>(1, s);
  const auto c1 = bitops::broadcast_constant<W>(2, s);
  const auto c2 = bitops::broadcast_constant<W>(1, s);
  // 2-plane characters that differ on every other lane pair.
  const std::vector<W> x = {static_cast<W>(0xA5A5A5A5A5A5A5A5ull), W{0}};
  const std::vector<W> y(2, W{0});
  std::vector<W> h(s), best(s), t(s), u(s), r(s), t2(s);
  sw::SchemeCellOperands<W> k;
  k.open = gap;
  k.extend = gap;
  k.c1 = c1;
  k.c2 = c2;
  k.xc = x;
  k.yc = y;
  k.t = t;
  k.u = u;
  k.r = r;
  k.t2 = t2;
  for (auto _ : state) {
    sw::scheme_cell<W>(k, up, left, diag, {}, {}, h, best);
    benchmark::DoNotOptimize(h.data());
    benchmark::DoNotOptimize(best.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * sizeof(W)));
}
BENCHMARK(BM_SwCell<std::uint32_t>)->Arg(4)->Arg(9)->Arg(16);
BENCHMARK(BM_SwCell<std::uint64_t>)->Arg(4)->Arg(9)->Arg(16);

}  // namespace
