// The lane-word-templated batch bodies of the host bit-sliced kernel:
// W2B, SWA and B2W of an in-memory batch (run_batch, behind bpbc.cpp's
// front end and host backend) and of a database store serve (run_store,
// behind the store backend in db_backend.cpp), plus the shard-to-lane
// routine the store body runs (shard_group_view). Every alphabet runs
// them: a batch transposes into scheme.alphabet_bits() planes (DNA is
// the epsilon = 2 instance).
//
// These templates are compiled up to three times (DESIGN.md decision 25):
// bpbc.cpp and db_backend.cpp instantiate them for the baseline lane
// words with the build's flags, and kernel_avx2.cpp / kernel_avx512.cpp
// instantiate them under -mavx2 / -mavx512f for the ISA-tagged words
// Avx2Word / Avx512Word (sw/lane.hpp). The extern declarations at the
// bottom keep every other translation unit from generating code for the
// tagged words: with_lane_word<LaneWords::kNative> hands those words only
// to lambdas that call the entry points declared there, and only once
// cpuid has reported the ISA.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bitops/slices.hpp"
#include "bitsim/wide_word.hpp"
#include "bulk/executor.hpp"
#include "db/format.hpp"
#include "db/reader.hpp"
#include "encoding/batch.hpp"
#include "encoding/generic_batch.hpp"
#include "sw/bpbc.hpp"
#include "sw/lane.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw::kernel {

// W2B of one validated side at the scheme's epsilon planes.
template <bitsim::LaneWord W>
encoding::PlanarGenericBatch<W> transpose(
    std::span<const encoding::Sequence> seqs, const ScoringScheme& scheme,
    encoding::TransposeMethod method) {
  return encoding::detail::transpose_batch<W>(seqs, scheme.alphabet_bits(),
                                              method);
}

/// Scores a validated in-memory batch at lane word W: W2B of both sides
/// into plane-major groups, then SchemeBpbcAligner::score_groups (SWA +
/// B2W).
template <bitsim::LaneWord W>
std::vector<std::uint32_t> run_batch(std::span<const encoding::Sequence> xs,
                                     std::span<const encoding::Sequence> ys,
                                     const ScoringScheme& scheme,
                                     bulk::Mode mode,
                                     encoding::TransposeMethod method,
                                     PhaseTimings* timings) {
  util::WallTimer timer;
  const auto bx = transpose<W>(xs, scheme, method);
  const auto by = transpose<W>(ys, scheme, method);
  std::vector<encoding::PlanarGenericView<W>> xv, yv;
  for (std::size_t g = 0; g < bx.groups.size(); ++g) {
    xv.push_back(bx.groups[g].view());
    yv.push_back(by.groups[g].view());
  }
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  const SchemeBpbcAligner<W> aligner(scheme, bx.length, by.length);
  return aligner.score_groups(xv, yv, xs.size(), mode, timings);
}

// The plane view of lane group g over a run of 64-lane shards holding
// `count` lanes, each shard's rows planar (plane p of position i at
// p * n + i). A 64-lane group aliases one shard's rows (zero-copy); a
// 32-lane group takes half a shard's rows; a wide group gathers one
// shard per 64-bit limb (bit k of a wide word is bit k%64 of limb k/64 —
// the bitsim contract), and limbs past `count` stay zero: code-0 lanes,
// matching the in-memory transpose. `rows_of(k)` returns the rows of the
// run's k-th shard. `scratch` backs copied rows and must outlive the view.
template <bitsim::LaneWord W, class RowsOf>
encoding::PlanarGenericView<W> shard_group_view(
    std::size_t g, std::size_t count, std::size_t n, unsigned planes,
    RowsOf&& rows_of, std::vector<W>& scratch) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t size = static_cast<std::size_t>(planes) * n;
  const W* rows = nullptr;
  if constexpr (kLanes == 64) {
    rows = rows_of(g);
  } else if constexpr (kLanes < 64) {
    const std::uint64_t* shard = rows_of(g / 2);
    const unsigned shift = kLanes * (g % 2);
    scratch.resize(size);
    for (std::size_t i = 0; i < size; ++i)
      scratch[i] = static_cast<W>(shard[i] >> shift);
    rows = scratch.data();
  } else {
    constexpr unsigned kLimbs = kLanes / 64;
    scratch.assign(size, W{});
    for (unsigned t = 0; t < kLimbs && g * kLanes + t * std::size_t{64} < count;
         ++t) {
      const std::uint64_t* shard = rows_of(g * kLimbs + t);
      for (std::size_t i = 0; i < size; ++i)
        bitsim::set_limb(scratch[i], t, shard[i]);
    }
    rows = scratch.data();
  }
  encoding::PlanarGenericView<W> v;
  v.length = n;
  v.planes = planes;
  for (unsigned p = 0; p < planes; ++p)
    v.rows[p] = {rows + static_cast<std::size_t>(p) * n, n};
  return v;
}

/// Broadcast query: plane p row i is all-ones where bit p of query[i] is
/// set — every lane holds the query's codes, as the transpose of copies
/// of the query does in its used lanes, with no W2B at all.
template <bitsim::LaneWord W>
encoding::PlanarGeneric<W> broadcast_query(const encoding::Sequence& query,
                                           unsigned eps) {
  constexpr W kZero = bitops::word_traits<W>::zero();
  constexpr W kOnes = bitops::word_traits<W>::ones();
  encoding::PlanarGeneric<W> out;
  out.length = query.size();
  out.planes = eps;
  out.rows.assign(static_cast<std::size_t>(eps) * query.size(), kZero);
  for (unsigned p = 0; p < eps; ++p) {
    for (std::size_t i = 0; i < query.size(); ++i) {
      if ((static_cast<unsigned>(query[i]) >> p) & 1u)
        out.rows[static_cast<std::size_t>(p) * query.size() + i] = kOnes;
    }
  }
  return out;
}

/// One store serve: entries [first_pair, first_pair + count) of the store
/// (first_pair shard-aligned) against `queries` — one per entry, or a
/// single query for all of them. `ys` holds the same entries'
/// sequences, to re-ingest a quarantined shard from.
struct StoreJob {
  std::span<const encoding::Sequence> queries;
  std::span<const encoding::Sequence> ys;
  std::size_t first_pair = 0;
  std::size_t count = 0;
  const util::StopCondition* stop = nullptr;
};

/// What a store serve reports: its shard counts.
struct StoreReport {
  std::uint64_t served = 0;       // verified shards read from the mapping
  std::uint64_t quarantined = 0;  // shards that failed verification
  std::uint64_t pairs_reingested = 0;  // entries rebuilt from ys
};

/// Re-ingested 64-lane planar rows by shard index; unordered_map keeps
/// their addresses stable, so served views stay valid.
using ReingestCache =
    std::unordered_map<std::size_t, std::vector<std::uint64_t>>;

/// Planar rows of store shard `shard`: the cached re-ingest, else the
/// mapping when the shard verifies, else the shard rebuilt from job.ys by
/// the in-memory transpose and cached. It carries no lane word, so it is
/// defined in db_backend.cpp, outside the ISA-compiled files.
const std::uint64_t* store_shard_rows(const StoreJob& job,
                                      db::Reader& reader, std::size_t shard,
                                      const ScoringScheme& scheme,
                                      ReingestCache& cache,
                                      StoreReport& report);

/// The store body behind the store backend (db_backend.cpp), at lane
/// word W. Query lanes: one broadcast view shared by every group when all
/// queries are equal, the in-memory transpose otherwise. Store lanes:
/// shard_group_view over store_shard_rows. Then score_groups (SWA + B2W,
/// polling job.stop).
template <bitsim::LaneWord W>
std::vector<std::uint32_t> run_store(const StoreJob& job,
                                     db::Reader& reader,
                                     const ScoringScheme& scheme,
                                     bulk::Mode mode, ReingestCache& cache,
                                     StoreReport& report,
                                     PhaseTimings* timings) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const unsigned eps = scheme.alphabet_bits();
  const std::size_t n = reader.entry_length();
  const std::size_t n_groups = (job.count + kLanes - 1) / kLanes;

  util::WallTimer timer;
  encoding::PlanarGeneric<W> broadcast;
  encoding::PlanarGenericBatch<W> bx;
  std::vector<encoding::PlanarGenericView<W>> xv, yv;
  const encoding::Sequence& query = job.queries.front();
  if (std::all_of(job.queries.begin(), job.queries.end(),
                  [&](const encoding::Sequence& q) { return q == query; })) {
    broadcast = broadcast_query<W>(query, eps);
    xv.assign(n_groups, broadcast.view());
  } else {
    bx = transpose<W>(job.queries, scheme, encoding::TransposeMethod::kPlanned);
    for (const auto& group : bx.groups) xv.push_back(group.view());
  }

  // Two 32-lane groups read each shard: the second reuses the first's
  // rows, so the shard is fetched and counted once.
  const std::size_t first_shard = job.first_pair / db::kDbLanesPerShard;
  std::size_t last_shard = SIZE_MAX;
  const std::uint64_t* last_rows = nullptr;
  const auto rows_of = [&](std::size_t k) {
    if (first_shard + k != last_shard) {
      last_shard = first_shard + k;
      last_rows =
          store_shard_rows(job, reader, last_shard, scheme, cache, report);
    }
    return last_rows;
  };
  std::vector<std::vector<W>> scratch(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g)
    yv.push_back(
        shard_group_view<W>(g, job.count, n, eps, rows_of, scratch[g]));
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  const SchemeBpbcAligner<W> aligner(scheme, query.size(), n);
  return aligner.score_groups(xv, yv, job.count, mode, timings, job.stop);
}

// The entry points kernel_avx2.cpp and kernel_avx512.cpp instantiate for
// their tagged word; `prefix` is `template` there, `extern template` here.
#define SWBPBC_KERNEL_ENTRY_POINTS(prefix, W)                               \
  prefix std::vector<std::uint32_t> run_batch<W>(                           \
      std::span<const encoding::Sequence>,                                  \
      std::span<const encoding::Sequence>, const ScoringScheme&, bulk::Mode, \
      encoding::TransposeMethod, PhaseTimings*);                            \
  prefix std::vector<std::uint32_t> run_store<W>(                           \
      const StoreJob&, db::Reader&, const ScoringScheme&, bulk::Mode,       \
      ReingestCache&, StoreReport&, PhaseTimings*);

SWBPBC_KERNEL_ENTRY_POINTS(extern template, Avx2Word)
SWBPBC_KERNEL_ENTRY_POINTS(extern template, Avx512Word)

}  // namespace swbpbc::sw::kernel
