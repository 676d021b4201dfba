// The lane-word-templated batch bodies of the host bit-sliced kernel:
// W2B, SWA and B2W of an in-memory batch (run_batch, behind bpbc.cpp's
// front ends and host backend), of the DNA store backend (DbBackend::
// run_db) and of the any-alphabet store screen (run_scheme_db, behind
// try_scheme_db_max_scores), plus the one shard-to-lane routine the two
// store paths share (shard_group_view).
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
#include <atomic>
#include <cstdint>
#include <optional>
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
#include "sw/backend.hpp"
#include "sw/bpbc.hpp"
#include "sw/db_backend.hpp"
#include "sw/lane.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw::kernel {

// W2B of one side: a DNA batch is the 2-plane instance.
template <bitsim::LaneWord W, class Seq>
encoding::PlanarGenericBatch<W> transpose(std::span<const Seq> seqs,
                                          const ScoringScheme& scheme,
                                          encoding::TransposeMethod method) {
  if constexpr (std::is_same_v<Seq, encoding::Sequence>)
    return encoding::transpose_strings<W>(seqs, method);
  else
    return encoding::transpose_generic_planar<W>(
        seqs, scheme.alphabet_bits(), method);
}

/// Scores a validated in-memory batch at lane word W: W2B of both sides
/// into plane-major groups, then SchemeBpbcAligner::score_groups (SWA +
/// B2W). Seq is encoding::Sequence (DNA) or encoding::GenericSequence.
template <bitsim::LaneWord W, class Seq>
std::vector<std::uint32_t> run_batch(std::span<const Seq> xs,
                                     std::span<const Seq> ys,
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
// run's k-th shard, or nullptr when it cannot be served (the view is
// then nullopt). `scratch` backs copied rows and must outlive the view.
template <bitsim::LaneWord W, class RowsOf>
std::optional<encoding::PlanarGenericView<W>> shard_group_view(
    std::size_t g, std::size_t count, std::size_t n, unsigned planes,
    RowsOf&& rows_of, std::vector<W>& scratch) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t size = static_cast<std::size_t>(planes) * n;
  const W* rows = nullptr;
  if constexpr (kLanes == 64) {
    rows = rows_of(g);
    if (rows == nullptr) return std::nullopt;
  } else if constexpr (kLanes < 64) {
    const std::uint64_t* shard = rows_of(g / 2);
    if (shard == nullptr) return std::nullopt;
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
      if (shard == nullptr) return std::nullopt;
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

/// The DNA store backend behind make_db_backend (db_backend.hpp). Its
/// non-template members live in db_backend.cpp.
class DbBackend final : public Backend {
 public:
  DbBackend(db::Reader& reader, const DbBackendOptions& options);

  [[nodiscard]] BackendCaps caps() const override;
  ChunkResult run(const ChunkJob& job) override;

  /// Serves a servable job at lane word W: W2B of the query side only,
  /// store rows through shard_group_view, then SWA + B2W.
  template <bitsim::LaneWord W>
  ChunkResult run_db(const ChunkJob& job);

 private:
  // A job maps onto the store when its origin is known, shard-aligned,
  // and inside the database, and the shapes agree. Synthesized subsets
  // (quarantine rescores) carry kUnknownPair and land in the fallback.
  [[nodiscard]] bool servable(const ChunkJob& job) const;
  ChunkResult run_fallback(const ChunkJob& job);
  // Planar rows of one shard from the mapping when the shard verifies,
  // from the re-ingest cache otherwise.
  const std::uint64_t* rows_for_shard(const ChunkJob& job, std::size_t shard,
                                      ChunkResult& r);

  db::Reader& reader_;
  ScoringScheme scheme_;
  LaneWidth width_;
  bulk::Mode mode_;
  // Re-ingested 64-lane planar rows, keyed by shard index. unordered_map
  // keeps element addresses stable, so served views stay valid for the
  // cache's lifetime.
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> reingested_;
};

template <bitsim::LaneWord W>
ChunkResult DbBackend::run_db(const ChunkJob& job) {
  ChunkResult r;
  const std::size_t count = job.xs.size();
  const std::size_t m = job.xs.front().size();
  const std::size_t n = job.ys.front().size();
  const std::size_t first_shard = job.first_pair / db::kDbLanesPerShard;
  const db::ReaderStats before = reader_.stats();

  util::WallTimer timer;
  // Only the query side is transposed — the point of the store.
  const auto bx = encoding::transpose_strings<W>(job.xs);
  const std::size_t n_groups = bx.groups.size();
  // Two 32-lane groups read each shard: the second reuses the first's
  // rows, so the shard is fetched and counted once per job.
  std::size_t last_shard = SIZE_MAX;
  const std::uint64_t* last_rows = nullptr;
  const auto rows_of = [&](std::size_t k) {
    if constexpr (bitsim::word_bits_v<W> < 64) {
      if (k == last_shard) return last_rows;
      last_shard = k;
      return last_rows = rows_for_shard(job, first_shard + k, r);
    } else {
      return rows_for_shard(job, first_shard + k, r);
    }
  };
  std::vector<encoding::PlanarGenericView<W>> xv, yv;
  std::vector<std::vector<W>> scratch(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    xv.push_back(bx.groups[g].view());
    yv.push_back(*shard_group_view<W>(g, count, n, encoding::kBitsPerBase,
                                      rows_of, scratch[g]));
  }
  r.timings.w2b_ms = timer.elapsed_ms();

  const SchemeBpbcAligner<W> aligner(scheme_, m, n);
  r.scores =
      aligner.score_groups(xv, yv, count, mode_, &r.timings, job.stop);
  r.has_phase_timings = true;

  // First-touch shard verification folds into the screen's integrity
  // accounting (checks evaluated + time spent).
  const db::ReaderStats after = reader_.stats();
  r.integrity_checks += (after.shards_verified + after.shards_corrupt) -
                        (before.shards_verified + before.shards_corrupt);
  r.integrity_ms += after.verify_ms - before.verify_ms;
  return r;
}

/// Broadcast query: plane p row i is all-ones where bit p of query[i] is
/// set — every lane holds the query, with no W2B at all.
template <bitsim::LaneWord W>
encoding::PlanarGeneric<W> broadcast_query(
    const encoding::GenericSequence& query, unsigned eps) {
  constexpr W kZero = bitops::word_traits<W>::zero();
  constexpr W kOnes = bitops::word_traits<W>::ones();
  encoding::PlanarGeneric<W> out;
  out.length = query.size();
  out.planes = eps;
  out.rows.assign(static_cast<std::size_t>(eps) * query.size(), kZero);
  for (unsigned p = 0; p < eps; ++p) {
    for (std::size_t i = 0; i < query.size(); ++i) {
      if ((unsigned{query[i]} >> p) & 1u)
        out.rows[static_cast<std::size_t>(p) * query.size() + i] = kOnes;
    }
  }
  return out;
}

/// Screens one validated query against every store entry at lane word W
/// (try_scheme_db_max_scores' body): quarantined shards re-ingest from
/// `corpus` when it is non-empty and surface their status otherwise.
template <bitsim::LaneWord W>
util::Expected<std::vector<std::uint32_t>> run_scheme_db(
    const encoding::GenericSequence& query, db::Reader& reader,
    const ScoringScheme& scheme, bulk::Mode mode,
    std::span<const encoding::GenericSequence> corpus, SchemeDbStats* stats,
    PhaseTimings* timings) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const unsigned eps = scheme.alphabet_bits();
  const std::size_t entries = reader.entry_count();
  const std::size_t n = reader.entry_length();
  const std::size_t n_groups = (entries + kLanes - 1) / kLanes;

  util::WallTimer timer;
  const encoding::PlanarGeneric<W> xq = broadcast_query<W>(query, eps);
  const SchemeBpbcAligner<W> aligner(scheme, query.size(), n);
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  std::vector<std::uint32_t> scores(entries, 0);
  std::vector<util::Status> group_status(n_groups);
  std::atomic<std::uint64_t> served{0}, quarantined{0}, reingested{0};

  timer.reset();
  bulk::for_each_instance(n_groups, mode, [&](std::size_t g) {
    // Shards come from the mapping when healthy and from an in-memory
    // re-ingest of the corpus slice when quarantined; the group's view
    // reads `reingest` (at 64 lanes) until it is scored.
    std::vector<std::uint64_t> reingest;
    const auto rows_of = [&](std::size_t shard_idx) -> const std::uint64_t* {
      auto shard = reader.shard(shard_idx);
      if (shard.has_value()) {
        served.fetch_add(1, std::memory_order_relaxed);
        return shard->data;
      }
      quarantined.fetch_add(1, std::memory_order_relaxed);
      if (corpus.empty()) {
        group_status[g] = shard.status();
        return nullptr;
      }
      const std::size_t first = shard_idx * db::kDbLanesPerShard;
      const std::size_t lanes =
          std::min<std::size_t>(db::kDbLanesPerShard, corpus.size() - first);
      reingest = std::move(encoding::transpose_generic_planar<std::uint64_t>(
                               corpus.subspan(first, lanes), eps)
                               .groups.front()
                               .rows);
      reingested.fetch_add(1, std::memory_order_relaxed);
      return reingest.data();
    };
    std::vector<W> scratch;
    const auto yv = shard_group_view<W>(g, entries, n, eps, rows_of, scratch);
    if (!yv) return;

    const auto lane_scores = aligner.max_scores(xq.view(), *yv);
    const std::size_t base = g * kLanes;
    const std::size_t used = std::min<std::size_t>(kLanes, entries - base);
    std::copy_n(lane_scores.begin(), used,
                scores.begin() + static_cast<std::ptrdiff_t>(base));
  });
  if (timings) {
    timings->swa_ms = timer.elapsed_ms();
    timings->b2w_ms = 0.0;
  }

  if (stats) {
    stats->shards_served = served.load();
    stats->shards_quarantined = quarantined.load();
    stats->shards_reingested = reingested.load();
  }
  for (const util::Status& st : group_status) {
    if (!st.ok()) return st;
  }
  return scores;
}

// The entry points kernel_avx2.cpp and kernel_avx512.cpp instantiate for
// their tagged word; `prefix` is `template` there, `extern template` here.
#define SWBPBC_KERNEL_ENTRY_POINTS(prefix, W)                                \
  prefix std::vector<std::uint32_t> run_batch<W, encoding::Sequence>(        \
      std::span<const encoding::Sequence>,                                   \
      std::span<const encoding::Sequence>, const ScoringScheme&, bulk::Mode, \
      encoding::TransposeMethod, PhaseTimings*);                             \
  prefix std::vector<std::uint32_t> run_batch<W, encoding::GenericSequence>( \
      std::span<const encoding::GenericSequence>,                            \
      std::span<const encoding::GenericSequence>, const ScoringScheme&,      \
      bulk::Mode, encoding::TransposeMethod, PhaseTimings*);                 \
  prefix ChunkResult DbBackend::run_db<W>(const ChunkJob&);                  \
  prefix util::Expected<std::vector<std::uint32_t>> run_scheme_db<W>(        \
      const encoding::GenericSequence&, db::Reader&, const ScoringScheme&,   \
      bulk::Mode, std::span<const encoding::GenericSequence>,                \
      SchemeDbStats*, PhaseTimings*);

SWBPBC_KERNEL_ENTRY_POINTS(extern template, Avx2Word)
SWBPBC_KERNEL_ENTRY_POINTS(extern template, Avx512Word)

}  // namespace swbpbc::sw::kernel
