// The store-served front ends of the bit-sliced kernel: the DNA screening
// backend (make_db_backend) and the any-alphabet one-query screen
// (try_scheme_db_max_scores, declared in scheme_aligner.hpp). Both turn
// 64-lane shard rows into lane groups through one routine,
// shard_group_view.
#include "sw/db_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitsim/wide_word.hpp"
#include "db/builder.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

namespace {

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

class DbBackend final : public Backend {
 public:
  DbBackend(db::Reader& reader, const DbBackendOptions& options)
      : reader_(reader),
        scheme_(options.scheme),
        width_(resolve_lane_width(options.width)),
        mode_(options.mode) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.stop_polling = true;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    if (job.xs.empty()) return {};
    if (!servable(job)) return run_fallback(job);
    return with_lane_word(width_, [&]<class W>(std::type_identity<W>) {
      return run_db<W>(job);
    });
  }

 private:
  // A job maps onto the store when its origin is known, shard-aligned,
  // and inside the database, and the shapes agree. Synthesized subsets
  // (quarantine rescores) carry kUnknownPair and land in the fallback.
  [[nodiscard]] bool servable(const ChunkJob& job) const {
    return job.first_pair != ChunkJob::kUnknownPair &&
           job.first_pair % db::kDbLanesPerShard == 0 &&
           job.first_pair + job.xs.size() <= reader_.entry_count() &&
           reader_.plane_bits() == encoding::kBitsPerBase &&
           job.ys.front().size() == reader_.entry_length();
  }

  ChunkResult run_fallback(const ChunkJob& job) {
    ChunkResult r;
    PhaseTimings t;
    r.scores = bpbc_max_scores(job.xs, job.ys, scheme_, width_, mode_,
                               encoding::TransposeMethod::kPlanned, &t);
    r.timings = t;
    r.has_phase_timings = true;
    r.db_pairs_fallback = job.xs.size();
    return r;
  }

  // Planar rows of one shard from the mapping when the shard verifies,
  // from the re-ingest cache otherwise.
  const std::uint64_t* rows_for_shard(const ChunkJob& job, std::size_t shard,
                                      ChunkResult& r) {
    if (auto it = reingested_.find(shard); it != reingested_.end())
      return it->second.data();
    if (auto view = reader_.shard(shard); view.has_value()) {
      ++r.db_shards_served;
      return view->data;
    }
    // Quarantined: rebuild this shard's 64-lane group from the raw
    // sequences with the same in-memory transpose the no-database path
    // runs, so scores stay bit-identical; its planar rows are the shard
    // payload. Cached for later chunks/jobs (cache hits repeat neither
    // the work nor the counters — the totals count distinct quarantined
    // shards).
    const std::size_t local =
        shard * db::kDbLanesPerShard - job.first_pair;
    const std::size_t used = std::min<std::size_t>(
        db::kDbLanesPerShard, job.ys.size() - local);
    auto batch = encoding::transpose_strings<std::uint64_t>(
        job.ys.subspan(local, used));
    ++r.db_shards_quarantined;
    r.db_pairs_reingested += used;
    return reingested_.emplace(shard, std::move(batch.groups.front().rows))
        .first->second.data();
  }

  template <bitsim::LaneWord W>
  ChunkResult run_db(const ChunkJob& job) {
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
    const auto rows_of = [&](std::size_t k) {
      return rows_for_shard(job, first_shard + k, r);
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
    r.scores = aligner.score_groups(xv, yv, count, mode_, &r.timings,
                                    job.stop);
    r.has_phase_timings = true;

    // First-touch shard verification folds into the screen's integrity
    // accounting (checks evaluated + time spent).
    const db::ReaderStats after = reader_.stats();
    r.integrity_checks += (after.shards_verified + after.shards_corrupt) -
                          (before.shards_verified + before.shards_corrupt);
    r.integrity_ms += after.verify_ms - before.verify_ms;
    return r;
  }

  db::Reader& reader_;
  ScoringScheme scheme_;
  LaneWidth width_;
  bulk::Mode mode_;
  // Re-ingested 64-lane planar rows, keyed by shard index. unordered_map
  // keeps element addresses stable, so served views stay valid for the
  // cache's lifetime.
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> reingested_;
};

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
      if ((query[i] >> p) & 1u)
        out.rows[static_cast<std::size_t>(p) * query.size() + i] = kOnes;
    }
  }
  return out;
}

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

}  // namespace

std::unique_ptr<Backend> make_db_backend(db::Reader& reader,
                                         const DbBackendOptions& options) {
  if (util::Status s =
          validate_scheme(options.scheme, "DbBackendOptions::scheme");
      !s.ok())
    throw util::StatusError(std::move(s));
  if (!options.scheme.params_expressible())
    throw util::StatusError(util::Status::invalid_input(
        "DbBackendOptions::scheme is not linear-uniform; the store backend "
        "drives the linear DNA kernels — screen a store with an affine or "
        "matrix scheme through sw::try_scheme_db_max_scores"));
  return std::make_unique<DbBackend>(reader, options);
}

util::Expected<std::vector<std::uint32_t>> try_scheme_db_max_scores(
    const encoding::GenericSequence& query, db::Reader& reader,
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    std::span<const encoding::GenericSequence> corpus, SchemeDbStats* stats,
    PhaseTimings* timings) {
  if (util::Status s = validate_scheme(scheme); !s.ok()) return s;
  if (query.empty())
    return util::Status::invalid_input("query must be non-empty");
  if (util::Status s = validate_codes({&query, 1}, scheme, "query"); !s.ok())
    return s;
  if (reader.plane_bits() != scheme.alphabet_bits())
    return util::Status::db_mismatch(
        "database stores " + std::to_string(reader.plane_bits()) +
        "-bit planes but the scheme's alphabet needs " +
        std::to_string(scheme.alphabet_bits()) +
        " (was the store built for a different alphabet?)");
  if (reader.entry_count() == 0) return std::vector<std::uint32_t>{};
  if (reader.entry_length() == 0)
    return util::Status::db_mismatch("database entries are empty");
  if (!corpus.empty() && corpus.size() != reader.entry_count())
    return util::Status::invalid_input(
        "re-ingest corpus has " + std::to_string(corpus.size()) +
        " sequences but the database stores " +
        std::to_string(reader.entry_count()));
  // A quarantined shard re-ingests from the corpus, so the corpus must be
  // the one the store was built from.
  if (!corpus.empty() &&
      db::content_fingerprint(corpus) != reader.content_fingerprint())
    return util::Status::db_mismatch(
        "database '" + reader.path() +
        "' content fingerprint disagrees with the re-ingest corpus (stale "
        "or reordered corpus; pass the sequences the store was built from)");
  if (util::Status s = validate_codes(corpus, scheme, "corpus"); !s.ok())
    return s;

  // The store's shard layout is 64-lane; serve at k64 or wider.
  LaneWidth resolved = resolve_lane_width(width);
  if (resolved == LaneWidth::k32) resolved = LaneWidth::k64;
  if (stats) stats->lane_width = resolved;
  return with_lane_word(resolved, [&]<class W>(std::type_identity<W>) {
    return run_scheme_db<W>(query, reader, scheme, mode, corpus, stats,
                            timings);
  });
}

}  // namespace swbpbc::sw
