// The store-served front ends of the bit-sliced kernel: the DNA screening
// backend (make_db_backend) and the any-alphabet one-query screen
// (try_scheme_db_max_scores, declared in scheme_aligner.hpp). Both turn
// 64-lane shard rows into lane groups through one routine,
// shard_group_view; their lane-word bodies (DbBackend::run_db,
// run_scheme_db) live in kernel.hpp with it.
#include "sw/db_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "db/builder.hpp"
#include "sw/kernel.hpp"
#include "sw/scheme_aligner.hpp"

namespace swbpbc::sw {

using kernel::DbBackend;

DbBackend::DbBackend(db::Reader& reader, const DbBackendOptions& options)
    : reader_(reader),
      scheme_(options.scheme),
      width_(resolve_lane_width(options.width)),
      mode_(options.mode) {}

BackendCaps DbBackend::caps() const {
  BackendCaps caps;
  caps.stop_polling = true;
  caps.lane_width = width_;
  caps.kernel_isa = kernel_isa(width_, host_cpu_features());
  return caps;
}

ChunkResult DbBackend::run(const ChunkJob& job) {
  if (job.xs.empty()) return {};
  if (!servable(job)) return run_fallback(job);
  return with_lane_word<LaneWords::kNative>(
      width_,
      [&]<class W>(std::type_identity<W>) { return run_db<W>(job); });
}

bool DbBackend::servable(const ChunkJob& job) const {
  return job.first_pair != ChunkJob::kUnknownPair &&
         job.first_pair % db::kDbLanesPerShard == 0 &&
         job.first_pair + job.xs.size() <= reader_.entry_count() &&
         reader_.plane_bits() == encoding::kBitsPerBase &&
         job.ys.front().size() == reader_.entry_length();
}

ChunkResult DbBackend::run_fallback(const ChunkJob& job) {
  ChunkResult r;
  PhaseTimings t;
  r.scores = bpbc_max_scores(job.xs, job.ys, scheme_, width_, mode_,
                             encoding::TransposeMethod::kPlanned, &t);
  r.timings = t;
  r.has_phase_timings = true;
  r.db_pairs_fallback = job.xs.size();
  return r;
}

const std::uint64_t* DbBackend::rows_for_shard(const ChunkJob& job,
                                               std::size_t shard,
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
  // payload. Cached for later chunks/jobs (cache hits repeat neither the
  // work nor the counters — the totals count distinct quarantined
  // shards).
  const std::size_t local = shard * db::kDbLanesPerShard - job.first_pair;
  const std::size_t used =
      std::min<std::size_t>(db::kDbLanesPerShard, job.ys.size() - local);
  auto batch =
      encoding::transpose_strings<std::uint64_t>(job.ys.subspan(local, used));
  ++r.db_shards_quarantined;
  r.db_pairs_reingested += used;
  return reingested_.emplace(shard, std::move(batch.groups.front().rows))
      .first->second.data();
}

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
  return with_lane_word<LaneWords::kNative>(
      resolved, [&]<class W>(std::type_identity<W>) {
        return kernel::run_scheme_db<W>(query, reader, scheme, mode, corpus,
                                        stats, timings);
      });
}

}  // namespace swbpbc::sw
