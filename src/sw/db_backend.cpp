// The store-served screening backend (make_db_backend): any alphabet's
// store, served through one lane-word body, kernel::run_store
// (kernel.hpp), with its shard counts mapped onto the ChunkResult.
#include "sw/db_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "db/builder.hpp"
#include "sw/kernel.hpp"

namespace swbpbc::sw {

namespace kernel {

const std::uint64_t* store_shard_rows(const StoreJob& job,
                                      db::Reader& reader, std::size_t shard,
                                      const ScoringScheme& scheme,
                                      ReingestCache& cache,
                                      StoreReport& report) {
  if (auto it = cache.find(shard); it != cache.end())
    return it->second.data();
  auto view = reader.shard(shard);
  if (view.has_value()) {
    ++report.served;
    return view->data;
  }
  ++report.quarantined;
  // Rebuild the shard's 64-lane group from the raw sequences with the
  // same in-memory transpose the no-store path runs, so scores stay
  // bit-identical; its planar rows are the shard payload.
  const std::size_t local = shard * db::kDbLanesPerShard - job.first_pair;
  const std::size_t used =
      std::min<std::size_t>(db::kDbLanesPerShard, job.ys.size() - local);
  auto batch = transpose<std::uint64_t>(job.ys.subspan(local, used), scheme,
                                        encoding::TransposeMethod::kPlanned);
  report.pairs_reingested += used;
  return cache.emplace(shard, std::move(batch.groups.front().rows))
      .first->second.data();
}

}  // namespace kernel

namespace {

class DbBackend final : public Backend {
 public:
  DbBackend(db::Reader& reader, const DbBackendOptions& options)
      : reader_(reader),
        scheme_(options.scheme),
        width_(resolve_lane_width(options.width)),
        mode_(options.mode),
        host_(make_host_backend(scheme_, width_, mode_)) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override;

 private:
  // A job maps onto the store when its origin is known, shard-aligned,
  // and inside the database, and the shapes agree. Synthesized subsets
  // (quarantine rescores) carry kUnknownPair and land in the fallback.
  [[nodiscard]] bool servable(const ChunkJob& job) const {
    return job.first_pair != ChunkJob::kUnknownPair &&
           job.first_pair % db::kDbLanesPerShard == 0 &&
           job.first_pair + job.xs.size() <= reader_.entry_count() &&
           reader_.plane_bits() == scheme_.alphabet_bits() &&
           job.ys.front().size() == reader_.entry_length();
  }

  db::Reader& reader_;
  ScoringScheme scheme_;
  LaneWidth width_;
  bulk::Mode mode_;
  std::unique_ptr<Backend> host_;  // scores the jobs the store cannot
  // Kept across jobs: a quarantined shard is re-ingested once per backend.
  kernel::ReingestCache reingested_;
};

ChunkResult DbBackend::run(const ChunkJob& job) {
  if (job.xs.empty()) return {};
  if (!servable(job)) {
    ChunkResult r = host_->run(job);
    r.db_pairs_fallback = job.xs.size();
    return r;
  }
  ChunkResult r;
  kernel::StoreReport report;
  const kernel::StoreJob store_job{
      job.xs, job.ys, job.first_pair, job.xs.size(), job.stop};
  const db::ReaderStats before = reader_.stats();
  // job.ys re-ingests every quarantined shard, so the serve cannot fail.
  r.scores = with_lane_word<LaneWords::kNative>(
      width_, [&]<class W>(std::type_identity<W>) {
        return kernel::run_store<W>(store_job, reader_, scheme_, mode_,
                                    reingested_, report, &r.timings);
      });
  r.has_phase_timings = true;
  r.db_shards_served = report.served;
  r.db_shards_quarantined = report.quarantined;
  r.db_pairs_reingested = report.pairs_reingested;

  // First-touch shard verification folds into the screen's integrity
  // accounting (checks evaluated + time spent).
  const db::ReaderStats after = reader_.stats();
  r.integrity_checks += (after.shards_verified + after.shards_corrupt) -
                        (before.shards_verified + before.shards_corrupt);
  r.integrity_ms += after.verify_ms - before.verify_ms;
  return r;
}

}  // namespace

std::unique_ptr<Backend> make_db_backend(db::Reader& reader,
                                         const DbBackendOptions& options) {
  if (util::Status s =
          validate_scheme(options.scheme, "DbBackendOptions::scheme");
      !s.ok())
    throw util::StatusError(std::move(s));
  return std::make_unique<DbBackend>(reader, options);
}

util::Status check_store_matches(const db::Reader& reader,
                                 std::span<const encoding::Sequence> ys,
                                 unsigned planes) {
  const std::string store = "database '" + reader.path() + "'";
  if (reader.plane_bits() != planes)
    return util::Status::db_mismatch(
        store + " stores " + std::to_string(reader.plane_bits()) +
        "-bit planes but the scheme's alphabet needs " +
        std::to_string(planes) +
        " (was the store built for a different alphabet?)");
  if (reader.entry_count() != ys.size() ||
      reader.entry_length() != ys.front().size())
    return util::Status::db_mismatch(
        store + " holds " + std::to_string(reader.entry_count()) +
        " entries of length " + std::to_string(reader.entry_length()) +
        "; the batch screens " + std::to_string(ys.size()) +
        " sequences of length " + std::to_string(ys.front().size()));
  if (db::content_fingerprint(ys) != reader.content_fingerprint())
    return util::Status::db_mismatch(
        store +
        " content fingerprint disagrees with the given sequences (stale or "
        "reordered store or sequences; screen the sequences it was built "
        "from, or rebuild it)");
  return {};
}

}  // namespace swbpbc::sw
