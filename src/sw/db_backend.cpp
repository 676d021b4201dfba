// The store-served front ends of the bit-sliced kernel: the DNA screening
// backend (make_db_backend) and the any-alphabet one-query screen
// (try_scheme_db_max_scores, declared in scheme_aligner.hpp). Both run
// one lane-word body, kernel::run_store (kernel.hpp), and map its shard
// counts onto their own report.
#include "sw/db_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sw/kernel.hpp"
#include "sw/scheme_aligner.hpp"

namespace swbpbc::sw {

namespace kernel {

template <class Seq>
const std::uint64_t* store_shard_rows(const StoreJob<Seq>& job,
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
  if (job.ys.empty()) {
    report.error = view.status();
    return nullptr;
  }
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

template const std::uint64_t* store_shard_rows(
    const StoreJob<encoding::Sequence>&, db::Reader&, std::size_t,
    const ScoringScheme&, ReingestCache&, StoreReport&);
template const std::uint64_t* store_shard_rows(
    const StoreJob<encoding::GenericSequence>&, db::Reader&, std::size_t,
    const ScoringScheme&, ReingestCache&, StoreReport&);

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
    caps.stop_polling = true;
    caps.lane_width = width_;
    caps.kernel_isa = kernel_isa(width_, host_cpu_features());
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
           reader_.plane_bits() == encoding::kBitsPerBase &&
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
  const kernel::StoreJob<encoding::Sequence> store_job{
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
  if (!options.scheme.uniform())
    throw util::StatusError(util::Status::invalid_input(
        "DbBackendOptions::scheme carries a substitution matrix; the store "
        "backend serves DNA batches — screen a protein store through "
        "sw::try_scheme_db_max_scores"));
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
  // A quarantined shard re-ingests from the corpus, so the corpus must be
  // the one the store was built from, indexed like the store.
  if (!corpus.empty() && corpus.size() != reader.entry_count())
    return util::Status::invalid_input(
        "re-ingest corpus has " + std::to_string(corpus.size()) +
        " sequences but the database stores " +
        std::to_string(reader.entry_count()));
  if (util::Status s =
          check_store_matches(reader, corpus, scheme.alphabet_bits(), true);
      !s.ok())
    return s;
  if (reader.entry_count() == 0) return std::vector<std::uint32_t>{};
  if (reader.entry_length() == 0)
    return util::Status::db_mismatch("database entries are empty");
  if (util::Status s = validate_codes(corpus, scheme, "corpus"); !s.ok())
    return s;

  const LaneWidth resolved = resolve_lane_width(width);
  if (stats) stats->lane_width = resolved;
  kernel::ReingestCache cache;
  kernel::StoreReport report;
  const kernel::StoreJob<encoding::GenericSequence> job{
      {&query, 1}, corpus, 0, reader.entry_count(), nullptr};
  auto scores = with_lane_word<LaneWords::kNative>(
      resolved, [&]<class W>(std::type_identity<W>) {
        return kernel::run_store<W>(job, reader, scheme, mode, cache, report,
                                    timings);
      });
  if (stats) {
    stats->shards_served = report.served;
    stats->shards_quarantined = report.quarantined;
    // Every quarantined shard re-ingests when there is a corpus to do so.
    stats->shards_reingested = corpus.empty() ? 0 : report.quarantined;
  }
  if (!report.error.ok()) return report.error;
  return scores;
}

}  // namespace swbpbc::sw
