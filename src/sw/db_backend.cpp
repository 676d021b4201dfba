#include "sw/db_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitsim/wide_word.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

namespace {

class DbBackend final : public Backend {
 public:
  DbBackend(db::Reader& reader, const DbBackendOptions& options)
      : reader_(reader),
        params_(options.params),
        width_(resolve_lane_width(options.width)),
        mode_(options.mode),
        method_(options.method) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.stop_polling = true;
    caps.lane_width = width_;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    if (job.xs.empty()) return {};
    if (!servable(job)) return run_fallback(job);
    switch (width_) {
      case LaneWidth::k32:
        return run_db<std::uint32_t>(job);
      case LaneWidth::k64:
        return run_db<std::uint64_t>(job);
      case LaneWidth::k128:
        return run_db<bitsim::simd_word<128>>(job);
      case LaneWidth::k256:
        return run_db<bitsim::simd_word<256>>(job);
      case LaneWidth::k512:
        return run_db<bitsim::simd_word<512>>(job);
      case LaneWidth::kScalarWide:
        return run_db<bitsim::wide_word<256, false>>(job);
      case LaneWidth::kAuto:
        break;  // resolve_lane_width never returns kAuto
    }
    return run_fallback(job);
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
    r.scores =
        bpbc_max_scores(job.xs, job.ys, params_, width_, mode_, method_, &t);
    r.timings = t;
    r.has_phase_timings = true;
    r.db_pairs_fallback = job.xs.size();
    return r;
  }

  // Planar rows of one shard — `rows[i]` is the lo (plane 0) word of
  // position i, `rows[n + i]` the hi word — from the mapping when the
  // shard verifies, from the re-ingest cache otherwise.
  const std::uint64_t* rows_for_shard(const ChunkJob& job, std::size_t n,
                                      std::size_t shard, ChunkResult& r) {
    if (auto it = reingested_.find(shard); it != reingested_.end())
      return it->second.data();
    if (auto view = reader_.shard(shard); view.has_value()) {
      ++r.db_shards_served;
      return view->data;
    }
    // Quarantined: rebuild this shard's 64-lane block from the raw
    // sequences with the same in-memory transpose the no-database path
    // runs, so scores stay bit-identical. Cached for later chunks/jobs
    // (cache hits repeat neither the work nor the counters — the totals
    // count distinct quarantined shards).
    const std::size_t local =
        shard * db::kDbLanesPerShard - job.first_pair;
    const std::size_t used = std::min<std::size_t>(
        db::kDbLanesPerShard, job.ys.size() - local);
    const auto tg = encoding::transpose_strings<std::uint64_t>(
        job.ys.subspan(local, used), method_);
    std::vector<std::uint64_t> rows(2 * n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = tg.groups[0].lo[i];
      rows[n + i] = tg.groups[0].hi[i];
    }
    ++r.db_shards_quarantined;
    r.db_pairs_reingested += used;
    return reingested_.emplace(shard, std::move(rows)).first->second.data();
  }

  template <bitsim::LaneWord W>
  ChunkResult run_db(const ChunkJob& job) {
    constexpr unsigned kLanes = bitsim::word_bits_v<W>;
    ChunkResult r;
    const std::size_t count = job.xs.size();
    const std::size_t m = job.xs.front().size();
    const std::size_t n = job.ys.front().size();
    const std::size_t first_shard = job.first_pair / db::kDbLanesPerShard;
    const db::ReaderStats before = reader_.stats();

    util::WallTimer timer;
    // Only the query side is transposed — the point of the store.
    const auto bx = encoding::transpose_strings<W>(job.xs, method_);
    const std::size_t n_groups = bx.groups.size();
    std::vector<encoding::PlanarGenericView<W>> xv, yv(n_groups);
    for (const auto& group : bx.groups)
      xv.push_back(encoding::PlanarGenericView<W>::from(group));

    // A shard's lo/hi rows are the kernel's character planes 0/1.
    const auto planes = [n](std::span<const W> lo, std::span<const W> hi) {
      encoding::PlanarGenericView<W> v;
      v.length = n;
      v.planes = encoding::kBitsPerBase;
      v.rows[0] = lo;
      v.rows[1] = hi;
      return v;
    };
    std::vector<std::vector<W>> scratch;  // lo rows, then hi rows
    if constexpr (kLanes == 64) {
      // One group per shard: alias the mapping (or a cached re-ingest
      // block, which outlives the job) directly. Zero copies.
      for (std::size_t g = 0; g < n_groups; ++g) {
        const std::uint64_t* rows = rows_for_shard(job, n, first_shard + g, r);
        yv[g] = planes({rows, n}, {rows + n, n});
      }
    } else if constexpr (kLanes < 64) {
      // Sub-word lanes: each group is half a shard's rows.
      scratch.assign(n_groups, std::vector<W>(2 * n));
      for (std::size_t g = 0; g < n_groups; ++g) {
        const std::uint64_t* rows =
            rows_for_shard(job, n, first_shard + g / 2, r);
        const unsigned shift = kLanes * (g % 2);
        for (std::size_t i = 0; i < 2 * n; ++i)
          scratch[g][i] = static_cast<W>(rows[i] >> shift);
        yv[g] = planes({scratch[g].data(), n}, {scratch[g].data() + n, n});
      }
    } else {
      // Wide lanes: gather one shard per 64-bit limb (bit k of a wide
      // word is bit k%64 of limb k/64). Limbs past the job's tail stay
      // zero — code 0 lanes, matching the in-memory transpose.
      constexpr unsigned kLimbs = kLanes / 64;
      scratch.assign(n_groups, std::vector<W>(2 * n, W{}));
      for (std::size_t g = 0; g < n_groups; ++g) {
        for (unsigned t = 0; t < kLimbs; ++t) {
          if (g * kLanes + t * std::size_t{64} >= count) break;
          const std::uint64_t* rows =
              rows_for_shard(job, n, first_shard + g * kLimbs + t, r);
          for (std::size_t i = 0; i < 2 * n; ++i)
            bitsim::set_limb(scratch[g][i], t, rows[i]);
        }
        yv[g] = planes({scratch[g].data(), n}, {scratch[g].data() + n, n});
      }
    }
    r.timings.w2b_ms = timer.elapsed_ms();

    const SchemeBpbcAligner<W> aligner(ScoringScheme::from_params(params_),
                                       m, n);
    r.scores = aligner.score_groups(xv, yv, count, mode_, method_,
                                    &r.timings, job.stop);
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
  ScoreParams params_;
  LaneWidth width_;
  bulk::Mode mode_;
  encoding::TransposeMethod method_;
  // Re-ingested 64-lane blocks, keyed by shard index; planar rows as
  // rows_for_shard describes. unordered_map keeps element addresses
  // stable, so served views stay valid for the cache's lifetime.
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> reingested_;
};

}  // namespace

std::unique_ptr<Backend> make_db_backend(db::Reader& reader,
                                         const DbBackendOptions& options) {
  DbBackendOptions opts = options;
  if (opts.scheme.has_value()) {
    if (util::Status s =
            validate_scheme(*opts.scheme, "DbBackendOptions::scheme");
        !s.ok())
      throw util::StatusError(std::move(s));
    const auto params = opts.scheme->to_params();
    if (!params.has_value())
      throw util::StatusError(util::Status::invalid_input(
          "DbBackendOptions::scheme is not ScoreParams-expressible; the "
          "store backend drives the linear DNA kernels — screen a store "
          "with an affine or matrix scheme through "
          "sw::try_scheme_db_max_scores"));
    opts.params = *params;
    opts.scheme.reset();
  }
  return std::make_unique<DbBackend>(reader, opts);
}

}  // namespace swbpbc::sw
