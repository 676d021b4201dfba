// Scoring backend that serves the ys side from the pre-transposed
// database store (db/reader.hpp), so only the query side pays W2B at
// serve time.
//
// Shards hold 64-lane bit-plane rows. At 64-bit lanes a group's hi/lo
// slices alias the mmap directly (zero-copy); wide lane words gather one
// 64-bit limb per shard (bit k of a wide word is bit k%64 of limb k/64 —
// the bitsim contract), and 32-bit lanes take half a shard row. All
// widths therefore score bit-identically to the in-memory path, from one
// on-disk artifact.
//
// Robustness: a shard that fails its first-touch checksum (bit rot,
// truncation, injected fault) is quarantined and re-ingested from the raw
// job sequences via the in-memory transpose — scores stay bit-identical,
// only that shard loses the zero-copy fast path. Jobs the store cannot
// map (synthesized quarantine rescores with ChunkJob::kUnknownPair,
// misaligned origins, shape mismatches) fall back to whole-job in-memory
// scoring. Both recoveries are counted on ChunkResult (db_* fields) and
// folded into ReliabilityReport by the screen loop — deliberately NOT
// reported as ChunkResult::faults, which would burn whole-chunk retries
// on persistent media damage a re-run cannot clear.
#pragma once

#include <memory>
#include <optional>

#include "bulk/executor.hpp"
#include "db/reader.hpp"
#include "sw/backend.hpp"

namespace swbpbc::sw {

struct DbBackendOptions {
  ScoreParams params;
  // Full scoring model; outranks `params` when set. The store backend
  // scores linear DNA only, so only ScoreParams-expressible schemes are
  // accepted (they lower onto `params`, bit-identically);
  // make_db_backend rejects affine or matrix schemes with a typed
  // kInvalidInput StatusError — those screen a store through
  // sw::try_scheme_db_max_scores instead.
  std::optional<ScoringScheme> scheme;
  LaneWidth width = LaneWidth::k64;
  bulk::Mode mode = bulk::Mode::kSerial;
  // W2B method for the query side and for shard re-ingest.
  encoding::TransposeMethod method = encoding::TransposeMethod::kPlanned;
};

/// Backend serving `reader` (not owned; must outlive the backend). Jobs
/// whose [first_pair, first_pair + size) maps onto whole shards of the
/// database are served from the store; everything else falls back to
/// in-memory scoring.
std::unique_ptr<Backend> make_db_backend(db::Reader& reader,
                                         const DbBackendOptions& options);

}  // namespace swbpbc::sw
