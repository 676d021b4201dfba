// Scoring backend that serves the ys side from the pre-transposed
// database store (db/reader.hpp), so only the query side pays W2B at
// serve time, and a query repeated across the job pays none.
//
// Shards hold 64-lane bit-plane rows. The store body (kernel::run_store,
// shared with try_scheme_db_max_scores) turns them into lane groups: at
// 64-bit lanes a group's planes alias the mmap directly (zero-copy); wide
// lane words gather one 64-bit limb per shard (bit k of a wide word is
// bit k%64 of limb k/64 — the bitsim contract), and 32-bit lanes take
// half a shard row. All widths therefore score bit-identically to the
// in-memory path, from one on-disk artifact.
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
#include <span>
#include <string>

#include "bulk/executor.hpp"
#include "db/builder.hpp"
#include "db/reader.hpp"
#include "sw/backend.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

struct DbBackendOptions {
  // Scoring model: any uniform scheme, linear or affine, scored by the
  // same SchemeBpbcAligner as the in-memory path. make_db_backend rejects
  // an invalid or matrix scheme with a typed kInvalidInput StatusError —
  // a protein store screens through sw::try_scheme_db_max_scores.
  ScoringScheme scheme;
  LaneWidth width = LaneWidth::k64;
  bulk::Mode mode = bulk::Mode::kSerial;
};

/// Backend serving `reader` (not owned; must outlive the backend). Jobs
/// whose [first_pair, first_pair + size) maps onto whole shards of the
/// database are served from the store; everything else falls back to
/// in-memory scoring.
std::unique_ptr<Backend> make_db_backend(db::Reader& reader,
                                         const DbBackendOptions& options);

/// Whether `reader` describes the batch `ys`: `planes`-bit planes and,
/// unless `ys` is empty, ys.size() entries of ys' length with (when
/// `verify_content`) ys' content fingerprint — a stale store would
/// otherwise score the wrong sequences bit-perfectly. Typed kDbMismatch.
template <class Seq>
util::Status check_store_matches(const db::Reader& reader,
                                 std::span<const Seq> ys, unsigned planes,
                                 bool verify_content) {
  const std::string store = "database '" + reader.path() + "'";
  if (reader.plane_bits() != planes)
    return util::Status::db_mismatch(
        store + " stores " + std::to_string(reader.plane_bits()) +
        "-bit planes but the scheme's alphabet needs " +
        std::to_string(planes) +
        " (was the store built for a different alphabet?)");
  if (ys.empty()) return {};
  if (reader.entry_count() != ys.size() ||
      reader.entry_length() != ys.front().size())
    return util::Status::db_mismatch(
        store + " holds " + std::to_string(reader.entry_count()) +
        " entries of length " + std::to_string(reader.entry_length()) +
        "; the batch screens " + std::to_string(ys.size()) +
        " sequences of length " + std::to_string(ys.front().size()));
  if (verify_content &&
      db::content_fingerprint(ys) != reader.content_fingerprint())
    return util::Status::db_mismatch(
        store +
        " content fingerprint disagrees with the given sequences (stale or "
        "reordered store or sequences; screen the sequences it was built "
        "from, or rebuild it)");
  return {};
}

}  // namespace swbpbc::sw
