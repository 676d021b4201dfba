// Crash-safe request journal: the daemon's exactly-once-computed memory.
//
// Two record kinds ride a util::CheckpointWriter append stream (so the
// journal inherits the checkpoint format's magic/version/fingerprint
// header, per-record checksums, and torn-tail salvage):
//   * admitted  — the full ScreenRequest payload, written BEFORE the
//     request is queued for compute (one unbuffered write, not fsync'd:
//     it survives the daemon's death, not a power loss);
//   * completed — the final ScreenResponse (id, code, scores), written
//     AFTER compute, before the response frame goes out.
//
// A daemon killed (-9) mid-batch therefore restarts into one of two
// states per request, both recoverable: admitted-only (recompute it —
// scoring is deterministic, so the scores come out bit-identical) or
// completed (serve the journaled response; the client retrying the same
// idempotency id gets the exact bytes it would have received). The
// journal's header fingerprint binds it to the scoring configuration, so
// a restart with different parameters refuses the journal (typed
// kCheckpointMismatch) instead of serving scores computed under other
// rules.
//
// Records are independent until they are applied, so a restart replays
// the stream window by window: checksums and decoding run across a thread
// pool, and the records are applied in journal order on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "util/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace swbpbc::service {

class RequestJournal {
 public:
  /// Opens (or creates) the journal at `path`, replaying every valid
  /// record. `fingerprint` must cover the scoring configuration
  /// (sw::fingerprint_scheme + lane width); a journal written under a
  /// different fingerprint is rejected kCheckpointMismatch. A torn tail
  /// record (crash mid-append) is dropped and physically truncated.
  /// Records are checksummed and decoded on `pool`; the result does not
  /// depend on its size.
  static util::Expected<RequestJournal> open(
      const std::string& path, std::uint64_t fingerprint,
      util::ThreadPool& pool = util::ThreadPool::global());

  RequestJournal(RequestJournal&&) noexcept = default;
  RequestJournal& operator=(RequestJournal&&) noexcept = default;

  /// Journals a request at admission (one unbuffered write: it survives
  /// the daemon's death, not a power loss). Must succeed before the
  /// request may enter the compute queue.
  util::Status record_admitted(const ScreenRequest& request);

  /// Journals a terminal response for an id. Must succeed before the
  /// response frame is sent.
  util::Status record_completed(const ScreenResponse& response);

  /// Requests replayed as admitted-but-never-completed, in journal
  /// order. The daemon recomputes these at startup. Consumes the state.
  std::vector<ScreenRequest> take_pending();

  /// Responses replayed as completed, keyed by idempotency id. The
  /// daemon seeds its response cache from this. Consumes the state.
  std::map<std::string, ScreenResponse> take_completed();

  /// Records appended since open (not counting replayed ones).
  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  /// Records recovered from disk at open.
  [[nodiscard]] std::uint64_t replayed() const { return replayed_; }
  /// Frame bytes of the records recovered at open.
  [[nodiscard]] std::uint64_t replayed_bytes() const {
    return replayed_bytes_;
  }

 private:
  explicit RequestJournal(util::CheckpointWriter writer)
      : writer_(std::move(writer)) {}

  util::CheckpointWriter writer_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t replayed_bytes_ = 0;
  std::vector<ScreenRequest> pending_;
  std::map<std::string, ScreenResponse> completed_;
};

}  // namespace swbpbc::service
