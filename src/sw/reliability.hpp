// Self-check and recovery accounting for the screening pipeline.
//
// The BPBC filter is a screening step: a corrupted lane that silently
// drops or fabricates a hit defeats its purpose. When SelfCheckConfig is
// enabled, sw::screen re-scores a configurable sample of lanes (plus every
// hit) against the scalar reference, quarantines mismatching lanes,
// retries them through the same backend, and finally falls back to the
// wordwise CPU path; ReliabilityReport accounts for every action so an
// operator can reconcile detected corruption with injected faults (see
// device/fault.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace swbpbc::sw {

/// The five stages of the paper's §V device pipeline. In-band integrity
/// checks attribute detected corruption to the stage that produced it.
enum class PipelineStage : std::uint8_t { kH2G, kW2B, kSWA, kB2W, kG2H };

/// Number of PipelineStage values; sized arrays indexed by stage.
inline constexpr std::size_t kNumPipelineStages = 5;

inline const char* stage_name(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kH2G: return "H2G";
    case PipelineStage::kW2B: return "W2B";
    case PipelineStage::kSWA: return "SWA";
    case PipelineStage::kB2W: return "B2W";
    case PipelineStage::kG2H: return "G2H";
  }
  return "?";
}

/// One in-band integrity detection, attributed to (chunk, stage, block).
/// The backend fills stage and block; sw::screen adds the chunk index.
struct StageFault {
  static constexpr std::size_t kNoBlock = ~std::size_t{0};

  std::size_t chunk = 0;
  PipelineStage stage = PipelineStage::kSWA;
  std::size_t block = kNoBlock;  // device block (group); kNoBlock if n/a
};

struct SelfCheckConfig {
  bool enabled = false;  // everything below is inert when false
  // Re-score every k-th lane against the scalar reference (1 = verify all
  // lanes, 0 = verify only hits). Hits are always verified.
  std::size_t sample_every = 0;
  // Quarantined lanes are re-run through the backend up to this many
  // times before falling back to the wordwise CPU path.
  unsigned max_retries = 3;
};

struct ReliabilityReport {
  std::uint64_t lanes_verified = 0;      // lanes re-scored vs scalar ref
  std::uint64_t mismatches_detected = 0; // lanes whose score disagreed
  std::uint64_t lanes_quarantined = 0;   // == mismatches_detected
  std::uint64_t retry_attempts = 0;      // backend re-runs of quarantine
  std::uint64_t lanes_recovered = 0;     // fixed by a backend retry
  std::uint64_t lanes_fell_back = 0;     // fixed by the wordwise CPU path
  double verify_ms = 0.0;
  double retry_ms = 0.0;

  // In-band stage integrity (chunked screening): checks evaluated by the
  // backend, detections attributed to (chunk, stage, block), and the
  // whole-chunk backend re-runs those detections triggered. A chunk retry
  // touches only its own lanes — lanes_resubmitted stays well below the
  // batch size, which is the point of chunking.
  std::uint64_t integrity_checks = 0;   // stage checks evaluated
  std::uint64_t integrity_faults = 0;   // == stage_faults.size()
  std::uint64_t chunk_retries = 0;      // whole-chunk backend re-runs
  std::uint64_t lanes_resubmitted = 0;  // lanes re-scored by those re-runs
  std::vector<StageFault> stage_faults;
  double integrity_ms = 0.0;            // time spent in stage checks

  // Database-store serving (sw/db_backend.hpp): shards served zero-copy
  // from the mmap, shards that failed their first-touch checksum and were
  // quarantined, pairs recovered by re-ingesting the quarantined shards
  // from the raw sequences, and pairs scored by the whole-job in-memory
  // fallback (jobs the store cannot map: unknown origin, misaligned, or
  // shape-mismatched). All zero when no database is configured.
  std::uint64_t db_shards_served = 0;
  std::uint64_t db_shards_quarantined = 0;
  std::uint64_t db_pairs_reingested = 0;
  std::uint64_t db_pairs_fallback = 0;

  /// Every detected mismatch must end up recovered or fallen back — the
  /// accounting invariant the fault drill asserts.
  [[nodiscard]] bool balanced() const {
    return mismatches_detected == lanes_recovered + lanes_fell_back;
  }

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const {
    std::string s = "verified=" + std::to_string(lanes_verified) +
                    " mismatched=" + std::to_string(mismatches_detected) +
                    " retries=" + std::to_string(retry_attempts) +
                    " recovered=" + std::to_string(lanes_recovered) +
                    " fell_back=" + std::to_string(lanes_fell_back);
    if (integrity_checks != 0 || integrity_faults != 0) {
      s += " stage_faults=" + std::to_string(integrity_faults) +
           " chunk_retries=" + std::to_string(chunk_retries);
    }
    if (db_shards_served != 0 || db_shards_quarantined != 0 ||
        db_pairs_fallback != 0) {
      s += " db_shards=" + std::to_string(db_shards_served) +
           " db_quarantined=" + std::to_string(db_shards_quarantined) +
           " db_reingested=" + std::to_string(db_pairs_reingested) +
           " db_fallback=" + std::to_string(db_pairs_fallback);
    }
    return s;
  }
};

}  // namespace swbpbc::sw
