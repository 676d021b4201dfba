// Long-text scanning: one query screened against a single long sequence
// (chromosome / database concatenation) by slicing the text into
// overlapping windows and packing the windows into BPBC lanes — the
// database-search usage of the technique (cf. Munekawa et al. [21]).
//
// Windows overlap by `overlap` characters so that any local alignment
// whose text span is at most `overlap` long lies entirely inside some
// window. A score-tau alignment of an m-char query spans at most
// m + (match * m - tau) / gap text characters, so the default overlap
// (2 * m) is safe for every tau >= match * m - m * gap; pass a larger
// overlap for lower thresholds.
#pragma once

#include <cstdint>
#include <vector>

#include "encoding/dna.hpp"
#include "sw/bpbc.hpp"
#include "sw/dispatch.hpp"
#include "sw/scalar.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

struct ScanConfig {
  ScoreParams params;
  std::uint32_t threshold = 0;   // report windows with score >= threshold
  std::size_t window = 4096;     // window length (must be > overlap)
  std::size_t overlap = 0;       // 0 = default 2 * query length
  LaneWidth width = LaneWidth::k64;
  bulk::Mode mode = bulk::Mode::kSerial;
  // Host engine for the window batches: BPBC, the striped-SIMD rival,
  // the naive wordwise reference, or (default) the cost-model
  // auto-dispatch — see sw/dispatch.hpp. Resolved once per scan (every
  // batch shares the workload shape); scores are bit-identical whichever
  // engine runs, and SWBPBC_FORCE_BACKEND outranks this field.
  BackendChoice backend_choice = BackendChoice::kAuto;
  bool traceback = false;  // align hits in detail (coordinates mapped back)

  // --- survivability -------------------------------------------------
  // Windows materialized and scored per batch; 0 = all at once. A
  // chromosome-scale text otherwise instantiates every window sequence
  // up front; chunking keeps memory bounded by chunk_windows * window.
  std::size_t chunk_windows = 0;
  // Cooperative stop, observed between window batches (and during
  // traceback). A stopped scan returns the windows scored so far with
  // ScanReport::status set to kCancelled / kDeadlineExceeded.
  const util::CancellationToken* cancel = nullptr;
  util::Deadline deadline;
  // Telemetry sink (telemetry::Telemetry::sink(); nullptr = disabled):
  // records a span per window batch plus scan totals in the registry.
  telemetry::Telemetry* telemetry = nullptr;
};

struct ScanHit {
  std::size_t text_begin = 0;   // window start in the text
  std::size_t text_end = 0;     // window end (exclusive)
  std::uint32_t score = 0;      // BPBC max score within the window
  Alignment detail;             // when config.traceback; y-coordinates are
                                // *text* positions (window offset applied)
};

struct ScanReport {
  std::size_t windows = 0;         // windows the full scan would cover
  std::size_t windows_scored = 0;  // == windows unless the scan stopped
  std::vector<ScanHit> hits;  // ordered by text_begin; overlapping windows
                              // may both report the same alignment
  // kOk for a full scan; a cooperative stop leaves the hits of the
  // windows scored so far and the stop's typed status here.
  util::Status status;
};

/// Scans `text` for local alignments of `query` scoring >= threshold.
/// Returns kInvalidInput if query is empty or window <= overlap.
util::Expected<ScanReport> try_scan_text(const encoding::Sequence& query,
                                         const encoding::Sequence& text,
                                         const ScanConfig& config);

/// Throwing convenience wrapper around try_scan_text (throws StatusError,
/// which derives from std::invalid_argument — pre-v2 callers that caught
/// that type keep working).
ScanReport scan_text(const encoding::Sequence& query,
                     const encoding::Sequence& text,
                     const ScanConfig& config);

}  // namespace swbpbc::sw
