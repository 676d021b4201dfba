// The screening pipeline of paper §III: the BPBC pass computes every
// pair's maximum DP score; pairs whose score reaches the threshold tau are
// re-aligned in detail (score + traceback) by the scalar CPU aligner.
//
// Hardened form: inputs are validated up front (typed errors instead of
// UB), and an optional self-check re-scores sampled lanes plus every hit
// against the scalar reference, quarantining and retrying mismatching
// lanes — see sw/reliability.hpp for the recovery model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/dna.hpp"
#include "sw/bpbc.hpp"
#include "sw/dispatch.hpp"
#include "sw/reliability.hpp"
#include "sw/scalar.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace swbpbc::db {
class Reader;  // db/reader.hpp — the pre-transposed database store
}  // namespace swbpbc::db

namespace swbpbc::sw {

class Backend;  // sw/backend.hpp — the screening backend interface

/// One chunk's worth of backend output, with in-band integrity findings.
/// `faults` carries (stage, block); screen() fills in the chunk index.
struct ChunkResult {
  std::vector<std::uint32_t> scores;
  std::vector<StageFault> faults;
  std::uint64_t integrity_checks = 0;
  double integrity_ms = 0.0;
  // Per-phase attribution of the chunk's compute time. Backends that know
  // their phase split (the host BPBC path, the device engine) set
  // has_phase_timings and fill `timings`; opaque backends leave it false
  // and screen() attributes the measured call wall time to the SWA phase.
  PhaseTimings timings;
  bool has_phase_timings = false;
  // Database-store serving counters (sw/db_backend.hpp); zero for every
  // other backend. Quarantine/re-ingest is a *persistent*-corruption
  // recovery — deliberately not reported through `faults`, which would
  // burn whole-chunk retries on damage a re-run cannot clear.
  std::uint64_t db_shards_served = 0;       // shards served zero-copy
  std::uint64_t db_shards_quarantined = 0;  // failed checksum, re-ingested
  std::uint64_t db_pairs_reingested = 0;    // pairs scored from re-ingest
  std::uint64_t db_pairs_fallback = 0;      // whole-job in-memory fallback
  // Striped backend (sw/striped.hpp): pairs its 8-bit first pass scored,
  // and how many of them it rescored at the exact width; zero elsewhere.
  std::uint64_t striped_byte_pairs = 0;
  std::uint64_t striped_escalations = 0;
};

/// Per-chunk progress notification (invoked after a chunk completes, is
/// satisfied from a checkpoint, or exhausts its retries).
struct ChunkProgress {
  std::size_t chunk = 0;         // chunk index
  std::size_t chunks_total = 0;
  std::size_t begin = 0;         // pair range [begin, end)
  std::size_t end = 0;
  bool resumed = false;          // satisfied from the resume checkpoint
  unsigned retries = 0;          // whole-chunk backend re-runs
  std::uint64_t faults = 0;      // in-band integrity detections (all runs)
};

struct ScreenConfig {
  ScoreParams params;
  // Full scoring model; outranks `params` when set. try_screen resolves
  // the two into one ScoringScheme at entry (resolve_scheme) and passes
  // only that scheme below. Any valid scheme screens: uniform DNA schemes
  // (linear or affine) and matrix schemes over their own alphabet (e.g.
  // BLOSUM62 protein), with every code checked against scheme.alphabet().
  // A params-expressible scheme screens bit-identically to setting
  // `params` (same kernels, same checkpoint fingerprint).
  std::optional<ScoringScheme> scheme;
  std::uint32_t threshold = 0;  // tau: select pairs with max score >= tau
  LaneWidth width = LaneWidth::k64;
  bulk::Mode mode = bulk::Mode::kSerial;
  bool traceback = true;  // run the detailed CPU alignment on hits
  // Host engine selection when no explicit backend (and no database) is
  // configured: BPBC, the striped-SIMD rival, or (default) the measured
  // cost-model auto-dispatch — see sw/dispatch.hpp. Scores are bit-identical whichever engine runs;
  // SWBPBC_FORCE_BACKEND outranks this field.
  BackendChoice backend_choice = BackendChoice::kAuto;
  // Explicit scoring backend (sw/backend.hpp), e.g. the device
  // PipelineEngine; outranks the database and backend_choice. Not owned —
  // must outlive the screen call.
  Backend* backend = nullptr;
  SelfCheckConfig check;  // verify-quarantine-retry; disabled by default

  // --- survivability (chunked streaming) -------------------------------
  // Pairs per chunk; 0 processes the whole batch as one chunk. Chunking
  // bounds backend memory, scopes quarantine/retry to ~1/K of the batch,
  // and is the granularity of checkpointing and cancellation.
  std::size_t chunk_pairs = 0;
  // Whole-chunk backend re-runs when in-band integrity checks detect
  // corruption (each re-run observes a fresh fault campaign).
  unsigned chunk_retry_limit = 2;
  // Pre-transposed database store holding the ys side (sw/db_backend.hpp
  // serves it; only the query side pays W2B at serve time). Not owned —
  // must outlive the screen call. Used when no explicit backend is set;
  // the batch's ys must be exactly the database's entries in order, and
  // its planes the scheme's alphabet width. Both are checked before the
  // first chunk, the entries by content fingerprint (one FNV pass over
  // ys): a disagreement is a typed kDbMismatch, since a stale database
  // would otherwise score the wrong sequences bit-perfectly.
  db::Reader* database = nullptr;
  // Invoked after every chunk settles; may call cancel->cancel(). A
  // throwing observer does not unwind out of screen(): the run stops and
  // the partial report carries a typed kCallbackError status (completed
  // chunks, checkpoints, and scores up to that point are preserved).
  std::function<void(const ChunkProgress&)> progress;
  // Cooperative stop: observed between chunks, between device phases, and
  // inside verify/traceback loops. A stopped run returns a well-formed
  // partial ScreenReport with status kCancelled / kDeadlineExceeded.
  const util::CancellationToken* cancel = nullptr;
  util::Deadline deadline;  // never expires by default
  // Checkpoint stream to write completed chunks to (empty: none). May
  // equal resume_path; the file is rewritten with resumed + new chunks.
  std::string checkpoint_path;
  // Checkpoint stream to resume from (empty: none). A corrupt, truncated,
  // wrong-version, or wrong-batch stream is rejected with a typed error
  // (kCheckpointCorrupt / kCheckpointMismatch) — rerun without it to
  // recompute from scratch.
  std::string resume_path;
  // Accept a resume stream whose final record is torn (the writer crashed
  // mid-append): completed leading records are resumed, the torn tail is
  // recomputed. Every other defect — bad magic, flipped byte in a
  // complete record, version/fingerprint mismatch — still rejects.
  bool resume_salvage_torn_tail = false;
  // Telemetry sink (telemetry::Telemetry::sink(); nullptr = disabled).
  // Records screen / chunk / backend / self-check / quarantine /
  // checkpoint / progress-callback spans and folds chunk throughput and
  // reliability totals into the session's metrics registry. The disabled
  // path tests this one pointer and allocates nothing.
  telemetry::Telemetry* telemetry = nullptr;
};

struct ScreenHit {
  std::size_t index = 0;          // pair index into the input spans
  std::uint32_t bpbc_score = 0;   // max score from the screening pass
  Alignment detail;               // filled when config.traceback is set
  bool detailed = false;          // detail actually computed (a stopped
                                  // run may leave trailing hits coarse)
};

/// Per-chunk outcome in the report. A partial (stopped) run marks the
/// untouched chunks completed = false; their score entries read zero.
struct ChunkOutcome {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool completed = false;
  bool resumed = false;   // satisfied from the resume checkpoint
  unsigned retries = 0;   // integrity-triggered backend re-runs
};

struct ScreenReport {
  std::vector<std::uint32_t> scores;  // BPBC max score of every pair
  std::vector<ScreenHit> hits;        // pairs with score >= threshold
  PhaseTimings bpbc;                  // W2B / SWA / B2W wall times
  double traceback_ms = 0.0;
  ReliabilityReport reliability;      // populated when check.enabled
  // kOk for a full run; kCancelled / kDeadlineExceeded when the run was
  // stopped cooperatively — scores/hits then cover completed chunks only.
  util::Status status;
  std::vector<ChunkOutcome> chunks;
  // caps().lane_width of the backend that ran (sw/backend.hpp).
  LaneWidth lane_width = LaneWidth::k64;

  [[nodiscard]] bool complete() const {
    for (const ChunkOutcome& c : chunks)
      if (!c.completed) return false;
    return true;
  }
};

/// The entry configs' scoring boundary: `scheme` when set (validated by
/// validate_scheme, messages prefixed "config.scheme"), otherwise
/// `params` lifted by ScoringScheme::from_params after a positive
/// config.params.match and config.params.gap check. ScreenConfig and
/// service::ServerConfig resolve through it once; every layer below takes
/// only the returned scheme.
[[nodiscard]] util::Expected<ScoringScheme> resolve_scheme(
    const ScoreParams& params, const std::optional<ScoringScheme>& scheme);

/// Cross-field checks on `config`: kOk when the fields are coherent, a
/// typed kInvalidInput naming the offending `config.` fields otherwise.
/// Rejects an invalid scheme, a striped or explicit backend with a
/// database, a database with chunk_pairs not a multiple of 64,
/// checkpoint / resume / salvage without chunking, and a negative backoff.
/// Every host engine and the database store score every valid scheme.
/// try_screen enforces only the scheme rules (same messages); the rest it
/// tolerates, e.g. misaligned database chunks fall back to in-memory
/// scoring. Callers assembling a config from user input run this first.
[[nodiscard]] util::Status validate(const ScreenConfig& config);

/// Screens pairs (xs[k], ys[k]) and re-aligns the hits: the one screen
/// entry for every alphabet (DNA strands and protein sequences are both
/// alphabet-code vectors). All xs must share one length and all ys one
/// length (the BPBC batch requirement). Returns kInvalidInput for empty
/// batches, mismatched xs/ys counts, empty sequences, non-uniform
/// lengths, or a code outside the scheme's alphabet; kLaneCorrupt if
/// recovery cannot reconcile a lane with the scalar reference.
util::Expected<ScreenReport> try_screen(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScreenConfig& config);

/// Throwing convenience wrapper around try_screen (throws StatusError).
ScreenReport screen(std::span<const encoding::Sequence> xs,
                    std::span<const encoding::Sequence> ys,
                    const ScreenConfig& config);

}  // namespace swbpbc::sw
