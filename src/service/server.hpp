// The screening daemon: a long-running, multi-tenant scoring service
// over a UNIX-domain socket.
//
// One single-threaded poll() loop owns everything — accepting
// connections, incremental frame decoding (a stalled or malicious client
// can never block the daemon; its connection just stops progressing),
// admission control, the batch queue, dispatch into the sw screening
// stack, and fault-injected response writes. The request lifecycle:
//
//   frame in -> decode -> cache hit? serve journaled response
//                      -> admission (kOverloaded / kQuotaExceeded shed)
//                      -> journal `admitted` (one write) -> queue
//   queue -> plan_batch (lane-group packing, deadline shedding)
//         -> sw::try_screen (one call per batch, scores sliced per
//            request)
//         -> journal `completed` -> response frame (fault injector may
//            tear/flip/drop it; the client retries the id and hits the
//            response cache)
//
// Drain: when the stop token fires (SIGTERM via
// util::install_cancel_on_signals), admission flips to rejecting, the
// queue flushes through compute, responses go out, and run() returns
// cleanly. Crash: kill -9 at any point leaves the journal with every
// admitted request; the next start replays it, recomputes the pending
// ones (deterministic scoring — bit-identical results), and serves
// completed ones from cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "service/admission.hpp"
#include "service/fault.hpp"
#include "service/slo.hpp"
#include "sw/dispatch.hpp"
#include "sw/lane.hpp"
#include "sw/params.hpp"
#include "sw/scoring.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace swbpbc::service {

struct ServerConfig {
  std::string socket_path;  // UDS endpoint; an existing file is replaced
  sw::ScoreParams params{};
  // Full scoring model; outranks `params` when set. create() resolves the
  // two into one scheme (sw::resolve_scheme), rejecting a zero
  // params.match or params.gap with kInvalidInput, and passes only that
  // scheme to the engine and every batch. Uniform schemes only (linear
  // or affine): the wire codec transports 2-bit DNA, so matrix schemes
  // are rejected at create(). The journal fingerprint covers the
  // scheme (sw::fingerprint_scheme — params-expressible configs hash
  // exactly as before, so existing journals replay), and a request that
  // pins a different scheme fingerprint is rejected kInvalidInput.
  std::optional<sw::ScoringScheme> scheme;
  sw::LaneWidth width = sw::LaneWidth::kAuto;
  // Host engine for batch compute when no persistent device engine is
  // configured: BPBC, striped SIMD, or (default) the cost-model
  // auto-dispatch (sw/dispatch.hpp). A batch whose traced
  // requests agree on one nonzero backend hint follows the hint instead.
  // Purely a throughput knob — every engine scores bit-identically, so
  // journal replays and cached responses are unaffected.
  sw::BackendChoice backend = sw::BackendChoice::kAuto;
  AdmissionConfig admission{};
  // Crash-safe request journal (empty disables journaling — admitted
  // work then dies with the process).
  std::string journal_path;
  // Pairs worth collecting before a batch dispatches; 0 derives one lane
  // group from the resolved lane width.
  std::size_t lane_group = 0;
  // Longest a partial batch waits for more work before dispatching
  // anyway; bounds queueing latency when traffic is thin.
  double linger_ms = 2.0;
  // Transport fault injection on outgoing response frames (all-zero
  // probabilities = off). Pings/pongs are exempt so readiness probes
  // stay cheap.
  FaultConfig faults{};
  // Drain trigger: once cancelled, no new admissions; queued work
  // finishes, then run() returns. Not owned.
  const util::CancellationToken* stop = nullptr;
  telemetry::Telemetry* telemetry = nullptr;  // optional session sink
  // Score batches on a persistent device::PipelineEngine instead of the
  // host backend: per-batch stage spans (H2G..G2H) land in the trace on
  // the device track, correlated by request trace id. Scores are
  // bit-identical either way (the engine-vs-host identity gates).
  bool use_engine = false;
  // Per-tenant rolling-window SLO tracking (always on; this only tunes
  // windows and the slow-request threshold).
  SloConfig slo{};
  // Optional crash flight recorder: the server notes lifecycle marks
  // (startup, batches, fatal statuses) into it, and — when telemetry is
  // enabled — mirrors trace spans. Not owned; the caller installs the
  // crash handler. On a fatal batch status the server also dumps to
  // flight_record_path when non-empty.
  telemetry::FlightRecorder* flight_recorder = nullptr;
  std::string flight_record_path;
  // Test hook for the CI crash drill: _Exit(137) at the moment the Nth
  // batch would dispatch — admitted records journaled, nothing
  // completed. 0 disables.
  std::uint64_t crash_after_batches = 0;
  // Test hook for the flight-recorder drill: std::abort() (SIGABRT, so
  // the installed crash handler fires and dumps the ring) when the Nth
  // batch would dispatch. 0 disables.
  std::uint64_t abort_after_batches = 0;
};

/// What the daemon did over its lifetime (the drill's evidence).
struct ServerStats {
  std::uint64_t requests = 0;          // well-formed requests received
  std::uint64_t protocol_errors = 0;   // undecodable frames/payloads
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_scheme = 0;   // pinned-fingerprint mismatches
  std::uint64_t shed_deadline = 0;
  std::uint64_t completed = 0;         // scored and journaled
  std::uint64_t cache_hits = 0;        // retried ids served from journal
  std::uint64_t recovered_pending = 0; // replayed at startup, recomputed
  std::uint64_t recovered_completed = 0;  // replayed into the cache
  std::uint64_t batches = 0;
  std::uint64_t pairs_scored = 0;
  std::uint64_t stat_scrapes = 0;      // kStatRequest frames served
  std::uint64_t trace_scrapes = 0;     // kTraceRequest frames served
  std::uint64_t slow_requests = 0;     // SLO slow-threshold breaches
  FaultLog faults;                     // injected transport faults
};

class ScreenServer {
 public:
  /// Binds the socket, opens/replays the journal, seeds the response
  /// cache, and queues replayed-but-incomplete requests for recompute.
  /// Typed failures: kInternal (socket), kCheckpointCorrupt/-Mismatch
  /// (journal from another configuration or damaged beyond the torn
  /// tail).
  static util::Expected<ScreenServer> create(ServerConfig config);

  ScreenServer(ScreenServer&&) noexcept;
  ScreenServer& operator=(ScreenServer&&) noexcept;
  ~ScreenServer();

  /// Serves until the stop token fires and the queue has drained.
  /// Returns ok on a clean drain; kInvalidInput/kInternal on setup-class
  /// failures discovered while serving.
  util::Status run();

  [[nodiscard]] const ServerStats& stats() const;
  [[nodiscard]] const std::map<std::string, TenantStats>& tenants() const;

  /// Per-tenant RunReport (tool "screen_serve"): one row per tenant with
  /// a serving stage ("SRV"), pairs scored, and cell throughput; the
  /// metrics snapshot carries the service counters, live occupancy
  /// gauges, the per-tenant SLO window, and (when a telemetry session is
  /// attached) the engine/screen metrics including trace-drop counters.
  /// The same document answers a kStatRequest frame. Validated by
  /// scripts/check_run_report.py and scripts/check_stats.py.
  [[nodiscard]] telemetry::RunReport report() const;

  /// Live SLO state (rolling windows, slow-request log).
  [[nodiscard]] const SloTracker& slo() const;

 private:
  struct Impl;
  explicit ScreenServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace swbpbc::service
