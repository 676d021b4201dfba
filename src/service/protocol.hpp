// Request/response messages of the screening daemon, and their payload
// encoding inside frame.hpp frames.
//
// A ScreenRequest is one tenant's batch of (x, y) pairs to score, tagged
// with an idempotency id: the daemon journals admitted requests by id and
// caches completed results by id, so a client that lost a response to a
// crash or a torn frame simply retries the same id and receives the
// journaled result — bit-identical, computed exactly once. The deadline
// budget is the client's patience in milliseconds; a request still queued
// when its budget runs out is shed with a typed kDeadlineExceeded rather
// than scored late.
//
// A ScreenResponse is either the scores (code kOk, one per pair, in
// request order) or a typed rejection (kOverloaded / kQuotaExceeded /
// kDeadlineExceeded / kInvalidInput ...) carrying a retry-after hint the
// client's util::Backoff folds in.
//
// decode_* validates everything — lengths against the payload size,
// bounds, 2-bit DNA codes — and returns typed kInvalidInput/kParseError;
// a daemon never trusts bytes from a socket.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "encoding/dna.hpp"
#include "util/status.hpp"

namespace swbpbc::service {

/// Limits a hostile or buggy client cannot exceed (typed kInvalidInput).
inline constexpr std::size_t kMaxIdBytes = 256;
inline constexpr std::size_t kMaxTenantBytes = 64;
inline constexpr std::size_t kMaxPairsPerRequest = 1u << 20;
inline constexpr std::size_t kMaxSequenceLength = 1u << 16;
/// Events one kTraceResponse dump may carry (a full default tracer ring).
inline constexpr std::size_t kMaxTraceDumpEvents = 1u << 20;

/// Optional-trailer field tags of the request payload. The mandatory
/// fields are followed by zero or more (tag, length, bytes) entries; a
/// decoder skips tags it does not know, so a new client's request decodes
/// on an old server and vice versa. Tags are wire format — append only.
inline constexpr std::uint64_t kRequestFieldTraceContext = 1;
inline constexpr std::uint64_t kRequestFieldSchemeFingerprint = 2;
inline constexpr std::uint64_t kRequestFieldBackendChoice = 3;

struct ScreenRequest {
  std::string id;      // idempotency key, unique per request
  std::string tenant;  // admission-quota accounting key
  // Client patience: shed (kDeadlineExceeded) if still queued after this
  // many milliseconds. 0 = unlimited.
  double deadline_budget_ms = 0.0;
  // Pair k is (xs[k], ys[k]); all xs share one length and all ys another
  // (the BPBC batch requirement, enforced at decode).
  std::vector<encoding::Sequence> xs, ys;
  // Optional trace context (trailer tag kRequestFieldTraceContext):
  // trace_id correlates every server-side span of this request with the
  // client's own spans in a merged export; parent_span names the client
  // span that issued the call. 0/0 = untraced — the encoder then emits no
  // trailer at all, so the bytes match what a pre-trace client sends.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  // Optional scoring-scheme identity (trailer tag
  // kRequestFieldSchemeFingerprint): sw::fingerprint_scheme of the scheme
  // the client expects the daemon to score with. 0 = unpinned — the
  // encoder then emits no entry, so the bytes match what a pre-scheme
  // client sends, and the daemon scores with its configured scheme
  // unquestioned. A nonzero fingerprint that disagrees with the daemon's
  // is rejected kInvalidInput instead of returning scores computed under
  // a different scoring model than the client planned around.
  std::uint64_t scheme_fingerprint = 0;
  // Optional host-engine hint (trailer tag kRequestFieldBackendChoice):
  // 0 = unhinted (no entry emitted, bytes match a pre-hint client; the
  // daemon picks per its config), else 1 + sw::BackendChoice — 1 auto,
  // 2 bpbc, 3 striped. Advisory: the engines score bit-identically, so
  // the hint steers throughput, never results (the journal and scheme
  // fingerprint are unaffected). The retired value 4 decodes as 0;
  // larger values are rejected kInvalidInput at decode.
  std::uint8_t backend_hint = 0;

  [[nodiscard]] std::size_t pair_count() const { return xs.size(); }
};

struct ScreenResponse {
  std::string id;  // echoes the request id
  util::ErrorCode code = util::ErrorCode::kOk;
  std::string message;          // status detail on rejection
  double retry_after_ms = 0.0;  // backoff hint on kOverloaded/kQuotaExceeded
  std::vector<std::uint32_t> scores;  // request order; empty on rejection
};

std::vector<std::uint8_t> encode_request(const ScreenRequest& request);
util::Expected<ScreenRequest> decode_request(
    std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_response(const ScreenResponse& response);
util::Expected<ScreenResponse> decode_response(
    std::span<const std::uint8_t> payload);

/// Portable form of a tracer's retained spans for the kTraceResponse
/// frame: telemetry::TraceEvent stores borrowed string-literal pointers,
/// so the wire form owns its strings and the receiving side re-interns
/// them before replaying into its own tracer.
struct TraceDump {
  struct Event {
    std::string name;
    std::string cat;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
    std::uint32_t track = 0;
    std::uint64_t trace_id = 0;
    // Flattened TraceEvent args (up to telemetry::kSpanArgSlots on the
    // sender today; the wire format carries an explicit count, capped at
    // 16, so that may grow).
    std::vector<std::pair<std::string, std::int64_t>> args;
  };

  std::vector<std::pair<std::uint32_t, std::string>> tracks;  // track, name
  std::vector<Event> events;
  std::uint64_t dropped = 0;  // sender-side ring overwrites
};

std::vector<std::uint8_t> encode_trace_dump(const TraceDump& dump);
util::Expected<TraceDump> decode_trace_dump(
    std::span<const std::uint8_t> payload);

}  // namespace swbpbc::service
