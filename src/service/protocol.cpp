#include "service/protocol.hpp"

#include <cstring>

namespace swbpbc::service {

namespace {

// Little append/consume helpers over the flat payload. The frame layer
// already checksummed the bytes; this layer only guards structure.

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - at_; }

  bool take_u64(std::uint64_t& v) {
    if (remaining() < sizeof(v)) return false;
    std::memcpy(&v, bytes_.data() + at_, sizeof(v));
    at_ += sizeof(v);
    return true;
  }

  bool take_f64(double& v) {
    if (remaining() < sizeof(v)) return false;
    std::memcpy(&v, bytes_.data() + at_, sizeof(v));
    at_ += sizeof(v);
    return true;
  }

  bool take_string(std::string& s, std::size_t max_bytes) {
    std::uint64_t len = 0;
    if (!take_u64(len)) return false;
    if (len > max_bytes || remaining() < len) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data() + at_),
             static_cast<std::size_t>(len));
    at_ += static_cast<std::size_t>(len);
    return true;
  }

  bool take_bytes(std::uint8_t* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, bytes_.data() + at_, n);
    at_ += n;
    return true;
  }

  bool skip(std::size_t n) {
    if (remaining() < n) return false;
    at_ += n;
    return true;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

util::Status truncated(const char* what) {
  return util::Status::parse_error(std::string("request/response payload "
                                               "ends inside ") +
                                   what);
}

// Flattens a uniform-length batch side as one code byte per base.
void put_side(std::vector<std::uint8_t>& out,
              const std::vector<encoding::Sequence>& side) {
  for (const encoding::Sequence& seq : side)
    out.insert(out.end(), seq.begin(), seq.end());
}

// Reads `count` sequences of `length` code bytes, validating each code:
// the wire carries DNA only.
util::Status take_side(Cursor& cur, std::size_t count, std::size_t length,
                       const char* side_name,
                       std::vector<encoding::Sequence>& side) {
  side.assign(count, encoding::Sequence(length));
  for (std::size_t k = 0; k < count; ++k) {
    if (!cur.take_bytes(side[k].data(), length)) return truncated(side_name);
    for (const std::uint8_t c : side[k]) {
      if (c > 0b11)
        return util::Status::invalid_input(
            std::string(side_name) + "[" + std::to_string(k) +
            "] carries a non-DNA code " + std::to_string(c));
    }
  }
  return {};
}

}  // namespace

std::vector<std::uint8_t> encode_request(const ScreenRequest& request) {
  const std::size_t m = request.xs.empty() ? 0 : request.xs.front().size();
  const std::size_t n = request.ys.empty() ? 0 : request.ys.front().size();
  std::vector<std::uint8_t> out;
  out.reserve(64 + request.id.size() + request.tenant.size() +
              request.xs.size() * m + request.ys.size() * n);
  put_string(out, request.id);
  put_string(out, request.tenant);
  put_f64(out, request.deadline_budget_ms);
  put_u64(out, request.xs.size());
  put_u64(out, m);
  put_u64(out, n);
  put_side(out, request.xs);
  put_side(out, request.ys);
  // Optional trailer. An untraced request appends nothing: its payload is
  // byte-identical to what a pre-trailer client produced, so old servers
  // (which reject trailing bytes) still accept it.
  if (request.trace_id != 0 || request.parent_span != 0) {
    put_u64(out, kRequestFieldTraceContext);
    put_u64(out, 2 * sizeof(std::uint64_t));
    put_u64(out, request.trace_id);
    put_u64(out, request.parent_span);
  }
  if (request.scheme_fingerprint != 0) {
    put_u64(out, kRequestFieldSchemeFingerprint);
    put_u64(out, sizeof(std::uint64_t));
    put_u64(out, request.scheme_fingerprint);
  }
  if (request.backend_hint != 0) {
    put_u64(out, kRequestFieldBackendChoice);
    put_u64(out, sizeof(std::uint64_t));
    put_u64(out, request.backend_hint);
  }
  return out;
}

util::Expected<ScreenRequest> decode_request(
    std::span<const std::uint8_t> payload) {
  Cursor cur(payload);
  ScreenRequest req;
  if (!cur.take_string(req.id, kMaxIdBytes))
    return util::Status::invalid_input("request id is missing or longer "
                                       "than the allowed maximum");
  if (req.id.empty())
    return util::Status::invalid_input("request id must be non-empty");
  if (!cur.take_string(req.tenant, kMaxTenantBytes))
    return util::Status::invalid_input("request tenant is missing or longer "
                                       "than the allowed maximum");
  if (req.tenant.empty())
    return util::Status::invalid_input("request tenant must be non-empty");
  if (!cur.take_f64(req.deadline_budget_ms)) return truncated("the deadline");
  if (!(req.deadline_budget_ms >= 0.0))  // also rejects NaN
    return util::Status::invalid_input(
        "request deadline budget must be >= 0 ms");
  std::uint64_t pairs = 0, m = 0, n = 0;
  if (!cur.take_u64(pairs) || !cur.take_u64(m) || !cur.take_u64(n))
    return truncated("the batch shape");
  if (pairs == 0 || pairs > kMaxPairsPerRequest)
    return util::Status::invalid_input(
        "request pair count " + std::to_string(pairs) +
        " is outside [1, " + std::to_string(kMaxPairsPerRequest) + "]");
  if (m == 0 || n == 0 || m > kMaxSequenceLength || n > kMaxSequenceLength)
    return util::Status::invalid_input(
        "request sequence lengths (" + std::to_string(m) + ", " +
        std::to_string(n) + ") are outside [1, " +
        std::to_string(kMaxSequenceLength) + "]");
  if (util::Status s = take_side(cur, static_cast<std::size_t>(pairs),
                                 static_cast<std::size_t>(m), "xs", req.xs);
      !s.ok())
    return s;
  if (util::Status s = take_side(cur, static_cast<std::size_t>(pairs),
                                 static_cast<std::size_t>(n), "ys", req.ys);
      !s.ok())
    return s;
  // Optional (tag, length, bytes) trailer: known tags decode, unknown
  // tags skip — a request from a newer client (fields we don't know yet)
  // must still decode here, and an old client's payload simply has no
  // trailer. Bytes that do not form complete entries are still garbage.
  while (cur.remaining() != 0) {
    std::uint64_t tag = 0, len = 0;
    if (!cur.take_u64(tag) || !cur.take_u64(len) || cur.remaining() < len)
      return util::Status::parse_error(
          "request payload carries trailing garbage");
    if (tag == kRequestFieldTraceContext && len == 2 * sizeof(std::uint64_t)) {
      cur.take_u64(req.trace_id);
      cur.take_u64(req.parent_span);
    } else if (tag == kRequestFieldSchemeFingerprint &&
               len == sizeof(std::uint64_t)) {
      cur.take_u64(req.scheme_fingerprint);
    } else if (tag == kRequestFieldBackendChoice &&
               len == sizeof(std::uint64_t)) {
      std::uint64_t hint = 0;
      cur.take_u64(hint);
      // 1 + sw::BackendChoice; 0 never encodes (unhinted omits the tag).
      // 4 named the retired wordwise-naive engine: it decodes as
      // unhinted, so journals that recorded it still replay.
      if (hint == 0 || hint > 4)
        return util::Status::invalid_input(
            "request backend hint " + std::to_string(hint) +
            " is outside [1, 3] (1 auto, 2 bpbc, 3 striped)");
      req.backend_hint = hint == 4 ? 0 : static_cast<std::uint8_t>(hint);
    } else if (!cur.skip(static_cast<std::size_t>(len))) {
      return util::Status::parse_error(
          "request payload carries trailing garbage");
    }
  }
  return req;
}

std::vector<std::uint8_t> encode_response(const ScreenResponse& response) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + response.id.size() + response.message.size() +
              response.scores.size() * sizeof(std::uint32_t));
  put_string(out, response.id);
  put_u64(out, static_cast<std::uint64_t>(response.code));
  put_string(out, response.message);
  put_f64(out, response.retry_after_ms);
  put_u64(out, response.scores.size());
  const std::size_t at = out.size();
  out.resize(at + response.scores.size() * sizeof(std::uint32_t));
  if (!response.scores.empty())
    std::memcpy(out.data() + at, response.scores.data(),
                response.scores.size() * sizeof(std::uint32_t));
  return out;
}

util::Expected<ScreenResponse> decode_response(
    std::span<const std::uint8_t> payload) {
  Cursor cur(payload);
  ScreenResponse resp;
  if (!cur.take_string(resp.id, kMaxIdBytes))
    return truncated("the response id");
  std::uint64_t code = 0;
  if (!cur.take_u64(code)) return truncated("the status code");
  if (code > static_cast<std::uint64_t>(util::ErrorCode::kInternal))
    return util::Status::parse_error("response carries unknown status code " +
                                     std::to_string(code));
  resp.code = static_cast<util::ErrorCode>(code);
  // Generous bound: a status message, not a payload.
  if (!cur.take_string(resp.message, 4096))
    return truncated("the status message");
  if (!cur.take_f64(resp.retry_after_ms)) return truncated("the retry hint");
  std::uint64_t count = 0;
  if (!cur.take_u64(count)) return truncated("the score count");
  if (count > kMaxPairsPerRequest)
    return util::Status::parse_error("response declares an implausible "
                                     "score count");
  resp.scores.resize(static_cast<std::size_t>(count));
  if (count != 0 &&
      !cur.take_bytes(reinterpret_cast<std::uint8_t*>(resp.scores.data()),
                      resp.scores.size() * sizeof(std::uint32_t)))
    return truncated("the scores");
  if (cur.remaining() != 0)
    return util::Status::parse_error(
        "response payload carries trailing garbage");
  return resp;
}

std::vector<std::uint8_t> encode_trace_dump(const TraceDump& dump) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + 32 * dump.tracks.size() + 96 * dump.events.size());
  put_u64(out, dump.dropped);
  put_u64(out, dump.tracks.size());
  for (const auto& [track, name] : dump.tracks) {
    put_u64(out, track);
    put_string(out, name);
  }
  put_u64(out, dump.events.size());
  for (const TraceDump::Event& e : dump.events) {
    put_string(out, e.name);
    put_string(out, e.cat);
    put_u64(out, e.ts_us);
    put_u64(out, e.dur_us);
    put_u64(out, e.track);
    put_u64(out, e.trace_id);
    put_u64(out, e.args.size());
    for (const auto& [key, value] : e.args) {
      put_string(out, key);
      put_u64(out, static_cast<std::uint64_t>(value));
    }
  }
  return out;
}

util::Expected<TraceDump> decode_trace_dump(
    std::span<const std::uint8_t> payload) {
  Cursor cur(payload);
  TraceDump dump;
  if (!cur.take_u64(dump.dropped)) return truncated("the drop count");
  std::uint64_t n_tracks = 0;
  if (!cur.take_u64(n_tracks)) return truncated("the track count");
  if (n_tracks > 4096)
    return util::Status::parse_error("trace dump declares an implausible "
                                     "track count");
  dump.tracks.reserve(static_cast<std::size_t>(n_tracks));
  for (std::uint64_t i = 0; i < n_tracks; ++i) {
    std::uint64_t track = 0;
    std::string name;
    if (!cur.take_u64(track) || !cur.take_string(name, kMaxIdBytes))
      return truncated("a track name");
    dump.tracks.emplace_back(static_cast<std::uint32_t>(track),
                             std::move(name));
  }
  std::uint64_t n_events = 0;
  if (!cur.take_u64(n_events)) return truncated("the event count");
  if (n_events > kMaxTraceDumpEvents)
    return util::Status::parse_error("trace dump declares an implausible "
                                     "event count");
  dump.events.reserve(static_cast<std::size_t>(n_events));
  for (std::uint64_t i = 0; i < n_events; ++i) {
    TraceDump::Event e;
    std::uint64_t track = 0, n_args = 0;
    if (!cur.take_string(e.name, kMaxIdBytes) ||
        !cur.take_string(e.cat, kMaxIdBytes) || !cur.take_u64(e.ts_us) ||
        !cur.take_u64(e.dur_us) || !cur.take_u64(track) ||
        !cur.take_u64(e.trace_id) || !cur.take_u64(n_args))
      return truncated("a trace event");
    if (n_args > 16)
      return util::Status::parse_error("trace event declares an implausible "
                                       "arg count");
    e.track = static_cast<std::uint32_t>(track);
    e.args.reserve(static_cast<std::size_t>(n_args));
    for (std::uint64_t a = 0; a < n_args; ++a) {
      std::string key;
      std::uint64_t value = 0;
      if (!cur.take_string(key, kMaxIdBytes) || !cur.take_u64(value))
        return truncated("a trace event arg");
      e.args.emplace_back(std::move(key), static_cast<std::int64_t>(value));
    }
    dump.events.push_back(std::move(e));
  }
  if (cur.remaining() != 0)
    return util::Status::parse_error(
        "trace dump payload carries trailing garbage");
  return dump;
}

}  // namespace swbpbc::service
