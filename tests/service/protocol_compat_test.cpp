// Frame-protocol compatibility: the optional request trailer must keep
// old and new peers interoperable in both directions, and the trace-dump
// codec must round-trip and reject garbage. "Old" payloads are the exact
// byte layout the pre-trailer encoder produced: the mandatory fields and
// nothing after them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "encoding/random.hpp"
#include "service/frame.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace swbpbc::service {
namespace {

ScreenRequest sample_request(std::uint64_t trace_id = 0,
                             std::uint64_t parent_span = 0) {
  util::Xoshiro256 rng(11);
  ScreenRequest req;
  req.id = "compat-1";
  req.tenant = "tenant-a";
  req.deadline_budget_ms = 12.5;
  req.xs = encoding::random_sequences(rng, 4, 8);
  req.ys = encoding::random_sequences(rng, 4, 24);
  req.trace_id = trace_id;
  req.parent_span = parent_span;
  return req;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

TEST(ProtocolCompat, UntracedRequestHasNoTrailer) {
  // A new client with no trace context must produce bytes an old server
  // decodes: i.e. byte-identical to the traced encoding minus the
  // 32-byte trailer, and decodable either way.
  const auto untraced = encode_request(sample_request());
  const auto traced = encode_request(sample_request(0xABCDu, 0x1234u));
  ASSERT_EQ(traced.size(), untraced.size() + 32);
  EXPECT_TRUE(std::equal(untraced.begin(), untraced.end(), traced.begin()));
}

TEST(ProtocolCompat, OldPayloadDecodesOnNewServer) {
  // An old client's payload is exactly the trailer-free encoding.
  const auto old_payload = encode_request(sample_request());
  auto decoded = decode_request(old_payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->id, "compat-1");
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span, 0u);
}

TEST(ProtocolCompat, TraceContextRoundTrips) {
  const auto payload = encode_request(sample_request(0xFEEDFACEu, 0x77u));
  auto decoded = decode_request(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->trace_id, 0xFEEDFACEu);
  EXPECT_EQ(decoded->parent_span, 0x77u);
  EXPECT_EQ(decoded->id, "compat-1");
  EXPECT_EQ(decoded->pair_count(), 4u);
}

TEST(ProtocolCompat, UnknownTrailerTagIsSkipped) {
  // A future client may append tags this server has never heard of; they
  // must be skipped, not rejected — never kParseError.
  auto payload = encode_request(sample_request(0x1u, 0x2u));
  put_u64(payload, 999);  // unknown tag
  put_u64(payload, 5);    // 5 payload bytes
  for (int i = 0; i < 5; ++i) payload.push_back(0xEE);
  auto decoded = decode_request(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->trace_id, 0x1u);  // known tag before it still lands
}

TEST(ProtocolCompat, KnownTagWithWrongLengthIsSkipped) {
  // A longer-than-expected trace-context entry (a future revision) is
  // skipped wholesale rather than misparsed.
  auto payload = encode_request(sample_request());
  put_u64(payload, kRequestFieldTraceContext);
  put_u64(payload, 24);  // not the 16 this decoder understands
  for (int i = 0; i < 24; ++i) payload.push_back(0x55);
  auto decoded = decode_request(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->trace_id, 0u);
}

TEST(ProtocolCompat, UnpinnedSchemeFingerprintAddsNoBytes) {
  // A client that does not pin a scoring scheme (fingerprint 0) must
  // stay byte-identical to the pre-scheme encoder, and a pinned request
  // is exactly one 24-byte trailer entry longer.
  ScreenRequest unpinned = sample_request();
  ScreenRequest pinned = sample_request();
  pinned.scheme_fingerprint = 0xDEADBEEFCAFEBABEull;
  const auto a = encode_request(unpinned);
  const auto b = encode_request(pinned);
  ASSERT_EQ(b.size(), a.size() + 24);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ProtocolCompat, SchemeFingerprintRoundTrips) {
  ScreenRequest req = sample_request(0x10u, 0x20u);
  req.scheme_fingerprint = 0x123456789ABCDEF0ull;
  auto decoded = decode_request(encode_request(req));
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->scheme_fingerprint, 0x123456789ABCDEF0ull);
  EXPECT_EQ(decoded->trace_id, 0x10u);  // coexists with the trace entry
}

TEST(ProtocolCompat, SchemeFingerprintWithWrongLengthIsSkipped) {
  auto payload = encode_request(sample_request());
  put_u64(payload, kRequestFieldSchemeFingerprint);
  put_u64(payload, 16);  // a future revision; this decoder expects 8
  for (int i = 0; i < 16; ++i) payload.push_back(0x42);
  auto decoded = decode_request(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->scheme_fingerprint, 0u);
}

TEST(ProtocolCompat, UnhintedBackendAddsNoBytes) {
  // No backend hint (0) stays byte-identical to the pre-hint encoder; a
  // hinted request is exactly one 24-byte trailer entry longer.
  ScreenRequest unhinted = sample_request();
  ScreenRequest hinted = sample_request();
  hinted.backend_hint = 3;  // striped
  const auto a = encode_request(unhinted);
  const auto b = encode_request(hinted);
  ASSERT_EQ(b.size(), a.size() + 24);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ProtocolCompat, BackendHintRoundTripsEveryEngine) {
  for (std::uint8_t hint = 1; hint <= 3; ++hint) {
    ScreenRequest req = sample_request(0x10u, 0x20u);
    req.scheme_fingerprint = 0x1ull;
    req.backend_hint = hint;
    auto decoded = decode_request(encode_request(req));
    ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
    EXPECT_EQ(decoded->backend_hint, hint);
    EXPECT_EQ(decoded->trace_id, 0x10u);  // coexists with the other tags
    EXPECT_EQ(decoded->scheme_fingerprint, 0x1ull);
  }
}

TEST(ProtocolCompat, RetiredBackendHintDecodesUnhinted) {
  // Hint 4 named the retired wordwise-naive engine. Requests (and journal
  // records) that carry it still decode, as unhinted; 5 was never valid.
  auto payload = encode_request(sample_request(0x10u, 0x20u));
  put_u64(payload, kRequestFieldBackendChoice);
  put_u64(payload, 8);
  put_u64(payload, 4);
  auto decoded = decode_request(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->backend_hint, 0u);
  EXPECT_EQ(decoded->trace_id, 0x10u);  // the other tags still land
  EXPECT_EQ(decoded->pair_count(), 4u);

  ScreenRequest five = sample_request();
  five.backend_hint = 5;
  const auto rejected = decode_request(encode_request(five));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(ProtocolCompat, OutOfRangeBackendHintIsInvalidInput) {
  // Unlike an unknown tag (skippable), a known tag with a nonsense value
  // is a client bug: typed rejection, never a silent engine default.
  for (const std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{5},
                                  std::uint64_t{0xFF}}) {
    auto payload = encode_request(sample_request());
    put_u64(payload, kRequestFieldBackendChoice);
    put_u64(payload, 8);
    put_u64(payload, bad);
    auto decoded = decode_request(payload);
    ASSERT_FALSE(decoded.has_value()) << bad;
    EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidInput) << bad;
  }
}

TEST(ProtocolCompat, BackendHintWithWrongLengthIsSkipped) {
  auto payload = encode_request(sample_request());
  put_u64(payload, kRequestFieldBackendChoice);
  put_u64(payload, 16);  // a future revision; this decoder expects 8
  for (int i = 0; i < 16; ++i) payload.push_back(0x03);
  auto decoded = decode_request(payload);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->backend_hint, 0u);
}

TEST(ProtocolCompat, TruncatedTrailerIsParseError) {
  auto payload = encode_request(sample_request(0x1u, 0x2u));
  payload.pop_back();  // tear the last trailer byte off
  auto decoded = decode_request(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
}

TEST(ProtocolCompat, TrailerLengthOverrunIsParseError) {
  auto payload = encode_request(sample_request());
  put_u64(payload, 999);
  put_u64(payload, 1 << 20);  // claims far more bytes than exist
  auto decoded = decode_request(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
}

TEST(ProtocolCompat, NewFrameTypesAreKnown) {
  // The framing layer must pass scrape frames through rather than
  // treating them as stream desync.
  for (const FrameType t :
       {FrameType::kStatRequest, FrameType::kStatResponse,
        FrameType::kTraceRequest, FrameType::kTraceResponse}) {
    const auto bytes = encode_frame(t, {});
    FrameDecoder decoder;
    decoder.feed(bytes);
    auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(frame->has_value());
    EXPECT_EQ((*frame)->type, t);
  }
}

// ------------------------------------------------------------ TraceDump

TraceDump sample_dump() {
  TraceDump dump;
  dump.dropped = 3;
  dump.tracks = {{0, "screen"}, {32, "tenant:tenant-a"}};
  TraceDump::Event e1;
  e1.name = "admit";
  e1.cat = "service";
  e1.ts_us = 100;
  e1.dur_us = 5;
  e1.track = 32;
  e1.trace_id = 0xFACEu;
  e1.args = {{"pairs", 16}};
  TraceDump::Event e2;
  e2.name = "H2G";
  e2.cat = "device";
  e2.ts_us = 110;
  e2.dur_us = 42;
  e2.track = 8;
  dump.events = {e1, e2};
  return dump;
}

TEST(TraceDumpCodec, RoundTrips) {
  const TraceDump dump = sample_dump();
  auto decoded = decode_trace_dump(encode_trace_dump(dump));
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->dropped, 3u);
  ASSERT_EQ(decoded->tracks.size(), 2u);
  EXPECT_EQ(decoded->tracks[1].first, 32u);
  EXPECT_EQ(decoded->tracks[1].second, "tenant:tenant-a");
  ASSERT_EQ(decoded->events.size(), 2u);
  EXPECT_EQ(decoded->events[0].name, "admit");
  EXPECT_EQ(decoded->events[0].trace_id, 0xFACEu);
  ASSERT_EQ(decoded->events[0].args.size(), 1u);
  EXPECT_EQ(decoded->events[0].args[0].first, "pairs");
  EXPECT_EQ(decoded->events[0].args[0].second, 16);
  EXPECT_EQ(decoded->events[1].name, "H2G");
  EXPECT_EQ(decoded->events[1].trace_id, 0u);
}

TEST(TraceDumpCodec, EmptyDumpRoundTrips) {
  auto decoded = decode_trace_dump(encode_trace_dump(TraceDump{}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->events.empty());
  EXPECT_TRUE(decoded->tracks.empty());
  EXPECT_EQ(decoded->dropped, 0u);
}

TEST(TraceDumpCodec, RejectsTrailingGarbage) {
  auto payload = encode_trace_dump(sample_dump());
  payload.push_back(0x00);
  EXPECT_FALSE(decode_trace_dump(payload).has_value());
}

TEST(TraceDumpCodec, RejectsTruncation) {
  const auto payload = encode_trace_dump(sample_dump());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                 payload.size() / 2, payload.size() - 1}) {
    const std::span<const std::uint8_t> torn(payload.data(), keep);
    EXPECT_FALSE(decode_trace_dump(torn).has_value()) << keep;
  }
}

TEST(TraceDumpCodec, RejectsAbsurdEventCount) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, 0);                      // dropped
  put_u64(payload, 0);                      // tracks
  put_u64(payload, kMaxTraceDumpEvents + 1);  // events: over the limit
  EXPECT_FALSE(decode_trace_dump(payload).has_value());
}

}  // namespace
}  // namespace swbpbc::service
