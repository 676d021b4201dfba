// Wire framing and payload codec robustness: round trips, incremental
// byte-dribble decoding, and the typed rejection matrix — bad magic,
// wrong protocol version, flipped payload byte, implausible length,
// unknown frame type, torn tail — each a precise kParseError instead of
// a desynchronized stream. Payload codecs (ScreenRequest/ScreenResponse)
// get the same treatment: every limit violation is a typed rejection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "encoding/random.hpp"
#include "service/frame.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::service {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

ScreenRequest make_request(std::size_t pairs = 3, std::size_t m = 8,
                           std::size_t n = 24) {
  util::Xoshiro256 rng(99);
  ScreenRequest req;
  req.id = "req-frame-test";
  req.tenant = "acme";
  req.deadline_budget_ms = 125.0;
  req.xs = encoding::random_sequences(rng, pairs, m);
  req.ys = encoding::random_sequences(rng, pairs, n);
  return req;
}

TEST(Frame, RoundTripsThroughDecoder) {
  const auto payload = bytes({1, 2, 3, 4, 5});
  const auto encoded = encode_frame(FrameType::kScreenRequest, payload);

  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kScreenRequest);
  EXPECT_EQ((*frame)->payload, payload);
  EXPECT_EQ(decoder.pending_bytes(), 0u);

  // No second frame, and the decoder is not poisoned by emptiness.
  const auto again = decoder.next();
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->has_value());
}

TEST(Frame, EmptyPayloadRoundTrips) {
  const auto encoded = encode_frame(FrameType::kPing, {});
  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kPing);
  EXPECT_TRUE((*frame)->payload.empty());
}

TEST(Frame, DecodesByteByByteDribble) {
  // A non-blocking socket delivers bytes in arbitrary slices; the decoder
  // must yield exactly the same frames when fed one byte at a time.
  const auto a = encode_frame(FrameType::kScreenRequest, bytes({7, 7, 7}));
  const auto b = encode_frame(FrameType::kPong, {});
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameDecoder decoder;
  std::vector<Frame> seen;
  for (std::uint8_t byte : stream) {
    decoder.feed({&byte, 1});
    for (;;) {
      auto next = decoder.next();
      ASSERT_TRUE(next.has_value()) << next.status().to_string();
      if (!next->has_value()) break;
      seen.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].type, FrameType::kScreenRequest);
  EXPECT_EQ(seen[0].payload, bytes({7, 7, 7}));
  EXPECT_EQ(seen[1].type, FrameType::kPong);
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(Frame, RejectsBadMagic) {
  auto encoded = encode_frame(FrameType::kPing, {});
  encoded[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kParseError);
}

TEST(Frame, RejectsWrongVersion) {
  auto encoded = encode_frame(FrameType::kPing, {});
  // version is the u16 right after the 8-byte magic.
  const std::uint16_t bogus = kProtocolVersion + 1;
  std::memcpy(encoded.data() + 8, &bogus, sizeof(bogus));
  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kParseError);
}

TEST(Frame, RejectsUnknownType) {
  auto encoded = encode_frame(FrameType::kPing, {});
  const std::uint16_t bogus = 999;
  std::memcpy(encoded.data() + 10, &bogus, sizeof(bogus));
  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kParseError);
}

TEST(Frame, RejectsFlippedPayloadByte) {
  auto encoded = encode_frame(FrameType::kScreenResponse,
                              bytes({10, 20, 30, 40}));
  encoded.back() ^= 0x04;  // damage the payload, not the header
  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kParseError);
}

TEST(Frame, RejectsImplausibleLength) {
  auto encoded = encode_frame(FrameType::kPing, {});
  // payload_bytes is the u64 at offset 16; declare half an exabyte.
  const std::uint64_t bogus = 1ull << 60;
  std::memcpy(encoded.data() + 16, &bogus, sizeof(bogus));
  FrameDecoder decoder;
  decoder.feed(encoded);
  const auto frame = decoder.next();
  ASSERT_FALSE(frame.has_value());
  EXPECT_EQ(frame.status().code(), util::ErrorCode::kParseError);
}

TEST(Frame, ParseErrorIsSticky) {
  auto bad = encode_frame(FrameType::kPing, {});
  bad[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.feed(bad);
  ASSERT_FALSE(decoder.next().has_value());
  // Even a pristine frame after the poison pill is refused: frame
  // boundaries are lost, the connection must drop.
  decoder.feed(encode_frame(FrameType::kPing, {}));
  const auto after = decoder.next();
  ASSERT_FALSE(after.has_value());
  EXPECT_EQ(after.status().code(), util::ErrorCode::kParseError);
}

TEST(Frame, TornFrameLeavesPendingBytes) {
  const auto encoded = encode_frame(FrameType::kScreenRequest,
                                    bytes({1, 2, 3, 4, 5, 6, 7, 8}));
  FrameDecoder decoder;
  decoder.feed({encoded.data(), encoded.size() - 3});
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->has_value());  // incomplete, not an error
  EXPECT_GT(decoder.pending_bytes(), 0u);  // the tear is observable
}

TEST(Protocol, RequestRoundTrips) {
  const ScreenRequest req = make_request();
  const auto decoded = decode_request(encode_request(req));
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->id, req.id);
  EXPECT_EQ(decoded->tenant, req.tenant);
  EXPECT_EQ(decoded->deadline_budget_ms, req.deadline_budget_ms);
  ASSERT_EQ(decoded->pair_count(), req.pair_count());
  for (std::size_t k = 0; k < req.pair_count(); ++k) {
    EXPECT_EQ(decoded->xs[k], req.xs[k]);
    EXPECT_EQ(decoded->ys[k], req.ys[k]);
  }
}

TEST(Protocol, ResponseRoundTrips) {
  ScreenResponse resp;
  resp.id = "req-9";
  resp.code = util::ErrorCode::kQuotaExceeded;
  resp.message = "tenant over quota";
  resp.retry_after_ms = 42.5;
  resp.scores = {};
  const auto decoded = decode_response(encode_response(resp));
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->id, resp.id);
  EXPECT_EQ(decoded->code, util::ErrorCode::kQuotaExceeded);
  EXPECT_EQ(decoded->message, resp.message);
  EXPECT_EQ(decoded->retry_after_ms, resp.retry_after_ms);

  ScreenResponse ok;
  ok.id = "req-10";
  ok.scores = {3, 1, 4, 1, 5};
  const auto decoded_ok = decode_response(encode_response(ok));
  ASSERT_TRUE(decoded_ok.has_value());
  EXPECT_EQ(decoded_ok->code, util::ErrorCode::kOk);
  EXPECT_EQ(decoded_ok->scores, ok.scores);
}

TEST(Protocol, RejectsEmptyIdAndOversizedTenant) {
  ScreenRequest req = make_request();
  req.id.clear();
  auto decoded = decode_request(encode_request(req));
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidInput);

  req = make_request();
  req.tenant.assign(kMaxTenantBytes + 1, 't');
  decoded = decode_request(encode_request(req));
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(Protocol, RejectsTruncatedAndTrailingGarbage) {
  const auto payload = encode_request(make_request());
  auto truncated = payload;
  truncated.resize(truncated.size() - 5);
  auto decoded = decode_request(truncated);
  ASSERT_FALSE(decoded.has_value());

  auto padded = payload;
  padded.push_back(0);
  decoded = decode_request(padded);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
}

TEST(Protocol, RejectsNonDnaCode) {
  auto payload = encode_request(make_request(1, 4, 4));
  // The last 8 bytes are the single y's codes; 0xFF is not a 2-bit base.
  payload[payload.size() - 1] = 0xFF;
  const auto decoded = decode_request(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(Protocol, SideDefectsNameTheFirstBadSequenceInWireOrder) {
  // xs then ys, sequence by sequence: a sequence's codes are checked
  // before the next one is read, and the first bad code is named.
  ScreenRequest req = make_request(3, 8, 24);
  req.ys[1][2] = 7;
  req.ys[1][5] = 200;
  req.ys[2][0] = 9;
  auto decoded = decode_request(encode_request(req));
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(decoded.status().message(), "ys[1] carries a non-DNA code 7");

  req.xs[2][7] = 4;  // an earlier side wins
  decoded = decode_request(encode_request(req));
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().message(), "xs[2] carries a non-DNA code 4");

  // A bad code in ys[1] is found before ys[2] turns out truncated...
  req = make_request(3, 8, 24);
  req.ys[1][0] = 5;
  auto payload = encode_request(req);
  payload.resize(payload.size() - 10);
  decoded = decode_request(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().message(), "ys[1] carries a non-DNA code 5");

  // ...and without it the truncation names the side.
  payload = encode_request(make_request(3, 8, 24));
  payload.resize(payload.size() - 10);
  decoded = decode_request(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
  EXPECT_EQ(decoded.status().message(),
            "request/response payload ends inside ys");
}

TEST(Protocol, RejectsNegativeAndNaNDeadline) {
  ScreenRequest req = make_request();
  req.deadline_budget_ms = -1.0;
  auto decoded = decode_request(encode_request(req));
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kInvalidInput);

  req.deadline_budget_ms = std::nan("");
  decoded = decode_request(encode_request(req));
  ASSERT_FALSE(decoded.has_value());
}

TEST(Protocol, RejectsOutOfRangeResponseCode) {
  ScreenResponse resp;
  resp.id = "x";
  auto payload = encode_response(resp);
  // code is the u64 after the id (u64 len + bytes); stamp a bogus value.
  const std::uint64_t bogus = 0xDEAD;
  std::memcpy(payload.data() + 8 + resp.id.size(), &bogus, sizeof(bogus));
  const auto decoded = decode_response(payload);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), util::ErrorCode::kParseError);
}

}  // namespace
}  // namespace swbpbc::service
