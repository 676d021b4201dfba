// Crash-safe request journal: admitted/completed replay, the
// admitted-minus-completed pending set, torn-tail salvage after a
// simulated kill mid-append, and the typed rejections — foreign
// fingerprint (scoring config changed) and records damaged beyond the
// torn tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "encoding/random.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "util/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace swbpbc::service {
namespace {

constexpr std::uint64_t kFp = 0xFEEDBEEF;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_journal_" + name;
}

ScreenRequest make_request(const std::string& id, std::uint64_t seed = 3) {
  util::Xoshiro256 rng(seed);
  ScreenRequest req;
  req.id = id;
  req.tenant = "acme";
  req.xs = encoding::random_sequences(rng, 2, 8);
  req.ys = encoding::random_sequences(rng, 2, 24);
  return req;
}

ScreenResponse make_response(const std::string& id) {
  ScreenResponse resp;
  resp.id = id;
  resp.scores = {11, 7};
  return resp;
}

TEST(Journal, FreshJournalStartsEmpty) {
  const std::string path = temp_path("fresh.journal");
  std::remove(path.c_str());
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 0u);
  EXPECT_TRUE(journal->take_pending().empty());
  EXPECT_TRUE(journal->take_completed().empty());
  std::remove(path.c_str());
}

TEST(Journal, ReplaysAdmittedMinusCompletedAsPending) {
  const std::string path = temp_path("replay.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("done")).ok());
    ASSERT_TRUE(journal->record_admitted(make_request("pending")).ok());
    ASSERT_TRUE(journal->record_completed(make_response("done")).ok());
    EXPECT_EQ(journal->appended(), 3u);
  }  // "crash": destructor closes, no graceful shutdown bookkeeping

  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 3u);

  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "pending");
  EXPECT_EQ(pending[0].xs, make_request("pending").xs);

  const auto completed = journal->take_completed();
  ASSERT_EQ(completed.size(), 1u);
  ASSERT_TRUE(completed.contains("done"));
  EXPECT_EQ(completed.at("done").scores, make_response("done").scores);
  std::remove(path.c_str());
}

TEST(Journal, SurvivesRepeatedRestarts) {
  const std::string path = temp_path("restart.journal");
  std::remove(path.c_str());
  // Three generations, each appending after a replay — the sequence
  // numbering must keep advancing or records would overwrite.
  for (int gen = 0; gen < 3; ++gen) {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
    EXPECT_EQ(journal->replayed(), static_cast<std::uint64_t>(gen));
    ASSERT_TRUE(
        journal->record_admitted(make_request("g" + std::to_string(gen)))
            .ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value());
  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].id, "g0");
  EXPECT_EQ(pending[2].id, "g2");
  std::remove(path.c_str());
}

TEST(Journal, DropsTornTailRecord) {
  const std::string path = temp_path("torn.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("whole")).ok());
  }
  // A kill -9 mid-append leaves a partial record at the tail; fake one.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char torn[] = {0x52, 0x45, 0x43, 0x00, 0x01};  // record marker...
    out.write(torn, sizeof(torn));
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 1u);
  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "whole");
  // The tail was physically truncated: a new append then a clean reopen.
  ASSERT_TRUE(journal->record_admitted(make_request("after")).ok());
  auto reopened = RequestJournal::open(path, kFp);
  ASSERT_TRUE(reopened.has_value()) << reopened.status().to_string();
  EXPECT_EQ(reopened->take_pending().size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, RejectsForeignFingerprint) {
  const std::string path = temp_path("foreign.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("r")).ok());
  }
  // Restarting under different scoring rules must refuse the journal
  // rather than serve scores computed under the old ones.
  auto journal = RequestJournal::open(path, kFp + 1);
  ASSERT_FALSE(journal.has_value());
  EXPECT_EQ(journal.status().code(), util::ErrorCode::kCheckpointMismatch);
  std::remove(path.c_str());
}

TEST(Journal, RejectsUndecodableRecordPayload) {
  const std::string path = temp_path("garbage.journal");
  std::remove(path.c_str());
  {
    // A checksum-valid record whose payload is not a journal record: the
    // stream layer accepts it, the journal layer must refuse to replay.
    auto writer = util::CheckpointWriter::try_create(path, kFp);
    ASSERT_TRUE(writer.has_value());
    const std::vector<std::uint8_t> garbage = {0x7F, 0x00, 0x01, 0x02};
    ASSERT_TRUE(writer->append(0, garbage).ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_FALSE(journal.has_value());
  EXPECT_EQ(journal.status().code(), util::ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

TEST(Journal, ReplaysRetiredBackendHintAsUnhinted) {
  // A journal written while hint 4 (the retired wordwise-naive engine)
  // was still valid must replay: the record decodes, hint read as 0.
  const std::string path = temp_path("hint.journal");
  std::remove(path.c_str());
  ScreenRequest hinted = make_request("hinted");
  hinted.backend_hint = 4;
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(hinted).ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, "hinted");
  EXPECT_EQ(pending[0].backend_hint, 0u);
  EXPECT_EQ(pending[0].xs, hinted.xs);
  EXPECT_EQ(pending[0].ys, hinted.ys);
  std::remove(path.c_str());
}

TEST(Journal, CompletedResponsesRoundTripExactly) {
  const std::string path = temp_path("bits.journal");
  std::remove(path.c_str());
  ScreenResponse resp;
  resp.id = "bits";
  resp.code = util::ErrorCode::kOk;
  resp.scores = {0, 1, 0xFFFFFFFFu, 42};
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->record_admitted(make_request("bits")).ok());
    ASSERT_TRUE(journal->record_completed(resp).ok());
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value());
  const auto completed = journal->take_completed();
  ASSERT_TRUE(completed.contains("bits"));
  // Bit-identical: the retrying client receives exactly the bytes the
  // crashed daemon would have sent.
  EXPECT_EQ(encode_response(completed.at("bits")), encode_response(resp));
  std::remove(path.c_str());
}

// --- streamed replay -----------------------------------------------------

// About 9 KB encoded: a few hundred of these span several read windows.
ScreenRequest big_request(const std::string& id, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  ScreenRequest req;
  req.id = id;
  req.tenant = "bulk";
  req.xs = encoding::random_sequences(rng, 16, 64);
  req.ys = encoding::random_sequences(rng, 16, 512);
  return req;
}

// The replay a serial reader performs: admitted appends to pending,
// completed caches the response and drops every pending entry of its id.
struct SerialModel {
  std::vector<ScreenRequest> pending;
  std::map<std::string, ScreenResponse> completed;

  void admit(const ScreenRequest& r) { pending.push_back(r); }
  void complete(const ScreenResponse& r) {
    completed[r.id] = r;
    std::erase_if(pending,
                  [&r](const ScreenRequest& p) { return p.id == r.id; });
  }
};

// Writes a journal of `n` large admitted requests, completing them in
// reverse order (all but every fifth), re-admitting a completed id and
// admitting one id twice; returns the serial replay of what it wrote.
SerialModel write_bulk_journal(const std::string& path, std::size_t n) {
  std::remove(path.c_str());
  SerialModel model;
  auto journal = RequestJournal::open(path, kFp);
  EXPECT_TRUE(journal.has_value()) << journal.status().to_string();
  const auto admit = [&](const ScreenRequest& r) {
    EXPECT_TRUE(journal->record_admitted(r).ok());
    model.admit(r);
  };
  const auto complete = [&](const ScreenResponse& r) {
    EXPECT_TRUE(journal->record_completed(r).ok());
    model.complete(r);
  };
  for (std::size_t i = 0; i < n; ++i)
    admit(big_request("b" + std::to_string(i), i));
  admit(big_request("b3", 1000));  // a duplicate admission of one id
  for (std::size_t i = n; i-- > 0;)
    if (i % 5 != 0) complete(make_response("b" + std::to_string(i)));
  admit(big_request("b7", 1001));  // re-admitted after its completion
  return model;
}

void expect_replay_matches(RequestJournal& journal, const SerialModel& model) {
  const auto pending = journal.take_pending();
  ASSERT_EQ(pending.size(), model.pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i)
    EXPECT_EQ(encode_request(pending[i]), encode_request(model.pending[i]))
        << "pending[" << i << "]";
  const auto completed = journal.take_completed();
  ASSERT_EQ(completed.size(), model.completed.size());
  for (const auto& [id, response] : model.completed) {
    ASSERT_TRUE(completed.contains(id)) << id;
    EXPECT_EQ(encode_response(completed.at(id)), encode_response(response));
  }
}

TEST(Journal, ReplayAcrossWindowsMatchesASerialReplay) {
  const std::string path = temp_path("windows.journal");
  const SerialModel model = write_bulk_journal(path, 400);
  const auto file_bytes = std::filesystem::file_size(path);
  ASSERT_GT(file_bytes, 3 * util::kCheckpointWindowBytes);
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  EXPECT_EQ(journal->replayed(), 400u + 1 + 320 + 1);
  EXPECT_EQ(journal->replayed_bytes(), file_bytes - 24);  // all but header
  expect_replay_matches(*journal, model);
  std::remove(path.c_str());
}

TEST(Journal, ZeroWorkerPoolReplaysLikeTheGlobalPool) {
  const std::string path = temp_path("serial_pool.journal");
  const SerialModel model = write_bulk_journal(path, 300);
  util::ThreadPool serial(0);
  auto on_serial = RequestJournal::open(path, kFp, serial);
  ASSERT_TRUE(on_serial.has_value()) << on_serial.status().to_string();
  auto on_global = RequestJournal::open(path, kFp);
  ASSERT_TRUE(on_global.has_value()) << on_global.status().to_string();
  EXPECT_EQ(on_serial->replayed(), on_global->replayed());
  EXPECT_EQ(on_serial->replayed_bytes(), on_global->replayed_bytes());
  expect_replay_matches(*on_serial, model);
  expect_replay_matches(*on_global, model);
  std::remove(path.c_str());
}

TEST(Journal, CompletionsInReverseAdmissionOrderLeaveTheRestPending) {
  const std::string path = temp_path("reverse.journal");
  std::remove(path.c_str());
  {
    auto journal = RequestJournal::open(path, kFp);
    ASSERT_TRUE(journal.has_value());
    for (int i = 0; i < 2000; ++i)
      ASSERT_TRUE(
          journal->record_admitted(make_request("r" + std::to_string(i)))
              .ok());
    for (int i = 1999; i >= 0; --i) {
      if (i % 7 == 0) continue;
      ASSERT_TRUE(
          journal->record_completed(make_response("r" + std::to_string(i)))
              .ok());
    }
  }
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_TRUE(journal.has_value()) << journal.status().to_string();
  const auto pending = journal->take_pending();
  ASSERT_EQ(pending.size(), 286u);  // 0, 7, ..., 1995
  for (std::size_t k = 0; k < pending.size(); ++k)
    EXPECT_EQ(pending[k].id, "r" + std::to_string(7 * k));
  EXPECT_EQ(journal->take_completed().size(), 2000u - 286u);
  std::remove(path.c_str());
}

// Writes raw journal records through the checkpoint layer; returns each
// record's byte offset in the file.
std::vector<std::size_t> write_raw(
    const std::string& path,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::remove(path.c_str());
  auto writer = util::CheckpointWriter::try_create(path, kFp);
  EXPECT_TRUE(writer.has_value());
  std::vector<std::size_t> offsets;
  std::size_t at = 24;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_TRUE(writer->append(i, payloads[i]).ok());
    offsets.push_back(at);
    at += 24 + payloads[i].size() + 8;
  }
  return offsets;
}

std::vector<std::uint8_t> admitted_payload(const ScreenRequest& r) {
  std::vector<std::uint8_t> payload = {1};  // the admitted kind
  const auto body = encode_request(r);
  payload.insert(payload.end(), body.begin(), body.end());
  return payload;
}

TEST(Journal, UndecodableRecordThenLaterChecksumDefectReportsTheChecksum) {
  // A stream defect anywhere wins over a record the journal cannot
  // decode: the serial reader validated the whole stream before it
  // decoded anything.
  const std::string path = temp_path("precedence.journal");
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back(admitted_payload(big_request("ok", 1)));
  payloads.push_back({1, 0x00});  // admitted, but no request body
  for (std::uint64_t i = 0; i < 300; ++i)
    payloads.push_back(
        admitted_payload(big_request("p" + std::to_string(i), 2 + i)));
  const auto offsets = write_raw(path, payloads);

  auto undecodable = RequestJournal::open(path, kFp);
  ASSERT_FALSE(undecodable.has_value());
  EXPECT_EQ(undecodable.status().code(), util::ErrorCode::kCheckpointCorrupt);
  EXPECT_NE(undecodable.status().message().find(
                "holds an undecodable admitted record"),
            std::string::npos)
      << undecodable.status().to_string();

  // Rot in record 250, windows past the undecodable record 1.
  std::vector<char> data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(offsets[250], 2 * util::kCheckpointWindowBytes);
  char& rot = data[offsets[250] + 24 + 40];
  rot = static_cast<char>(rot ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  auto rotten = RequestJournal::open(path, kFp);
  ASSERT_FALSE(rotten.has_value());
  EXPECT_EQ(rotten.status().code(), util::ErrorCode::kCheckpointCorrupt);
  EXPECT_EQ(rotten.status().message(),
            "checkpoint '" + path +
                "' record 250 (chunk 250) fails its checksum");
  std::remove(path.c_str());
}

TEST(Journal, LowestIndexUndecodableRecordWins) {
  const std::string path = temp_path("first_bad.journal");
  write_raw(path, {admitted_payload(make_request("a")),
                   {9, 1, 2, 3},  // unknown kind
                   admitted_payload(make_request("b")),
                   {}});  // empty record
  auto journal = RequestJournal::open(path, kFp);
  ASSERT_FALSE(journal.has_value());
  EXPECT_EQ(journal.status().code(), util::ErrorCode::kCheckpointCorrupt);
  EXPECT_EQ(journal.status().message(),
            "journal '" + path + "' holds a record of unknown kind 9");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swbpbc::service
