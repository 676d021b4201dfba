// Checkpoint stream robustness: round-trips, and the ISSUE's negative
// cases — truncated file, flipped byte, wrong version, wrong fingerprint —
// each rejected with a precise typed error instead of resuming garbage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/checkpoint.hpp"
#include "util/status.hpp"

namespace swbpbc::util {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_ckpt_" + name;
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<char>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void write_stream(const std::string& path, std::uint64_t fingerprint) {
  auto writer = CheckpointWriter::try_create(path, fingerprint);
  ASSERT_TRUE(writer.has_value()) << writer.status().to_string();
  ASSERT_TRUE(writer->append(0, bytes({1, 2, 3, 4})).ok());
  ASSERT_TRUE(writer->append(2, bytes({9, 8, 7, 6, 5})).ok());
}

TEST(Checkpoint, RoundTripsRecords) {
  const std::string path = temp_path("roundtrip.bin");
  write_stream(path, 0xABCDu);

  const auto loaded = read_checkpoint(path, 0xABCDu);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().to_string();
  EXPECT_EQ(loaded->fingerprint, 0xABCDu);
  ASSERT_EQ(loaded->records.size(), 2u);
  ASSERT_NE(loaded->find(0), nullptr);
  EXPECT_EQ(loaded->find(0)->payload, bytes({1, 2, 3, 4}));
  ASSERT_NE(loaded->find(2), nullptr);
  EXPECT_EQ(loaded->find(2)->payload, bytes({9, 8, 7, 6, 5}));
  EXPECT_EQ(loaded->find(1), nullptr);
  std::remove(path.c_str());
}

TEST(Checkpoint, RewrittenChunkLastRecordWins) {
  const std::string path = temp_path("rewrite.bin");
  auto writer = CheckpointWriter::try_create(path, 7);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(writer->append(4, bytes({1})).ok());
  ASSERT_TRUE(writer->append(4, bytes({2})).ok());
  const auto loaded = read_checkpoint(path, 7);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_NE(loaded->find(4), nullptr);
  EXPECT_EQ(loaded->find(4)->payload, bytes({2}));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsCorrupt) {
  const auto loaded = read_checkpoint(temp_path("nonexistent.bin"), 1);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointCorrupt);
}

TEST(Checkpoint, TruncatedFileIsCorrupt) {
  const std::string path = temp_path("truncated.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  ASSERT_GT(data.size(), 5u);
  data.resize(data.size() - 5);  // cut into the final record
  dump(path, data);

  const auto loaded = read_checkpoint(path, 42);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedPayloadByteIsCorrupt) {
  const std::string path = temp_path("flipped.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  // Flip one byte in the middle of the first record's payload (header is
  // 24 bytes, record head 24 bytes).
  data[24 + 24 + 1] = static_cast<char>(data[24 + 24 + 1] ^ 0x40);
  dump(path, data);

  const auto loaded = read_checkpoint(path, 42);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointCorrupt);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Checkpoint, WrongVersionIsMismatch) {
  const std::string path = temp_path("version.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  data[8] = static_cast<char>(kCheckpointVersion + 1);  // version u32 @ 8
  dump(path, data);

  const auto loaded = read_checkpoint(path, 42);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointMismatch);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Checkpoint, WrongFingerprintIsMismatch) {
  const std::string path = temp_path("fingerprint.bin");
  write_stream(path, 42);
  const auto loaded = read_checkpoint(path, 43);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointMismatch);
  std::remove(path.c_str());
}

TEST(Checkpoint, GarbageMagicIsCorrupt) {
  const std::string path = temp_path("magic.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  data[0] = static_cast<char>(data[0] ^ 0xFF);
  dump(path, data);

  const auto loaded = read_checkpoint(path, 42);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

TEST(Checkpoint, UnwritablePathIsTypedError) {
  const auto writer =
      CheckpointWriter::try_create("/nonexistent-dir/x/ckpt.bin", 1);
  ASSERT_FALSE(writer.has_value());
  EXPECT_FALSE(writer.status().ok());
}

TEST(Checkpoint, EmptyStreamLoadsWithNoRecords) {
  const std::string path = temp_path("empty.bin");
  { auto writer = CheckpointWriter::try_create(path, 9); ASSERT_TRUE(writer.has_value()); }
  const auto loaded = read_checkpoint(path, 9);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->records.empty());
  std::remove(path.c_str());
}

// --- torn-tail salvage ---------------------------------------------------

TEST(CheckpointSalvage, TornTailYieldsCleanPrefix) {
  const std::string path = temp_path("salvage_tail.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  data.resize(data.size() - 5);  // writer died mid-append of record 2
  dump(path, data);

  // Strict load rejects; salvage recovers the complete first record and
  // drops the torn tail.
  EXPECT_EQ(read_checkpoint(path, 42).status().code(),
            ErrorCode::kCheckpointCorrupt);
  const auto salvaged = read_checkpoint_salvage(path, 42);
  ASSERT_TRUE(salvaged.has_value()) << salvaged.status().to_string();
  ASSERT_EQ(salvaged->records.size(), 1u);
  ASSERT_NE(salvaged->find(0), nullptr);
  EXPECT_EQ(salvaged->find(0)->payload, bytes({1, 2, 3, 4}));
  EXPECT_EQ(salvaged->find(2), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, TornRecordHeadAlsoSalvages) {
  const std::string path = temp_path("salvage_head.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  // Keep the header, record 0 (24B head + 4B payload + 8B crc), and only
  // 7 bytes of record 1's head.
  data.resize(24 + (24 + 4 + 8) + 7);
  dump(path, data);

  const auto salvaged = read_checkpoint_salvage(path, 42);
  ASSERT_TRUE(salvaged.has_value()) << salvaged.status().to_string();
  ASSERT_EQ(salvaged->records.size(), 1u);
  EXPECT_EQ(salvaged->find(0)->payload, bytes({1, 2, 3, 4}));
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, IntactStreamSalvagesIdentically) {
  const std::string path = temp_path("salvage_intact.bin");
  write_stream(path, 42);
  const auto strict = read_checkpoint(path, 42);
  const auto salvaged = read_checkpoint_salvage(path, 42);
  ASSERT_TRUE(strict.has_value());
  ASSERT_TRUE(salvaged.has_value());
  ASSERT_EQ(salvaged->records.size(), strict->records.size());
  for (std::size_t i = 0; i < strict->records.size(); ++i) {
    EXPECT_EQ(salvaged->records[i].chunk_index,
              strict->records[i].chunk_index);
    EXPECT_EQ(salvaged->records[i].payload, strict->records[i].payload);
  }
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, BitRotInCompleteRecordStillRejects) {
  const std::string path = temp_path("salvage_rot.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  // Flip a payload byte of record 0 — the record is fully present, so this
  // is rot, not a torn write, and salvage must NOT paper over it.
  data[24 + 24 + 1] = static_cast<char>(data[24 + 24 + 1] ^ 0x40);
  dump(path, data);
  const auto salvaged = read_checkpoint_salvage(path, 42);
  ASSERT_FALSE(salvaged.has_value());
  EXPECT_EQ(salvaged.status().code(), ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, HeaderDefectsStillReject) {
  const std::string path = temp_path("salvage_hdr.bin");
  write_stream(path, 42);
  EXPECT_EQ(read_checkpoint_salvage(path, 43).status().code(),
            ErrorCode::kCheckpointMismatch);  // wrong batch
  std::vector<char> data = slurp(path);
  data[0] = static_cast<char>(data[0] ^ 0xFF);
  dump(path, data);
  EXPECT_EQ(read_checkpoint_salvage(path, 42).status().code(),
            ErrorCode::kCheckpointCorrupt);  // bad magic
  std::remove(path.c_str());
}

TEST(CheckpointSalvage, TruncatedInsideFileHeaderRejects) {
  const std::string path = temp_path("salvage_shorthdr.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  data.resize(10);  // not even a full stream header: nothing to salvage
  dump(path, data);
  EXPECT_EQ(read_checkpoint_salvage(path, 42).status().code(),
            ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

// --- append-reopen (the request-journal restart path) --------------------

TEST(CheckpointAppend, CreatesAFreshStreamWhenMissing) {
  const std::string path = temp_path("append_fresh.bin");
  std::remove(path.c_str());
  CheckpointData replayed;
  auto writer = CheckpointWriter::try_append(path, 7, &replayed);
  ASSERT_TRUE(writer.has_value()) << writer.status().to_string();
  EXPECT_TRUE(replayed.records.empty());
  ASSERT_TRUE(writer->append(0, bytes({5})).ok());
  const auto loaded = read_checkpoint(path, 7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->records.size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointAppend, ReplaysAndExtendsAnExistingStream) {
  const std::string path = temp_path("append_extend.bin");
  write_stream(path, 42);  // records 0 and 2
  CheckpointData replayed;
  auto writer = CheckpointWriter::try_append(path, 42, &replayed);
  ASSERT_TRUE(writer.has_value()) << writer.status().to_string();
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.find(0)->payload, bytes({1, 2, 3, 4}));
  ASSERT_TRUE(writer->append(3, bytes({6, 6})).ok());

  const auto loaded = read_checkpoint(path, 42);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().to_string();
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_EQ(loaded->find(3)->payload, bytes({6, 6}));
  std::remove(path.c_str());
}

TEST(CheckpointAppend, TruncatesTheTornTailBeforeAppending) {
  const std::string path = temp_path("append_torn.bin");
  write_stream(path, 42);
  std::vector<char> data = slurp(path);
  data.resize(data.size() - 5);  // crash mid-append of record 2
  dump(path, data);

  CheckpointData replayed;
  auto writer = CheckpointWriter::try_append(path, 42, &replayed);
  ASSERT_TRUE(writer.has_value()) << writer.status().to_string();
  ASSERT_EQ(replayed.records.size(), 1u);  // the clean prefix
  ASSERT_TRUE(writer->append(9, bytes({9})).ok());

  // The new record must land where the torn bytes were, leaving a stream
  // the STRICT reader accepts — physical truncation, not papering over.
  const auto loaded = read_checkpoint(path, 42);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().to_string();
  ASSERT_EQ(loaded->records.size(), 2u);
  EXPECT_EQ(loaded->records[0].chunk_index, 0u);
  EXPECT_EQ(loaded->records[1].chunk_index, 9u);
  std::remove(path.c_str());
}

TEST(CheckpointAppend, RejectsForeignFingerprintAndRot) {
  const std::string path = temp_path("append_reject.bin");
  write_stream(path, 42);
  EXPECT_EQ(CheckpointWriter::try_append(path, 43, nullptr).status().code(),
            ErrorCode::kCheckpointMismatch);
  std::vector<char> data = slurp(path);
  data[24 + 24 + 1] = static_cast<char>(data[24 + 24 + 1] ^ 0x01);
  dump(path, data);
  EXPECT_EQ(CheckpointWriter::try_append(path, 42, nullptr).status().code(),
            ErrorCode::kCheckpointCorrupt);
  std::remove(path.c_str());
}

// --- the streamed reader: windows, parallel checksums, defect order ------

// A stream spanning several read windows: records of mixed sizes, one of
// them larger than a whole window.
struct BigStream {
  std::vector<std::vector<std::uint8_t>> payloads;

  // Byte offset of record `k`'s head (the header is 24 bytes, a record
  // adds 24 bytes of head and 8 of checksum to its payload).
  [[nodiscard]] std::size_t offset(std::size_t k) const {
    std::size_t at = 24;
    for (std::size_t i = 0; i < k; ++i) at += 24 + payloads[i].size() + 8;
    return at;
  }
};

BigStream write_big_stream(const std::string& path, std::uint64_t fp) {
  BigStream stream;
  const std::size_t sizes[] = {40, 600, 3000, 35000};
  for (std::size_t i = 0; i < 240; ++i) {
    const std::size_t size =
        i == 100 ? kCheckpointWindowBytes + 4321 : sizes[i % 4];
    std::vector<std::uint8_t> payload(size);
    for (std::size_t j = 0; j < size; ++j)
      payload[j] = static_cast<std::uint8_t>(i * 31 + j);
    stream.payloads.push_back(std::move(payload));
  }
  auto writer = CheckpointWriter::try_create(path, fp);
  EXPECT_TRUE(writer.has_value()) << writer.status().to_string();
  for (std::size_t i = 0; i < stream.payloads.size(); ++i)
    EXPECT_TRUE(writer->append(i, stream.payloads[i]).ok());
  return stream;
}

void flip(std::vector<char>& data, std::size_t at) {
  data[at] = static_cast<char>(data[at] ^ 0x10);
}

TEST(CheckpointStream, SpansSeveralWindowsAndRoundTrips) {
  const std::string path = temp_path("stream_roundtrip.bin");
  const BigStream stream = write_big_stream(path, 42);
  ASSERT_GT(stream.offset(stream.payloads.size()),
            3 * kCheckpointWindowBytes);
  const auto loaded = read_checkpoint(path, 42);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().to_string();
  ASSERT_EQ(loaded->records.size(), stream.payloads.size());
  for (std::size_t i = 0; i < stream.payloads.size(); ++i) {
    EXPECT_EQ(loaded->records[i].chunk_index, i);
    EXPECT_EQ(loaded->records[i].payload, stream.payloads[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointStream, FlippedMiddleRecordFailsItsChecksumByIndex) {
  const std::string path = temp_path("stream_flip.bin");
  const BigStream stream = write_big_stream(path, 42);
  std::vector<char> data = slurp(path);
  flip(data, stream.offset(150) + 24 + 7);  // a payload byte
  dump(path, data);
  const std::string expected =
      "checkpoint '" + path + "' record 150 (chunk 150) fails its checksum";
  for (const auto& loaded :
       {read_checkpoint(path, 42), read_checkpoint_salvage(path, 42)}) {
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.status().code(), ErrorCode::kCheckpointCorrupt);
    EXPECT_EQ(loaded.status().message(), expected);
  }
  const auto appended = CheckpointWriter::try_append(path, 42, nullptr);
  ASSERT_FALSE(appended.has_value());
  EXPECT_EQ(appended.status().message(), expected);
  EXPECT_EQ(slurp(path).size(), data.size());  // rot is never truncated
  std::remove(path.c_str());
}

TEST(CheckpointStream, TornTailKeepsItsMessagesAndSalvageOffset) {
  const std::string path = temp_path("stream_torn.bin");
  const BigStream stream = write_big_stream(path, 42);
  const std::size_t last = stream.payloads.size() - 1;
  const std::size_t tail = stream.offset(last);
  const std::vector<char> whole = slurp(path);
  struct Cut {
    std::size_t keep;  // bytes of the last record left on disk
    std::string what;
  };
  const std::vector<Cut> cuts = {
      {7, "truncated inside record 239's header"},
      {24 + 100, "truncated inside record 239's payload"},
      {24 + stream.payloads[last].size() + 3,
       "truncated before record 239's checksum"}};
  for (const Cut& cut : cuts) {
    std::vector<char> data(whole.begin(),
                           whole.begin() + static_cast<long>(tail + cut.keep));
    dump(path, data);
    const auto strict = read_checkpoint(path, 42);
    ASSERT_FALSE(strict.has_value());
    EXPECT_EQ(strict.status().code(), ErrorCode::kCheckpointCorrupt);
    EXPECT_EQ(strict.status().message(),
              "checkpoint '" + path + "' " + cut.what);

    const auto salvaged = read_checkpoint_salvage(path, 42);
    ASSERT_TRUE(salvaged.has_value()) << salvaged.status().to_string();
    ASSERT_EQ(salvaged->records.size(), last);
    EXPECT_EQ(salvaged->records.back().payload, stream.payloads[last - 1]);

    // The append mode cuts the file back to exactly the last whole record.
    CheckpointData replayed;
    ASSERT_TRUE(CheckpointWriter::try_append(path, 42, &replayed).has_value());
    EXPECT_EQ(replayed.records.size(), last);
    EXPECT_EQ(slurp(path).size(), tail);
  }
  std::remove(path.c_str());
}

TEST(CheckpointStream, LowestIndexDefectWins) {
  const std::string path = temp_path("stream_order.bin");
  const BigStream stream = write_big_stream(path, 42);
  const std::vector<char> whole = slurp(path);

  // A checksum failure sits before a bad marker in a later window...
  std::vector<char> data = whole;
  flip(data, stream.offset(20) + 24 + 1);
  flip(data, stream.offset(200));  // record 200's marker
  dump(path, data);
  EXPECT_EQ(read_checkpoint(path, 42).status().message(),
            "checkpoint '" + path +
                "' record 20 (chunk 20) fails its checksum");

  // ...the bad marker alone is reported as itself...
  data = whole;
  flip(data, stream.offset(200));
  dump(path, data);
  EXPECT_EQ(read_checkpoint(path, 42).status().message(),
            "checkpoint '" + path + "' record 200 has a corrupt marker");

  // ...and of two checksum failures in one window, the earlier one wins
  // whichever worker verified it first.
  data = whole;
  flip(data, stream.offset(9) + 24 + 2);
  flip(data, stream.offset(5) + 24 + 2);
  dump(path, data);
  EXPECT_EQ(read_checkpoint_salvage(path, 42).status().message(),
            "checkpoint '" + path + "' record 5 (chunk 5) fails its checksum");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swbpbc::util
