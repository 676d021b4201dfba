// Database store robustness: round trips at epsilon 2 and 5, the typed
// rejection matrix (missing file, bad magic, header/table checksum,
// version/endian/limb-width mismatch, truncation), per-shard lazy
// verification with quarantine, and the deterministic IO fault injector
// damaging only the private mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "db/builder.hpp"
#include "db/fault.hpp"
#include "db/format.hpp"
#include "db/reader.hpp"
#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::db {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_db_" + name;
}

std::vector<encoding::Sequence> make_batch(std::size_t count,
                                           std::size_t length,
                                           std::uint64_t seed = 11) {
  util::Xoshiro256 rng(seed);
  return encoding::random_sequences(rng, count, length);
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

// Patches a 4-byte header field and re-seals the header checksum, so the
// patched value survives validation far enough to hit its own typed check.
void patch_header_u32(const std::string& path, std::size_t offset,
                      std::uint32_t value) {
  std::vector<char> data = slurp(path);
  ASSERT_GE(data.size(), sizeof(FileHeader));
  std::memcpy(data.data() + offset, &value, sizeof(value));
  const std::uint64_t fnv =
      util::fnv1a_bytes(data.data(), sizeof(FileHeader) - sizeof(std::uint64_t));
  std::memcpy(data.data() + sizeof(FileHeader) - sizeof(std::uint64_t), &fnv,
              sizeof(fnv));
  dump(path, data);
}

TEST(DbStore, RoundTripServesIdenticalPlanes) {
  const std::string path = temp_path("roundtrip.swdb");
  const auto seqs = make_batch(130, 40);  // 3 shards, last uses 2 lanes
  ASSERT_TRUE(build_database(seqs, path).ok());

  auto reader = Reader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  EXPECT_EQ(reader->entry_count(), 130u);
  EXPECT_EQ(reader->entry_length(), 40u);
  EXPECT_EQ(reader->plane_bits(), encoding::kBitsPerBase);
  EXPECT_EQ(reader->shard_count(), 3u);
  EXPECT_EQ(reader->content_fingerprint(), content_fingerprint(seqs));

  // Every shard's planes must equal the in-memory W2B of that 64-entry
  // slice — the bit-identity the db-backed screen path relies on.
  for (std::size_t s = 0; s < reader->shard_count(); ++s) {
    const auto view = reader->shard(s);
    ASSERT_TRUE(view.has_value()) << view.status().to_string();
    EXPECT_EQ(view->first_entry, s * kDbLanesPerShard);
    const std::size_t used =
        std::min<std::size_t>(kDbLanesPerShard, seqs.size() - s * 64);
    EXPECT_EQ(view->lanes_used, used);
    const auto slice = std::span<const encoding::Sequence>(seqs)
                           .subspan(s * 64, used);
    const auto expect = encoding::transpose_strings<std::uint64_t>(slice);
    ASSERT_EQ(expect.groups.size(), 1u);
    for (unsigned p = 0; p < view->plane_bits; ++p) {
      const auto got = view->plane(p);
      const auto want = expect.groups[0].row(p);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "shard " << s << " plane " << p;
    }
  }
  const ReaderStats st = reader->stats();
  EXPECT_EQ(st.shards_verified, 3u);
  EXPECT_EQ(st.shards_corrupt, 0u);
  std::remove(path.c_str());
}

TEST(DbStore, EmptyDatabaseRoundTrips) {
  const std::string path = temp_path("empty.swdb");
  ASSERT_TRUE(build_database({}, path).ok());
  auto reader = Reader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  EXPECT_EQ(reader->entry_count(), 0u);
  EXPECT_EQ(reader->shard_count(), 0u);
  std::remove(path.c_str());
}

TEST(DbStore, GenericEpsilonFiveRoundTrips) {
  const std::string path = temp_path("protein.swdb");
  util::Xoshiro256 rng(5);
  std::vector<encoding::GenericSequence> seqs(70);
  for (auto& s : seqs) {
    s.resize(33);
    for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(20));
  }
  ASSERT_TRUE(build_generic_database(seqs, 5, path).ok());

  auto reader = Reader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  EXPECT_EQ(reader->plane_bits(), 5u);
  ASSERT_EQ(reader->shard_count(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const auto view = reader->shard(s);
    ASSERT_TRUE(view.has_value());
    for (unsigned lane = 0; lane < view->lanes_used; ++lane) {
      const auto& orig = seqs[s * 64 + lane];
      for (std::size_t i = 0; i < view->length; ++i) {
        std::uint8_t code = 0;
        for (unsigned p = 0; p < view->plane_bits; ++p)
          code |= static_cast<std::uint8_t>(((view->plane(p)[i] >> lane) & 1)
                                            << p);
        ASSERT_EQ(code, orig[i]) << "shard " << s << " lane " << lane;
      }
    }
  }
  std::remove(path.c_str());
}

// The on-disk format is a compatibility contract: stores built by any
// earlier release must keep opening and serving. Pin the whole-file
// FNV-1a of one seeded DNA store and one epsilon = 5 store, so a builder
// change that moves a byte fails here instead of in the field.
TEST(DbStore, FileBytesArePinned) {
  const std::string dna_path = temp_path("pinned_dna.swdb");
  ASSERT_TRUE(build_database(make_batch(130, 40), dna_path).ok());
  const std::vector<char> dna = slurp(dna_path);
  EXPECT_EQ(dna.size(), 2112u);
  EXPECT_EQ(util::fnv1a_bytes(dna.data(), dna.size()),
            0x5967b628abd20c6eull);
  std::remove(dna_path.c_str());

  const std::string protein_path = temp_path("pinned_eps5.swdb");
  util::Xoshiro256 rng(5);
  std::vector<encoding::GenericSequence> seqs(70);
  for (auto& s : seqs) {
    s.resize(33);
    for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(20));
  }
  ASSERT_TRUE(build_generic_database(seqs, 5, protein_path).ok());
  const std::vector<char> protein = slurp(protein_path);
  EXPECT_EQ(protein.size(), 2880u);
  EXPECT_EQ(util::fnv1a_bytes(protein.data(), protein.size()),
            0xf1c73b67aa539e82ull);
  std::remove(protein_path.c_str());
}

TEST(DbStore, BuilderRejectsRaggedAndOversizedCodes) {
  std::vector<encoding::GenericSequence> ragged = {{1, 2, 3}, {1, 2}};
  EXPECT_EQ(build_generic_database(ragged, 2, temp_path("ragged.swdb"))
                .code(),
            util::ErrorCode::kInvalidInput);
  std::vector<encoding::GenericSequence> wide = {{1, 7, 3}};  // 7 needs 3 bits
  EXPECT_EQ(build_generic_database(wide, 2, temp_path("wide.swdb")).code(),
            util::ErrorCode::kInvalidInput);
}

TEST(DbStore, MissingFileIsCorrupt) {
  const auto reader = Reader::open(temp_path("nonexistent.swdb"));
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbCorrupt);
}

TEST(DbStore, BadMagicIsCorrupt) {
  const std::string path = temp_path("magic.swdb");
  ASSERT_TRUE(build_database(make_batch(4, 8), path).ok());
  std::vector<char> data = slurp(path);
  data[0] ^= 0x7f;
  dump(path, data);
  const auto reader = Reader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbCorrupt);
  std::remove(path.c_str());
}

TEST(DbStore, FlippedHeaderByteIsCorrupt) {
  const std::string path = temp_path("hdrflip.swdb");
  ASSERT_TRUE(build_database(make_batch(4, 8), path).ok());
  std::vector<char> data = slurp(path);
  data[24] = static_cast<char>(data[24] ^ 0x10);  // entry_count field
  dump(path, data);
  const auto reader = Reader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbCorrupt);
  EXPECT_NE(reader.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DbStore, WrongVersionIsMismatch) {
  const std::string path = temp_path("version.swdb");
  ASSERT_TRUE(build_database(make_batch(4, 8), path).ok());
  patch_header_u32(path, offsetof(FileHeader, version), kDbVersion + 1);
  const auto reader = Reader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbMismatch);
  std::remove(path.c_str());
}

TEST(DbStore, WrongEndiannessIsMismatch) {
  const std::string path = temp_path("endian.swdb");
  ASSERT_TRUE(build_database(make_batch(4, 8), path).ok());
  patch_header_u32(path, offsetof(FileHeader, endian), 0x04030201u);
  const auto reader = Reader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbMismatch);
  std::remove(path.c_str());
}

TEST(DbStore, WrongLimbWidthIsMismatch) {
  const std::string path = temp_path("limb.swdb");
  ASSERT_TRUE(build_database(make_batch(4, 8), path).ok());
  patch_header_u32(path, offsetof(FileHeader, limb_bits), 128);
  const auto reader = Reader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbMismatch);
  std::remove(path.c_str());
}

TEST(DbStore, FlippedShardTableByteIsCorrupt) {
  const std::string path = temp_path("table.swdb");
  ASSERT_TRUE(build_database(make_batch(70, 16), path).ok());
  std::vector<char> data = slurp(path);
  const std::size_t off = sizeof(FileHeader) + sizeof(ShardEntry) + 4;
  data[off] = static_cast<char>(data[off] ^ 0x01);
  dump(path, data);
  const auto reader = Reader::open(path);
  ASSERT_FALSE(reader.has_value());
  EXPECT_EQ(reader.status().code(), util::ErrorCode::kDbCorrupt);
  std::remove(path.c_str());
}

TEST(DbStore, ShardRotQuarantinesExactlyThatShard) {
  const std::string path = temp_path("rot.swdb");
  ASSERT_TRUE(build_database(make_batch(190, 24), path).ok());
  ASSERT_TRUE(corrupt_shard_for_testing(path, 1, 5, 2).ok());

  auto reader = Reader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  const auto bad = reader->shard(1);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), util::ErrorCode::kDbCorrupt);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
  EXPECT_TRUE(reader->shard_quarantined(1));

  // The failure sticks (no re-hash) and never spreads to healthy shards.
  EXPECT_FALSE(reader->shard(1).has_value());
  EXPECT_TRUE(reader->shard(0).has_value());
  EXPECT_TRUE(reader->shard(2).has_value());
  EXPECT_FALSE(reader->shard_quarantined(0));
  const ReaderStats st = reader->stats();
  EXPECT_EQ(st.shards_verified, 2u);
  EXPECT_EQ(st.shards_corrupt, 1u);
  std::remove(path.c_str());
}

TEST(DbStore, PhysicalTruncationQuarantinesTailShard) {
  const std::string path = temp_path("torn.swdb");
  ASSERT_TRUE(build_database(make_batch(128, 32), path).ok());
  std::vector<char> data = slurp(path);
  data.resize(data.size() - 17);  // tear into the last shard's payload
  dump(path, data);

  auto reader = Reader::open(path);
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  EXPECT_TRUE(reader->shard(0).has_value());
  const auto torn = reader->shard(1);
  ASSERT_FALSE(torn.has_value());
  EXPECT_EQ(torn.status().code(), util::ErrorCode::kDbCorrupt);
  EXPECT_NE(torn.status().message().find("truncat"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DbStore, OutOfRangeShardIndexIsInvalid) {
  const std::string path = temp_path("range.swdb");
  ASSERT_TRUE(build_database(make_batch(10, 8), path).ok());
  auto reader = Reader::open(path);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->shard(1).status().code(),
            util::ErrorCode::kInvalidInput);
  EXPECT_EQ(corrupt_shard_for_testing(path, 9, 0, 0).code(),
            util::ErrorCode::kInvalidInput);
  std::remove(path.c_str());
}

TEST(DbFault, InjectedFlipDamagesMappingNotFile) {
  const std::string path = temp_path("inject.swdb");
  ASSERT_TRUE(build_database(make_batch(200, 24), path).ok());
  const std::vector<char> before = slurp(path);

  FaultConfig fc;
  fc.seed = 99;
  fc.shard_flip_probability = 1.0;
  fc.target_shard = 2;
  FaultInjector injector(fc);
  auto reader = Reader::open(path, {.fault = &injector});
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();

  EXPECT_TRUE(reader->shard(0).has_value());
  EXPECT_FALSE(reader->shard(2).has_value());
  EXPECT_TRUE(reader->shard_quarantined(2));
  EXPECT_EQ(injector.log().shard_flips, 1u);

  // Copy-on-write: the file on disk is untouched, and a clean re-open
  // serves every shard.
  EXPECT_EQ(slurp(path), before);
  auto clean = Reader::open(path);
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->shard(2).has_value());
  std::remove(path.c_str());
}

TEST(DbFault, SameSeedSameCampaignIsDeterministic) {
  const std::string path = temp_path("determ.swdb");
  ASSERT_TRUE(build_database(make_batch(256, 16), path).ok());

  FaultConfig fc;
  fc.seed = 1234;
  fc.shard_flip_probability = 0.5;
  const auto quarantines = [&](FaultInjector& injector) {
    auto reader = Reader::open(path, {.fault = &injector});
    EXPECT_TRUE(reader.has_value());
    std::vector<bool> q;
    for (std::size_t s = 0; s < reader->shard_count(); ++s)
      q.push_back(!reader->shard(s).has_value());
    return q;
  };
  FaultInjector a(fc), b(fc);
  EXPECT_EQ(quarantines(a), quarantines(b));  // campaign 1 vs campaign 1
  std::remove(path.c_str());
}

TEST(DbFault, InjectedTruncationIsPerShardCorrupt) {
  const std::string path = temp_path("trunc.swdb");
  ASSERT_TRUE(build_database(make_batch(128, 32), path).ok());
  FaultConfig fc;
  fc.seed = 7;
  fc.shard_truncate_probability = 1.0;
  fc.target_shard = 0;
  FaultInjector injector(fc);
  auto reader = Reader::open(path, {.fault = &injector});
  ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
  const auto torn = reader->shard(0);
  ASSERT_FALSE(torn.has_value());
  EXPECT_EQ(torn.status().code(), util::ErrorCode::kDbCorrupt);
  EXPECT_TRUE(reader->shard(1).has_value());
  EXPECT_EQ(injector.log().shard_truncations, 1u);
  std::remove(path.c_str());
}

TEST(DbFault, HeaderFlipFailsOpenWithTypedError) {
  const std::string path = temp_path("hdrfault.swdb");
  ASSERT_TRUE(build_database(make_batch(64, 16), path).ok());
  FaultConfig fc;
  fc.seed = 3;
  fc.header_flip_probability = 1.0;
  FaultInjector injector(fc);
  const auto reader = Reader::open(path, {.fault = &injector});
  ASSERT_FALSE(reader.has_value());
  const auto code = reader.status().code();
  EXPECT_TRUE(code == util::ErrorCode::kDbCorrupt ||
              code == util::ErrorCode::kDbMismatch)
      << reader.status().to_string();
  EXPECT_EQ(injector.log().header_flips, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swbpbc::db
