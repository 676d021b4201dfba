#include "db/builder.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "db/format.hpp"
#include "encoding/generic_batch.hpp"
#include "util/checksum.hpp"
#include "util/io.hpp"

namespace swbpbc::db {

namespace {

constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace

std::uint64_t content_fingerprint(
    std::span<const encoding::GenericSequence> seqs) {
  std::uint64_t h = util::kFnvOffset;
  for (const encoding::GenericSequence& s : seqs)
    h = util::fnv1a_bytes(s.data(), s.size(), h);
  return h;
}

std::uint64_t content_fingerprint(std::span<const encoding::Sequence> seqs) {
  // encoding::Base values ARE the 2-bit codes, so hashing the Base bytes
  // matches the generic-code hash of the converted batch bit-for-bit.
  std::uint64_t h = util::kFnvOffset;
  for (const encoding::Sequence& s : seqs)
    h = util::fnv1a_bytes(s.data(), s.size(), h);
  return h;
}

util::Status build_generic_database(
    std::span<const encoding::GenericSequence> seqs, unsigned plane_bits,
    const std::string& path) {
  if (plane_bits == 0 || plane_bits > 8)
    return util::Status::invalid_input(
        "database plane_bits must be in [1, 8], got " +
        std::to_string(plane_bits));
  const std::size_t count = seqs.size();
  const std::size_t length = count == 0 ? 0 : seqs.front().size();
  if (count != 0 && length == 0)
    return util::Status::invalid_input(
        "database sequences must be non-empty");
  for (std::size_t k = 0; k < count; ++k) {
    if (seqs[k].size() != length)
      return util::Status::invalid_input(
          "non-uniform database: seqs[" + std::to_string(k) +
          "] has length " + std::to_string(seqs[k].size()) +
          ", batch requires " + std::to_string(length));
    for (std::uint8_t c : seqs[k]) {
      if ((c >> plane_bits) != 0)
        return util::Status::invalid_input(
            "seqs[" + std::to_string(k) + "] holds code " +
            std::to_string(c) + ", which does not fit in " +
            std::to_string(plane_bits) + " bit planes");
    }
  }

  // The same W2B the in-memory path runs, at the 64-lane limb block
  // granularity every lane width decomposes into.
  encoding::PlanarGenericBatch<std::uint64_t> batch;
  if (count != 0)
    batch = encoding::transpose_generic_planar<std::uint64_t>(seqs,
                                                              plane_bits);

  const std::uint64_t shards = shard_count_for(count);
  const std::uint64_t table_bytes = shards * sizeof(ShardEntry) + 8;
  const std::uint64_t payload_bytes =
      static_cast<std::uint64_t>(plane_bits) * length * sizeof(std::uint64_t);
  std::vector<ShardEntry> table(shards);
  std::uint64_t off =
      align_up(sizeof(FileHeader) + table_bytes, kDbPayloadAlign);
  for (std::uint64_t s = 0; s < shards; ++s) {
    table[s].offset = off;
    table[s].payload_bytes = payload_bytes;
    table[s].first_entry = s * kDbLanesPerShard;
    table[s].lanes_used = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kDbLanesPerShard,
                                count - s * kDbLanesPerShard));
    off = align_up(off + payload_bytes, kDbPayloadAlign);
  }
  std::vector<std::uint8_t> file(off, 0);

  // Planar payload per shard: plane 0's rows for all positions, then
  // plane 1's, ... so a plane is one contiguous zero-copy span. That is
  // exactly a 64-lane planar group's row layout: one copy per shard.
  for (std::uint64_t s = 0; s < shards; ++s) {
    std::uint8_t* dst = file.data() + table[s].offset;
    const std::vector<std::uint64_t>& rows = batch.groups[s].rows;
    std::memcpy(dst, rows.data(), rows.size() * sizeof(std::uint64_t));
    table[s].payload_fnv =
        util::fnv1a_bytes(dst, static_cast<std::size_t>(payload_bytes));
  }

  FileHeader header;
  header.plane_bits = plane_bits;
  header.entry_count = count;
  header.entry_length = length;
  header.shard_count = shards;
  header.content_fnv = content_fingerprint(seqs);
  header.header_fnv =
      util::fnv1a_bytes(&header, sizeof(header) - sizeof(std::uint64_t));
  std::memcpy(file.data(), &header, sizeof(header));
  if (shards != 0)
    std::memcpy(file.data() + sizeof(FileHeader), table.data(),
                shards * sizeof(ShardEntry));
  const std::uint64_t table_fnv = util::fnv1a_bytes(
      file.data() + sizeof(FileHeader),
      static_cast<std::size_t>(shards * sizeof(ShardEntry)));
  std::memcpy(file.data() + sizeof(FileHeader) + shards * sizeof(ShardEntry),
              &table_fnv, sizeof(table_fnv));

  // Atomic durable publish: temp file + fsync + rename + parent fsync.
  const std::string tmp = path + ".tmp";
  auto fd = util::open_for_write(tmp);
  if (!fd.has_value()) return fd.status();
  if (util::Status s = util::write_full(fd->get(), file.data(), file.size());
      !s.ok())
    return s;
  if (util::Status s = util::fsync_and_rename(fd->get(), tmp, path); !s.ok())
    return s;
  return fd->close();
}

util::Status build_database(std::span<const encoding::Sequence> seqs,
                            const std::string& path) {
  std::vector<encoding::GenericSequence> generic;
  generic.reserve(seqs.size());
  for (const encoding::Sequence& s : seqs) {
    encoding::GenericSequence g(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) g[i] = encoding::code(s[i]);
    generic.push_back(std::move(g));
  }
  return build_generic_database(generic, encoding::kBitsPerBase, path);
}

util::Status corrupt_shard_for_testing(const std::string& path,
                                       std::size_t shard,
                                       std::size_t byte_offset,
                                       unsigned bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f)
    return util::Status::db_corrupt("cannot open database '" + path + "'");
  FileHeader header{};
  f.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!f || header.magic != kDbMagic)
    return util::Status::db_corrupt("'" + path +
                                    "' is not a database store (bad magic)");
  if (shard >= header.shard_count)
    return util::Status::invalid_input(
        "shard " + std::to_string(shard) + " out of range (database has " +
        std::to_string(header.shard_count) + ")");
  ShardEntry entry{};
  f.seekg(static_cast<std::streamoff>(sizeof(FileHeader) +
                                      shard * sizeof(ShardEntry)));
  f.read(reinterpret_cast<char*>(&entry), sizeof(entry));
  if (!f)
    return util::Status::db_corrupt("cannot read shard table of '" + path +
                                    "'");
  if (byte_offset >= entry.payload_bytes)
    return util::Status::invalid_input(
        "byte offset " + std::to_string(byte_offset) +
        " out of range (shard payload is " +
        std::to_string(entry.payload_bytes) + " bytes)");
  const std::streamoff pos =
      static_cast<std::streamoff>(entry.offset + byte_offset);
  char byte = 0;
  f.seekg(pos);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ static_cast<char>(1u << (bit % 8)));
  f.seekp(pos);
  f.write(&byte, 1);
  f.flush();
  if (!f)
    return util::Status::db_corrupt("cannot rewrite byte of '" + path + "'");
  return {};
}

}  // namespace swbpbc::db
