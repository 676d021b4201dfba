// Builds the pre-transposed database store (db/format.hpp).
//
// The builder runs the same W2B transpose the in-memory screening path
// runs (bitsim::PayloadTranspose at the 64-lane limb granularity), packs
// the resulting bit-plane rows into per-shard planar payloads, and
// publishes the file atomically: everything is written to `path`.tmp,
// fsynced, renamed over `path`, and the parent directory fsynced
// (util::fsync_and_rename) — a crash mid-build leaves the previous
// database (or nothing), never a torn file.
//
// Because the builder and the serve-time fallback share one transpose,
// scores computed from the store are bit-identical to the no-database
// path by construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "encoding/alphabet.hpp"
#include "encoding/dna.hpp"
#include "util/status.hpp"

namespace swbpbc::db {

/// FNV-1a fingerprint of raw sequence codes, entry order — the value the
/// file header's content_fnv carries and serve-time verification compares
/// against the in-memory batch.
[[nodiscard]] std::uint64_t content_fingerprint(
    std::span<const encoding::GenericSequence> seqs);
[[nodiscard]] std::uint64_t content_fingerprint(
    std::span<const encoding::Sequence> seqs);

/// Builds a database of epsilon-bit sequences at `path` (atomically; see
/// file comment). All sequences must share one length and every code must
/// fit in `plane_bits` bits; violations are typed kInvalidInput. An empty
/// batch builds a valid empty database.
util::Status build_generic_database(
    std::span<const encoding::GenericSequence> seqs, unsigned plane_bits,
    const std::string& path);

/// DNA front end: 2 bit planes, codes from encoding::code().
util::Status build_database(std::span<const encoding::Sequence> seqs,
                            const std::string& path);

/// Test/drill helper: flips bit `bit` of byte `byte_offset` inside shard
/// `shard`'s payload of an existing database file, in place — simulated
/// on-disk bit rot (the mmap fault injector damages only the mapping;
/// this damages the file). kInvalidInput when the shard/offset is out of
/// range, kDbCorrupt when the file cannot be parsed enough to locate it.
util::Status corrupt_shard_for_testing(const std::string& path,
                                       std::size_t shard,
                                       std::size_t byte_offset, unsigned bit);

}  // namespace swbpbc::db
