// Versioned, checksummed chunk-record stream for checkpoint/resume.
//
// A long screening campaign writes one record per completed chunk; a
// restarted run loads the stream and skips every chunk it already has. The
// format is deliberately paranoid: a magic + version + caller-supplied
// fingerprint header rejects streams from a different library version or a
// different batch, and every record carries an FNV-1a checksum so a
// truncated or bit-flipped file is rejected with a precise typed error
// (kCheckpointCorrupt / kCheckpointMismatch) instead of resuming from
// garbage. Each record is one unbuffered write, so a process killed
// between chunks leaves a loadable stream. Nothing is fsync'd: a record
// survives the death of the writing process, not the loss of power.
//
// There is one reader behind every entry point. It reads the file in fixed
// windows and walks the record frames serially; each window's checksums
// (and a caller's per-record decode) then run across a thread pool, and
// the window's records are applied in stream order on the calling thread.
// The first defect in stream order wins, exactly as a serial walk finds it.
//
// Layout (host byte order; checkpoints are host-local scratch files):
//   header:  u64 magic  u32 version  u32 reserved  u64 fingerprint
//   record:  u32 marker  u32 reserved  u64 chunk_index  u64 payload_bytes
//            payload...  u64 fnv1a(chunk_index, payload_bytes, payload)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/io.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace swbpbc::util {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Bytes of record frames the reader reads and verifies per window:
/// the cap on what a visitor holds decoded but not yet applied (a record
/// larger than the window gets a window of its own).
inline constexpr std::size_t kCheckpointWindowBytes = std::size_t{1} << 20;

/// One record of a streamed checkpoint. `payload` views the reader's
/// window buffer and lives until the window's apply() returns.
struct CheckpointRecordView {
  std::uint64_t index = 0;  // position in the stream
  std::uint64_t chunk_index = 0;
  std::span<const std::uint8_t> payload;
};

/// Receives a checkpoint stream window by window from the reader
/// (CheckpointWriter::try_append's streamed form).
class CheckpointVisitor {
 public:
  virtual ~CheckpointVisitor() = default;

  /// On the scanning thread, before the window's records are decoded.
  virtual void begin_window(std::size_t /*records*/) {}

  /// On a pool worker, once per record of the window whose checksum
  /// verified; records of one window run concurrently, so this may touch
  /// only the state of its own `slot` (the record's place in the window).
  virtual void decode(std::size_t /*slot*/,
                      const CheckpointRecordView& /*record*/) {}

  /// On the scanning thread, in stream order, once every record of the
  /// window verified. A failure stops further decode/apply calls; the
  /// scan still validates the rest of the stream, and reports this
  /// failure only if the stream itself is sound.
  virtual Status apply(std::span<const CheckpointRecordView> records) = 0;
};

/// Appends checksummed chunk records to a checkpoint file. Move-only;
/// the destructor closes the file. Each record is issued as one EINTR-safe
/// unbuffered write (util::write_full), so the stream left by a process
/// dying mid-append is a clean prefix plus at most one torn tail record —
/// the case read_checkpoint_salvage recovers from.
struct CheckpointData;

class CheckpointWriter {
 public:
  /// Creates/truncates `path` and writes the header.
  static Expected<CheckpointWriter> try_create(const std::string& path,
                                               std::uint64_t fingerprint);

  /// Opens an existing stream for appending (creating a fresh one when
  /// `path` does not exist): validates the header and every complete
  /// record, physically truncates away a torn tail record (the artifact of
  /// a crash mid-append), and positions new appends after the last valid
  /// record. When `replayed` is non-null the validated records are
  /// returned through it, so the caller recovers state and extends the
  /// stream in one pass — the request-journal restart path. Defects other
  /// than a torn tail (bad magic, flipped byte inside a complete record,
  /// wrong version/fingerprint) reject exactly like read_checkpoint.
  static Expected<CheckpointWriter> try_append(const std::string& path,
                                               std::uint64_t fingerprint,
                                               CheckpointData* replayed);

  /// The streamed form of try_append: the validated records go to
  /// `replay` window by window — checksums and decode() across `pool`,
  /// apply() in stream order on the caller — instead of into memory all
  /// at once. `replayed_bytes`, when non-null, receives the frame bytes
  /// (head, payload, checksum) of the validated records.
  /// The first stream defect in stream order is reported, as a serial
  /// walk finds it; it wins over a failure to reopen or truncate, which
  /// wins over the visitor's own first failure.
  static Expected<CheckpointWriter> try_append(const std::string& path,
                                               std::uint64_t fingerprint,
                                               CheckpointVisitor& replay,
                                               ThreadPool& pool,
                                               std::uint64_t* replayed_bytes);

  CheckpointWriter(CheckpointWriter&&) noexcept = default;
  CheckpointWriter& operator=(CheckpointWriter&&) noexcept = default;
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  ~CheckpointWriter() = default;

  /// Appends one complete record in a single write.
  Status append(std::uint64_t chunk_index,
                std::span<const std::uint8_t> payload);

 private:
  CheckpointWriter(UniqueFd fd, std::string path)
      : fd_(std::move(fd)), path_(std::move(path)) {}

  UniqueFd fd_;
  std::string path_;
};

/// One validated record of a loaded checkpoint.
struct CheckpointRecord {
  std::uint64_t chunk_index = 0;
  std::vector<std::uint8_t> payload;
};

/// A fully validated checkpoint stream.
struct CheckpointData {
  std::uint64_t fingerprint = 0;
  std::vector<CheckpointRecord> records;

  /// Latest record for a chunk (re-written chunks: last one wins), or
  /// nullptr when the chunk was never checkpointed.
  [[nodiscard]] const CheckpointRecord* find(std::uint64_t chunk_index) const;
};

/// Loads and validates a whole checkpoint stream (the reader on the
/// global pool, every record kept). Every failure mode is typed:
/// unreadable/truncated/bad-magic/bad-checksum -> kCheckpointCorrupt;
/// wrong version or fingerprint != expected_fingerprint ->
/// kCheckpointMismatch.
Expected<CheckpointData> read_checkpoint(const std::string& path,
                                         std::uint64_t expected_fingerprint);

/// Torn-write-tolerant variant for resuming after a crash: when the ONLY
/// defect is that the stream ends mid-record (the torn tail a process
/// death during append leaves), the clean prefix of complete, validated
/// records is returned and the tail is dropped — the screen recomputes
/// just that chunk. Every other defect (bad magic, flipped payload byte
/// with the full record present, wrong version/fingerprint) is rejected
/// exactly like read_checkpoint: truncation is an expected crash artifact;
/// bit rot inside a complete record is not.
Expected<CheckpointData> read_checkpoint_salvage(
    const std::string& path, std::uint64_t expected_fingerprint);

}  // namespace swbpbc::util
