#include "util/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/checksum.hpp"
#include "util/io.hpp"

namespace swbpbc::util {

namespace {

constexpr std::uint64_t kMagic = 0x53574243'4b505431ull;  // "SWBCKPT1"
constexpr std::uint32_t kRecordMarker = 0x43484e4bu;      // "CHNK"
// Caps a single record so a corrupted length field cannot drive a
// multi-gigabyte allocation before the checksum gets a chance to reject.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 32;

struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t fingerprint;
};
static_assert(sizeof(Header) == 24);

struct RecordHead {
  std::uint32_t marker;
  std::uint32_t reserved;
  std::uint64_t chunk_index;
  std::uint64_t payload_bytes;
};
static_assert(sizeof(RecordHead) == 24);

// The checksum's running hash before the payload bytes.
std::uint64_t record_checksum_seed(std::uint64_t chunk_index,
                                   std::uint64_t payload_bytes) {
  return fnv1a_value(payload_bytes, fnv1a_value(chunk_index));
}

std::uint64_t record_checksum(std::uint64_t chunk_index,
                              std::span<const std::uint8_t> payload) {
  return fnv1a_span(payload,
                    record_checksum_seed(chunk_index, payload.size()));
}

// Verifies records [lo, hi) of a window, calling done(r, sound) once per
// record in any order. kLanes records hash in lock-step, each lane taking
// the next record as its own ends, so their multiply chains overlap; the
// lanes still mid-record when the range runs dry finish one by one.
template <typename Done>
void verify_records(std::span<const CheckpointRecordView> views,
                    std::size_t lo, std::size_t hi, Done&& done) {
  constexpr std::size_t kLanes = 4;
  const auto stored = [&views](std::size_t r) {
    std::uint64_t crc = 0;
    std::memcpy(&crc, views[r].payload.data() + views[r].payload.size(),
                sizeof(crc));
    return crc;
  };
  std::size_t record[kLanes] = {};
  std::size_t at[kLanes] = {};
  std::uint64_t h[kLanes] = {};
  std::size_t next = lo;
  const auto start = [&](std::size_t l) {
    record[l] = next++;
    at[l] = 0;
    h[l] = record_checksum_seed(views[record[l]].chunk_index,
                                views[record[l]].payload.size());
  };
  bool busy[kLanes] = {};
  bool running = hi - lo >= kLanes;
  for (std::size_t l = 0; running && l < kLanes; ++l) {
    start(l);
    busy[l] = true;
  }
  while (running) {
    std::size_t step = ~std::size_t{0};
    const std::uint8_t* data[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      step = std::min(step, views[record[l]].payload.size() - at[l]);
      data[l] = views[record[l]].payload.data() + at[l];
    }
    fnv1a_lockstep(data, step, h);
    for (std::size_t l = 0; l < kLanes; ++l) {
      at[l] += step;
      if (at[l] != views[record[l]].payload.size()) continue;
      done(record[l], h[l] == stored(record[l]));
      if (next < hi) {
        start(l);
      } else {
        busy[l] = false;
        running = false;
      }
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (!busy[l]) continue;
    const auto rest = views[record[l]].payload.subspan(at[l]);
    done(record[l], fnv1a_span(rest, h[l]) == stored(record[l]));
  }
  for (; next < hi; ++next)
    done(next, record_checksum(views[next].chunk_index,
                               views[next].payload) == stored(next));
}

// A window aims at a few tasks per pool participant, so one large record
// does not idle the others, and never cuts a task below this many bytes.
constexpr std::size_t kTasksPerParticipant = 4;
constexpr std::size_t kMinTaskBytes = std::size_t{16} << 10;

// Reads the stream forward into one buffer that holds the current window.
// Offsets are relative to the window's first byte; advance() drops the
// bytes before a new window start. The stream is read up to the size the
// file had at open.
class WindowReader {
 public:
  WindowReader(int fd, std::uint64_t file_bytes)
      : fd_(fd), file_bytes_(file_bytes) {}

  // Makes `want` bytes from window offset `at` resident and returns how
  // many are (fewer only at the end of the file). A first touch fills the
  // window in one read; past it, reads fetch exactly what is asked for. A
  // request reaching past the end of the file reads nothing, so a corrupt
  // length cannot drive a large allocation.
  Expected<std::size_t> have(std::size_t at, std::size_t want) {
    const std::uint64_t left = file_bytes_ - base_;  // window start to EOF
    if (at >= left) return std::size_t{0};
    const std::size_t can =
        static_cast<std::size_t>(std::min<std::uint64_t>(want, left - at));
    if (can < want) return can;
    const std::size_t need = at + want;
    if (need <= size_) return want;
    const std::size_t target = static_cast<std::size_t>(
        std::min<std::uint64_t>(std::max(need, kCheckpointWindowBytes), left));
    if (buf_.size() < target) buf_.resize(target);
    const auto got = read_full(fd_, buf_.data() + size_, target - size_);
    if (!got.has_value()) return got.status();
    size_ += *got;
    if (size_ < target) file_bytes_ = base_ + size_;  // shrank under us
    return std::min(want, size_ > at ? size_ - at : std::size_t{0});
  }

  // Starts the next window at offset `at` of the current one.
  void advance(std::size_t at) {
    std::memmove(buf_.data(), buf_.data() + at, size_ - at);
    size_ -= at;
    base_ += at;
  }

  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }

 private:
  int fd_;
  std::uint64_t file_bytes_;
  std::uint64_t base_ = 0;  // file offset of the window's first byte
  std::size_t size_ = 0;    // resident bytes from the window's first byte
  std::vector<std::uint8_t> buf_;
};

// A scan that found the stream sound. The visitor's own first failure
// rides along: the append mode ranks its reopen and truncation between a
// stream defect and that failure.
struct ScanOutcome {
  std::uint64_t bytes = 0;  // frame bytes of the validated records
  Status visitor;
};

// The one reader (see the header). Each window: walk the frames serially
// with every structural check, verify the checksums and decode across the
// pool, then report the window's first defect in stream order — a
// checksum failure sits before whatever stopped the walk — or apply it.
// In salvage mode a stream that ends inside a record yields its prefix.
Expected<ScanOutcome> scan_stream(const std::string& path,
                                  std::uint64_t expected_fingerprint,
                                  bool salvage_torn_tail,
                                  CheckpointVisitor& visitor,
                                  ThreadPool& pool) {
  auto fd = open_for_read(path);
  if (!fd.has_value())
    return Status::checkpoint_corrupt("cannot open checkpoint file '" + path +
                                      "'");
  const auto file_bytes = file_size(fd->get());
  if (!file_bytes.has_value())
    return Status::checkpoint_corrupt("checkpoint '" + path +
                                      "' read failed: " +
                                      file_bytes.status().message());
  WindowReader in(fd->get(), *file_bytes);

  const auto header_got = in.have(0, sizeof(Header));
  if (!header_got.has_value() || *header_got != sizeof(Header))
    return Status::checkpoint_corrupt("checkpoint '" + path +
                                      "' truncated inside the header");
  Header header{};
  std::memcpy(&header, in.data(), sizeof(header));
  if (header.magic != kMagic)
    return Status::checkpoint_corrupt("'" + path +
                                      "' is not a checkpoint stream "
                                      "(bad magic)");
  if (header.version != kCheckpointVersion)
    return Status::checkpoint_mismatch(
        "checkpoint '" + path + "' has version " +
        std::to_string(header.version) + ", this build reads version " +
        std::to_string(kCheckpointVersion));
  if (header.fingerprint != expected_fingerprint)
    return Status::checkpoint_mismatch(
        "checkpoint '" + path +
        "' was written for a different batch/config (fingerprint mismatch)");
  in.advance(sizeof(Header));

  ScanOutcome out;
  struct Frame {
    std::uint64_t chunk_index;
    std::size_t at;  // window offset of the record head
    std::size_t payload_bytes;
  };
  constexpr std::size_t kFrameOverhead =
      sizeof(RecordHead) + sizeof(std::uint64_t);  // head + checksum
  std::vector<Frame> frames;
  std::vector<CheckpointRecordView> views;
  std::vector<std::uint8_t> sound;
  std::vector<std::size_t> cuts;
  std::uint64_t index = 0;  // stream position of the next record
  for (bool done = false; !done;) {
    // Frame walk: the records whose heads start inside this window.
    frames.clear();
    Status defect;
    std::size_t pos = 0;
    while (pos < kCheckpointWindowBytes) {
      const std::uint64_t at_index = index + frames.size();
      const auto got = in.have(pos, sizeof(RecordHead));
      if (!got.has_value()) {
        defect = Status::checkpoint_corrupt("checkpoint '" + path +
                                            "' read failed: " +
                                            got.status().message());
        break;
      }
      if (*got == 0) {  // clean end of stream
        done = true;
        break;
      }
      if (*got != sizeof(RecordHead)) {
        if (salvage_torn_tail) {
          done = true;
        } else {
          defect = Status::checkpoint_corrupt(
              "checkpoint '" + path + "' truncated inside record " +
              std::to_string(at_index) + "'s header");
        }
        break;
      }
      RecordHead head{};
      std::memcpy(&head, in.data() + pos, sizeof(head));
      if (head.marker != kRecordMarker) {
        defect = Status::checkpoint_corrupt(
            "checkpoint '" + path + "' record " + std::to_string(at_index) +
            " has a corrupt marker");
        break;
      }
      if (head.payload_bytes > kMaxPayloadBytes) {
        defect = Status::checkpoint_corrupt(
            "checkpoint '" + path + "' record " + std::to_string(at_index) +
            " declares an implausible payload size");
        break;
      }
      const auto payload_bytes = static_cast<std::size_t>(head.payload_bytes);
      const std::size_t frame = kFrameOverhead + payload_bytes;
      const auto frame_got = in.have(pos, frame);
      if (!frame_got.has_value()) {
        defect = Status::checkpoint_corrupt("checkpoint '" + path +
                                            "' read failed: " +
                                            frame_got.status().message());
        break;
      }
      if (*frame_got != frame) {
        if (salvage_torn_tail) {
          done = true;
        } else if (*frame_got < sizeof(RecordHead) + payload_bytes) {
          defect = Status::checkpoint_corrupt(
              "checkpoint '" + path + "' truncated inside record " +
              std::to_string(at_index) + "'s payload");
        } else {
          defect = Status::checkpoint_corrupt(
              "checkpoint '" + path + "' truncated before record " +
              std::to_string(at_index) + "'s checksum");
        }
        break;
      }
      frames.push_back({head.chunk_index, pos, payload_bytes});
      pos += frame;
    }

    // Checksums (and decode) across the pool, in tasks of similar bytes.
    const std::size_t n = frames.size();
    views.resize(n);
    for (std::size_t r = 0; r < n; ++r)
      views[r] = {index + r, frames[r].chunk_index,
                  {in.data() + frames[r].at + sizeof(RecordHead),
                   frames[r].payload_bytes}};
    const bool live = out.visitor.ok();
    if (live && n != 0) visitor.begin_window(n);
    sound.assign(n, 0);
    const std::size_t task_bytes = std::max(
        kMinTaskBytes, pos / (kTasksPerParticipant * (pool.size() + 1)));
    cuts.assign(1, 0);
    for (std::size_t r = 0, bytes = 0; r < n; ++r) {
      bytes += kFrameOverhead + frames[r].payload_bytes;
      if (bytes >= task_bytes || r + 1 == n) {
        cuts.push_back(r + 1);
        bytes = 0;
      }
    }
    pool.parallel_for(
        0, cuts.size() - 1,
        [&](std::size_t task) {
          verify_records(views, cuts[task], cuts[task + 1],
                         [&](std::size_t r, bool ok) {
                           sound[r] = ok ? 1 : 0;
                           if (ok && live) visitor.decode(r, views[r]);
                         });
        },
        /*grain=*/1);
    for (std::size_t r = 0; r < n; ++r) {
      if (sound[r] == 0)
        return Status::checkpoint_corrupt(
            "checkpoint '" + path + "' record " +
            std::to_string(views[r].index) + " (chunk " +
            std::to_string(views[r].chunk_index) + ") fails its checksum");
    }
    if (!defect.ok()) return defect;
    if (live && n != 0) out.visitor = visitor.apply(views);
    index += n;
    out.bytes += pos;
    in.advance(pos);
  }
  return out;
}

// Keeps every record: the in-memory form read_checkpoint returns.
class CollectRecords final : public CheckpointVisitor {
 public:
  explicit CollectRecords(std::uint64_t fingerprint) {
    data.fingerprint = fingerprint;
  }

  Status apply(std::span<const CheckpointRecordView> records) override {
    for (const CheckpointRecordView& r : records)
      data.records.push_back(
          {r.chunk_index,
           std::vector<std::uint8_t>(r.payload.begin(), r.payload.end())});
    return {};
  }

  CheckpointData data;
};

Expected<CheckpointData> read_checkpoint_impl(
    const std::string& path, std::uint64_t expected_fingerprint,
    bool salvage_torn_tail) {
  CollectRecords collect(expected_fingerprint);
  auto scanned = scan_stream(path, expected_fingerprint, salvage_torn_tail,
                             collect, ThreadPool::global());
  if (!scanned.has_value()) return scanned.status();
  return std::move(collect.data);
}

}  // namespace

Expected<CheckpointWriter> CheckpointWriter::try_create(
    const std::string& path, std::uint64_t fingerprint) {
  auto fd = open_for_write(path);
  if (!fd.has_value())
    return Status::checkpoint_corrupt("cannot create checkpoint file '" +
                                      path + "': " + fd.status().message());
  const Header header{kMagic, kCheckpointVersion, 0, fingerprint};
  if (Status s = write_full(fd->get(), &header, sizeof(header)); !s.ok()) {
    return Status::checkpoint_corrupt("cannot write checkpoint header to '" +
                                      path + "': " + s.message());
  }
  return CheckpointWriter(std::move(fd).value(), path);
}

Expected<CheckpointWriter> CheckpointWriter::try_append(
    const std::string& path, std::uint64_t fingerprint,
    CheckpointData* replayed) {
  CollectRecords collect(fingerprint);
  auto writer = try_append(path, fingerprint, collect, ThreadPool::global(),
                           nullptr);
  if (writer.has_value() && replayed != nullptr)
    *replayed = std::move(collect.data);
  return writer;
}

Expected<CheckpointWriter> CheckpointWriter::try_append(
    const std::string& path, std::uint64_t fingerprint,
    CheckpointVisitor& replay, ThreadPool& pool,
    std::uint64_t* replayed_bytes) {
  // A missing stream starts fresh; anything else must validate first.
  {
    auto probe = open_for_read(path);
    if (!probe.has_value()) {
      if (replayed_bytes != nullptr) *replayed_bytes = 0;
      return try_create(path, fingerprint);
    }
  }
  auto outcome = scan_stream(path, fingerprint, /*salvage_torn_tail=*/true,
                             replay, pool);
  if (!outcome.has_value()) return outcome.status();

  auto fd = open_for_append(path);
  if (!fd.has_value())
    return Status::checkpoint_corrupt("cannot open checkpoint '" + path +
                                      "' for appending: " +
                                      fd.status().message());
  // Drop the torn tail (if any) so the next append starts exactly after
  // the last complete record. O_APPEND writes land at the new end.
  const std::uint64_t valid_end = sizeof(Header) + outcome->bytes;
  const auto size = file_size(fd->get());
  if (!size.has_value())
    return Status::checkpoint_corrupt("cannot stat checkpoint '" + path +
                                      "': " + size.status().message());
  if (*size > valid_end) {
    if (Status s = truncate_file(fd->get(), valid_end); !s.ok())
      return Status::checkpoint_corrupt("cannot drop the torn tail of '" +
                                        path + "': " + s.message());
  }
  if (!outcome->visitor.ok()) return outcome->visitor;
  if (replayed_bytes != nullptr) *replayed_bytes = outcome->bytes;
  return CheckpointWriter(std::move(fd).value(), path);
}

Status CheckpointWriter::append(std::uint64_t chunk_index,
                                std::span<const std::uint8_t> payload) {
  if (!fd_.valid())
    return Status::internal("append on a moved-from CheckpointWriter");
  const RecordHead head{kRecordMarker, 0, chunk_index,
                        static_cast<std::uint64_t>(payload.size())};
  const std::uint64_t crc = record_checksum(chunk_index, payload);
  // One contiguous buffer per record: a single write_full means the only
  // failure artifact a crash can leave is a short tail, never interleaved
  // partial fields.
  std::vector<std::uint8_t> buf(sizeof(head) + payload.size() + sizeof(crc));
  std::memcpy(buf.data(), &head, sizeof(head));
  if (!payload.empty())
    std::memcpy(buf.data() + sizeof(head), payload.data(), payload.size());
  std::memcpy(buf.data() + sizeof(head) + payload.size(), &crc, sizeof(crc));
  if (Status s = write_full(fd_.get(), buf.data(), buf.size()); !s.ok()) {
    return Status::checkpoint_corrupt("write to checkpoint '" + path_ +
                                      "' failed (chunk " +
                                      std::to_string(chunk_index) +
                                      "): " + s.message());
  }
  return {};
}

const CheckpointRecord* CheckpointData::find(
    std::uint64_t chunk_index) const {
  const CheckpointRecord* found = nullptr;
  for (const CheckpointRecord& r : records) {
    if (r.chunk_index == chunk_index) found = &r;
  }
  return found;
}

Expected<CheckpointData> read_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint) {
  return read_checkpoint_impl(path, expected_fingerprint,
                              /*salvage_torn_tail=*/false);
}

Expected<CheckpointData> read_checkpoint_salvage(
    const std::string& path, std::uint64_t expected_fingerprint) {
  return read_checkpoint_impl(path, expected_fingerprint,
                              /*salvage_torn_tail=*/true);
}

}  // namespace swbpbc::util
