#include "db/reader.hpp"

#include <cstring>
#include <utility>

#include "util/checksum.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SWBPBC_DB_HAVE_MMAP 1
#include <sys/mman.h>
#else
#define SWBPBC_DB_HAVE_MMAP 0
#endif

namespace swbpbc::db {

namespace {

util::Status corrupt(const std::string& path, const std::string& what) {
  return util::Status::db_corrupt("database '" + path + "' " + what);
}

util::Status mismatch(const std::string& path, const std::string& what) {
  return util::Status::db_mismatch("database '" + path + "' " + what);
}

}  // namespace

Reader::Reader(Reader&& other) noexcept
    : path_(std::move(other.path_)),
      map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      heap_(std::move(other.heap_)),
      header_(other.header_),
      table_(std::move(other.table_)),
      effective_bytes_(std::move(other.effective_bytes_)),
      state_(std::move(other.state_)) {}

Reader& Reader::operator=(Reader&& other) noexcept {
  if (this != &other) {
#if SWBPBC_DB_HAVE_MMAP
    if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
    path_ = std::move(other.path_);
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    heap_ = std::move(other.heap_);
    header_ = other.header_;
    table_ = std::move(other.table_);
    effective_bytes_ = std::move(other.effective_bytes_);
    state_ = std::move(other.state_);
  }
  return *this;
}

Reader::~Reader() {
#if SWBPBC_DB_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
}

const std::uint8_t* Reader::base() const {
  return map_ != nullptr ? static_cast<const std::uint8_t*>(map_)
                         : heap_.data();
}

util::Expected<Reader> Reader::open(const std::string& path,
                                    const ReaderOptions& options) {
  Reader r;
  r.path_ = path;

  auto fd = util::open_for_read(path);
  if (!fd.has_value())
    return corrupt(path, "cannot be opened: " + fd.status().message());
  const auto size = util::file_size(fd->get());
  if (!size.has_value()) return corrupt(path, size.status().message());
  const std::size_t bytes = static_cast<std::size_t>(*size);
  if (bytes < sizeof(FileHeader))
    return corrupt(path, "is truncated inside the header");

#if SWBPBC_DB_HAVE_MMAP
  // PRIVATE mapping: writable only so the fault injector can damage the
  // image copy-on-write; the file itself is never modified.
  const int prot = PROT_READ | (options.fault != nullptr ? PROT_WRITE : 0);
  void* map = ::mmap(nullptr, bytes, prot, MAP_PRIVATE, fd->get(), 0);
  if (map == MAP_FAILED) return corrupt(path, "cannot be memory-mapped");
  r.map_ = map;
  r.map_size_ = bytes;
#else
  r.heap_.resize(bytes);
  const auto got = util::read_full(fd->get(), r.heap_.data(), bytes);
  if (!got.has_value() || *got != bytes)
    return corrupt(path, "cannot be read into memory");
#endif
  // The mapping/heap image outlives the descriptor, and a failed close of
  // a read-only descriptor cannot damage it, so the result is discarded.
  (void)fd->close();

  auto* image = const_cast<std::uint8_t*>(r.base());

  // Fault injection happens before any validation, so header damage
  // exercises the open-time rejection paths exactly like real corruption.
  std::uint64_t campaign = 0;
  if (options.fault != nullptr) {
    campaign = options.fault->begin_run();
    const HeaderFault hf =
        options.fault->header_fault(campaign, sizeof(FileHeader));
    if (hf.flip && hf.offset < bytes)
      image[hf.offset] =
          static_cast<std::uint8_t>(image[hf.offset] ^ (1u << hf.bit));
  }

  std::memcpy(&r.header_, image, sizeof(FileHeader));
  const FileHeader& h = r.header_;
  if (h.magic != kDbMagic)
    return corrupt(path, "is not a database store (bad magic)");
  const std::uint64_t header_fnv =
      util::fnv1a_bytes(image, sizeof(FileHeader) - sizeof(std::uint64_t));
  if (header_fnv != h.header_fnv)
    return corrupt(path, "header fails its checksum");
  if (h.version != kDbVersion)
    return mismatch(path, "has format version " + std::to_string(h.version) +
                              ", this build reads version " +
                              std::to_string(kDbVersion));
  if (h.endian != kDbEndianTag)
    return mismatch(path, "was written on a different-endian host");
  if (h.limb_bits != kDbLimbBits)
    return mismatch(path, "was sliced at " + std::to_string(h.limb_bits) +
                              "-bit limbs, this build serves " +
                              std::to_string(kDbLimbBits) + "-bit limbs");
  if (h.plane_bits == 0 || h.plane_bits > 8)
    return corrupt(path, "declares an implausible plane count (" +
                             std::to_string(h.plane_bits) + ")");
  if (h.shard_count != shard_count_for(h.entry_count))
    return corrupt(path, "shard count disagrees with its entry count");
  if (h.entry_count != 0 && h.entry_length == 0)
    return corrupt(path, "declares zero-length entries");

  const std::uint64_t table_end = sizeof(FileHeader) +
                                  h.shard_count * sizeof(ShardEntry) +
                                  sizeof(std::uint64_t);
  if (table_end > bytes)
    return corrupt(path, "is truncated inside the shard table");
  const std::uint8_t* table_bytes = image + sizeof(FileHeader);
  const std::size_t table_size =
      static_cast<std::size_t>(h.shard_count) * sizeof(ShardEntry);
  std::uint64_t table_fnv = 0;
  std::memcpy(&table_fnv, table_bytes + table_size, sizeof(table_fnv));
  if (table_fnv != util::fnv1a_bytes(table_bytes, table_size))
    return corrupt(path, "shard table fails its checksum");

  r.table_.resize(static_cast<std::size_t>(h.shard_count));
  if (table_size != 0)
    std::memcpy(r.table_.data(), table_bytes, table_size);

  const std::uint64_t expected_payload =
      static_cast<std::uint64_t>(h.plane_bits) * h.entry_length *
      sizeof(std::uint64_t);
  r.effective_bytes_.resize(r.table_.size());
  for (std::size_t s = 0; s < r.table_.size(); ++s) {
    const ShardEntry& e = r.table_[s];
    // The table checksum passed, so inconsistent entries mean a builder
    // bug or a forged file — reject rather than serve.
    if (e.payload_bytes != expected_payload ||
        e.first_entry != s * kDbLanesPerShard || e.lanes_used == 0 ||
        e.lanes_used > kDbLanesPerShard || e.offset < table_end ||
        e.offset % sizeof(std::uint64_t) != 0)
      return corrupt(path, "shard " + std::to_string(s) +
                               " has an inconsistent table entry");
    // Physical truncation (torn copy) is a per-shard defect, not a
    // whole-file one: the shard fails its first touch and gets
    // quarantined, everything the file still holds keeps serving.
    r.effective_bytes_[s] =
        e.offset >= bytes ? 0
                          : std::min<std::uint64_t>(e.payload_bytes,
                                                    bytes - e.offset);
    if (options.fault != nullptr) {
      const ShardFault sf = options.fault->shard_fault(
          campaign, s, static_cast<std::size_t>(e.payload_bytes));
      if (sf.flip) {
        const std::uint64_t at = e.offset + sf.flip_offset;
        if (at < bytes)
          image[at] = static_cast<std::uint8_t>(image[at] ^ (1u << sf.flip_bit));
      }
      if (sf.truncate)
        r.effective_bytes_[s] =
            std::min<std::uint64_t>(r.effective_bytes_[s], sf.keep_bytes);
    }
  }

  r.state_ = std::make_unique<State>();
  r.state_->shard_state =
      std::make_unique<std::atomic<std::uint8_t>[]>(r.table_.size());
  for (std::size_t s = 0; s < r.table_.size(); ++s)
    r.state_->shard_state[s].store(0, std::memory_order_relaxed);
  return r;
}

util::Expected<ShardView> Reader::shard(std::size_t index) {
  if (index >= table_.size())
    return util::Status::invalid_input(
        "shard " + std::to_string(index) + " out of range (database has " +
        std::to_string(table_.size()) + ")");
  const ShardEntry& e = table_[index];
  std::uint8_t state = state_->shard_state[index].load(std::memory_order_acquire);
  if (state == 0) {
    // First touch: verify. Concurrent first touches may both hash; they
    // reach the same verdict, and the counters count transitions (CAS
    // winner), not hashes.
    util::WallTimer timer;
    std::uint8_t verdict = 2;
    if (effective_bytes_[index] == e.payload_bytes) {
      const std::uint64_t fnv = util::fnv1a_bytes(
          base() + e.offset, static_cast<std::size_t>(e.payload_bytes));
      if (fnv == e.payload_fnv) verdict = 1;
    }
    std::uint8_t expected = 0;
    if (state_->shard_state[index].compare_exchange_strong(
            expected, verdict, std::memory_order_acq_rel)) {
      state_->verify_ns.fetch_add(
          static_cast<std::uint64_t>(timer.elapsed_ms() * 1e6),
          std::memory_order_relaxed);
      (verdict == 1 ? state_->shards_verified : state_->shards_corrupt)
          .fetch_add(1, std::memory_order_relaxed);
      state = verdict;
    } else {
      state = expected;
    }
  }
  if (state != 1) {
    if (effective_bytes_[index] != e.payload_bytes)
      return corrupt(path_, "shard " + std::to_string(index) +
                                " is truncated (" +
                                std::to_string(effective_bytes_[index]) +
                                " of " + std::to_string(e.payload_bytes) +
                                " bytes)");
    return corrupt(path_, "shard " + std::to_string(index) +
                              " fails its checksum");
  }
  ShardView view;
  view.data = reinterpret_cast<const std::uint64_t*>(base() + e.offset);
  view.length = static_cast<std::size_t>(header_.entry_length);
  view.plane_bits = header_.plane_bits;
  view.first_entry = static_cast<std::size_t>(e.first_entry);
  view.lanes_used = e.lanes_used;
  return view;
}

bool Reader::shard_quarantined(std::size_t index) const {
  if (index >= table_.size()) return false;
  return state_->shard_state[index].load(std::memory_order_acquire) == 2;
}

ReaderStats Reader::stats() const {
  ReaderStats st;
  st.shards_verified = state_->shards_verified.load(std::memory_order_relaxed);
  st.shards_corrupt = state_->shards_corrupt.load(std::memory_order_relaxed);
  st.verify_ms =
      static_cast<double>(state_->verify_ns.load(std::memory_order_relaxed)) /
      1e6;
  return st;
}

}  // namespace swbpbc::db
