#include "service/journal.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>

namespace swbpbc::service {

namespace {

// Record kinds. Values are on-disk format — append only.
constexpr std::uint8_t kAdmitted = 1;
constexpr std::uint8_t kCompleted = 2;

std::vector<std::uint8_t> with_kind(std::uint8_t kind,
                                    std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + body.size());
  payload.push_back(kind);
  payload.insert(payload.end(), body.begin(), body.end());
  return payload;
}

// A validated admitted record: its request's id and wire body. The
// decoded request is dropped on the worker that validated it, so the
// replay thread frees one buffer per completed request, not the ~15 of a
// decoded one; only the requests still pending at the end decode again.
struct Admitted {
  std::string id;
  std::vector<std::uint8_t> body;
};

// One record, decoded: the request or response it carries, or why it
// cannot be replayed.
using Decoded = std::variant<util::Status, Admitted, ScreenResponse>;

Decoded decode_record(std::span<const std::uint8_t> payload,
                      const std::string& path) {
  if (payload.empty())
    return util::Status::checkpoint_corrupt("journal '" + path +
                                            "' holds an empty record");
  const std::uint8_t kind = payload.front();
  const std::span<const std::uint8_t> body = payload.subspan(1);
  if (kind == kAdmitted) {
    auto request = decode_request(body);
    if (!request.has_value())
      return util::Status::checkpoint_corrupt(
          "journal '" + path + "' holds an undecodable admitted record: " +
          request.status().message());
    return Admitted{std::move(request->id),
                    std::vector<std::uint8_t>(body.begin(), body.end())};
  }
  if (kind == kCompleted) {
    auto response = decode_response(body);
    if (!response.has_value())
      return util::Status::checkpoint_corrupt(
          "journal '" + path + "' holds an undecodable completed record: " +
          response.status().message());
    return std::move(response).value();
  }
  return util::Status::checkpoint_corrupt(
      "journal '" + path + "' holds a record of unknown kind " +
      std::to_string(kind));
}

// Streams the journal: each window's records decode on the pool, then
// apply here in journal order. Admitted enters pending, completed moves
// the id out of pending into the response cache. Pending requests are
// keyed by record index (journal order) and indexed by id, so a
// completion costs O(log n), not a pass over everything pending.
class Replay final : public util::CheckpointVisitor {
 public:
  explicit Replay(const std::string& path) : path_(path) {}

  void begin_window(std::size_t records) override {
    decoded_.assign(records, Decoded{});
  }

  void decode(std::size_t slot,
              const util::CheckpointRecordView& record) override {
    decoded_[slot] = decode_record(record.payload, path_);
  }

  util::Status apply(
      std::span<const util::CheckpointRecordView> records) override {
    for (std::size_t i = 0; i < records.size(); ++i) {
      next_sequence = std::max(next_sequence, records[i].chunk_index + 1);
      Decoded& d = decoded_[i];
      if (auto* failed = std::get_if<util::Status>(&d)) return *failed;
      if (auto* admitted = std::get_if<Admitted>(&d)) {
        pending_ids_.emplace(std::move(admitted->id), records[i].index);
        pending_.emplace(records[i].index, std::move(admitted->body));
      } else {
        auto& response = std::get<ScreenResponse>(d);
        const auto [first, last] = pending_ids_.equal_range(response.id);
        for (auto it = first; it != last; ++it) pending_.erase(it->second);
        pending_ids_.erase(first, last);
        completed[response.id] = std::move(response);
      }
      ++replayed;
    }
    decoded_.clear();
    return {};
  }

  /// The requests still pending, in journal order.
  std::vector<ScreenRequest> take_pending() {
    std::vector<ScreenRequest> out;
    out.reserve(pending_.size());
    for (const auto& [index, body] : pending_)
      out.push_back(decode_request(body).value());  // validated at decode()
    return out;
  }

  std::uint64_t next_sequence = 0;
  std::uint64_t replayed = 0;
  std::map<std::string, ScreenResponse> completed;

 private:
  const std::string& path_;
  std::vector<Decoded> decoded_;  // the window in flight, by slot
  std::map<std::uint64_t, std::vector<std::uint8_t>> pending_;  // bodies
  std::unordered_multimap<std::string, std::uint64_t> pending_ids_;
};

}  // namespace

util::Expected<RequestJournal> RequestJournal::open(
    const std::string& path, std::uint64_t fingerprint,
    util::ThreadPool& pool) {
  Replay replay(path);
  std::uint64_t replayed_bytes = 0;
  auto writer = util::CheckpointWriter::try_append(path, fingerprint, replay,
                                                   pool, &replayed_bytes);
  if (!writer.has_value()) return writer.status();
  RequestJournal journal(std::move(writer).value());
  journal.next_sequence_ = replay.next_sequence;
  journal.replayed_ = replay.replayed;
  journal.replayed_bytes_ = replayed_bytes;
  journal.pending_ = replay.take_pending();
  journal.completed_ = std::move(replay.completed);
  return journal;
}

util::Status RequestJournal::record_admitted(const ScreenRequest& request) {
  util::Status s = writer_.append(next_sequence_,
                                  with_kind(kAdmitted, encode_request(request)));
  if (!s.ok()) return s;
  ++next_sequence_;
  ++appended_;
  return {};
}

util::Status RequestJournal::record_completed(const ScreenResponse& response) {
  util::Status s = writer_.append(
      next_sequence_, with_kind(kCompleted, encode_response(response)));
  if (!s.ok()) return s;
  ++next_sequence_;
  ++appended_;
  return {};
}

std::vector<ScreenRequest> RequestJournal::take_pending() {
  return std::exchange(pending_, {});
}

std::map<std::string, ScreenResponse> RequestJournal::take_completed() {
  return std::exchange(completed_, {});
}

}  // namespace swbpbc::service
