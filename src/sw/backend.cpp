#include "sw/backend.hpp"

#include <utility>

namespace swbpbc::sw {

Backend::~Backend() = default;

void Backend::submit(const ChunkJob& job) { deferred_.push_back(job); }

ChunkResult Backend::collect() {
  if (deferred_.empty())
    throw util::StatusError(
        util::Status::internal("Backend::collect with no submitted job"));
  ChunkJob job = deferred_.front();
  deferred_.pop_front();
  return run(job);
}

namespace {

class ScoreBackendAdapter final : public Backend {
 public:
  explicit ScoreBackendAdapter(ScoreBackend backend)
      : backend_(std::move(backend)) {}

  [[nodiscard]] BackendCaps caps() const override { return {}; }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    r.scores = backend_(job.xs, job.ys);
    return r;
  }

 private:
  ScoreBackend backend_;
};

class ChunkBackendAdapter final : public Backend {
 public:
  explicit ChunkBackendAdapter(ChunkBackend backend)
      : backend_(std::move(backend)) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.integrity = true;
    caps.stop_polling = true;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    return backend_(job.xs, job.ys, job.stop);
  }

 private:
  ChunkBackend backend_;
};

}  // namespace

std::unique_ptr<Backend> adapt_score_backend(ScoreBackend backend) {
  return std::make_unique<ScoreBackendAdapter>(std::move(backend));
}

std::unique_ptr<Backend> adapt_chunk_backend(ChunkBackend backend) {
  return std::make_unique<ChunkBackendAdapter>(std::move(backend));
}

}  // namespace swbpbc::sw
