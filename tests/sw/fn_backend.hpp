// Test double: an sw::Backend whose run() is a plain callable, for tests
// that need a deliberately wrong, transient, counting or cancelling
// backend. caps() default to all false — an opaque backend with no
// integrity findings, no stop polling and no streams.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "encoding/dna.hpp"
#include "sw/backend.hpp"

namespace swbpbc::sw::test_support {

class FnBackend final : public Backend {
 public:
  using Run = std::function<ChunkResult(const ChunkJob&)>;

  explicit FnBackend(Run run, BackendCaps caps = {})
      : run_(std::move(run)), caps_(caps) {}

  [[nodiscard]] BackendCaps caps() const override { return caps_; }
  ChunkResult run(const ChunkJob& job) override { return run_(job); }

 private:
  Run run_;
  BackendCaps caps_;
};

using PairScores = std::function<std::vector<std::uint32_t>(
    std::span<const encoding::Sequence>, std::span<const encoding::Sequence>)>;

/// An opaque backend over a pairs -> scores function.
inline FnBackend scores_backend(PairScores scores) {
  return FnBackend([scores = std::move(scores)](const ChunkJob& job) {
    ChunkResult r;
    r.scores = scores(job.xs, job.ys);
    return r;
  });
}

}  // namespace swbpbc::sw::test_support
