// Test helpers for the device simulator: a whole batch as one
// PipelineEngine job, run through a fresh engine.
#pragma once

#include <span>

#include "device/engine.hpp"
#include "encoding/dna.hpp"

namespace swbpbc::device::testing {

/// Options for an engine scoring `scheme` at `width`; everything else at
/// its default.
inline EngineOptions engine_options(const sw::ScoringScheme& scheme,
                                    sw::LaneWidth width,
                                    bulk::Mode mode = bulk::Mode::kParallel) {
  EngineOptions options;
  options.scheme = scheme;
  options.width = width;
  options.mode = mode;
  return options;
}

/// The batch (xs[k], ys[k]) as job (chunk 0, `attempt`).
inline sw::ChunkJob batch_job(std::span<const encoding::Sequence> xs,
                              std::span<const encoding::Sequence> ys,
                              unsigned attempt = 0) {
  sw::ChunkJob job;
  job.attempt = attempt;
  job.xs = xs;
  job.ys = ys;
  return job;
}

/// The five stages over the whole batch on a fresh engine.
inline GpuRunResult run_stages(std::span<const encoding::Sequence> xs,
                               std::span<const encoding::Sequence> ys,
                               const EngineOptions& options,
                               unsigned attempt = 0) {
  PipelineEngine engine(options);
  return engine.run_stages(batch_job(xs, ys, attempt));
}

/// Table IV's wordwise device row over the whole batch on a fresh engine.
inline GpuRunResult run_wordwise(std::span<const encoding::Sequence> xs,
                                 std::span<const encoding::Sequence> ys,
                                 const EngineOptions& options) {
  PipelineEngine engine(options);
  return engine.run_wordwise(batch_job(xs, ys));
}

}  // namespace swbpbc::device::testing
