#include "sw/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "db/builder.hpp"
#include "db/reader.hpp"
#include "sw/backend.hpp"
#include "sw/db_backend.hpp"
#include "sw/wordwise.hpp"
#include "util/checkpoint.hpp"
#include "util/checksum.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

namespace {

using encoding::Sequence;

util::Status validate_batch(std::span<const Sequence> xs,
                            std::span<const Sequence> ys) {
  if (xs.size() != ys.size())
    return util::Status::invalid_input(
        "pattern/text count mismatch: " + std::to_string(xs.size()) +
        " patterns vs " + std::to_string(ys.size()) + " texts");
  if (xs.empty())
    return util::Status::invalid_input("empty batch: no pairs to screen");
  const std::size_t m = xs.front().size();
  const std::size_t n = ys.front().size();
  if (m == 0 || n == 0)
    return util::Status::invalid_input("sequences must be non-empty");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (xs[k].size() != m)
      return util::Status::invalid_input(
          "non-uniform batch: xs[" + std::to_string(k) + "] has length " +
          std::to_string(xs[k].size()) + ", batch requires " +
          std::to_string(m));
    if (ys[k].size() != n)
      return util::Status::invalid_input(
          "non-uniform batch: ys[" + std::to_string(k) + "] has length " +
          std::to_string(ys[k].size()) + ", batch requires " +
          std::to_string(n));
  }
  return {};
}

// Identifies (batch, config) for checkpoint streams: a resume against a
// different batch, chunking, lane width, or scoring parameters is rejected
// as kCheckpointMismatch before any chunk is skipped. Hash covers the
// sequence *content*, not just the shape — resuming against edited inputs
// would otherwise silently splice stale scores in.
std::uint64_t batch_fingerprint(std::span<const Sequence> xs,
                                std::span<const Sequence> ys,
                                const ScreenConfig& config,
                                const ScoringScheme& scheme,
                                std::size_t chunk_pairs) {
  std::uint64_t h = util::kFnvOffset;
  h = util::fnv1a_value<std::uint64_t>(xs.size(), h);
  h = util::fnv1a_value<std::uint64_t>(xs.front().size(), h);
  h = util::fnv1a_value<std::uint64_t>(ys.front().size(), h);
  // Covers the full scheme (gap model + matrix bytes); a params-
  // expressible scheme hashes with the params triple's bytes, so
  // pre-redesign checkpoint streams still resume.
  h = fingerprint_scheme(scheme, h);
  h = util::fnv1a_value<std::uint64_t>(chunk_pairs, h);
  h = util::fnv1a_value<std::uint32_t>(
      static_cast<std::uint32_t>(config.width), h);
  for (const Sequence& x : xs) h = util::fnv1a_bytes(x.data(), x.size(), h);
  for (const Sequence& y : ys) h = util::fnv1a_bytes(y.data(), y.size(), h);
  return h;
}

// Runs the verify-quarantine-retry-fallback recovery of reliability.hpp
// over one chunk's `scores` in place (indices are chunk-local; `xs`/`ys`
// are the chunk's spans). Returns non-ok only if even the wordwise CPU
// fallback disagrees with the scalar reference (a library invariant
// violation, not a transient fault). A triggered `stop` unwinds out of the
// verify loop as the stop's StatusError. `rescore(qx, qy)` re-scores the
// quarantined lanes through the screen's backend. The references follow
// the scheme: the linear triple's scalar and wordwise kernels when it is
// params-expressible, scalar Gotoh and the traceback aligner otherwise.
template <typename Rescore>
util::Status self_check(std::span<const Sequence> xs,
                        std::span<const Sequence> ys,
                        const ScreenConfig& config,
                        const ScoringScheme& scheme,
                        const Rescore& rescore,
                        std::span<std::uint32_t> scores,
                        const util::StopCondition* stop,
                        ReliabilityReport& rel) {
  const std::optional<ScoreParams> params = scheme.to_params();
  const std::size_t count = xs.size();
  telemetry::Tracer* const tr =
      config.telemetry != nullptr ? config.telemetry->tracer() : nullptr;
  telemetry::Span check_span(tr, "self_check", "screen");
  check_span.arg("lanes", static_cast<std::int64_t>(count));
  util::WallTimer verify_timer;

  // Verification set: every sampled lane plus every apparent hit (a
  // fabricated hit must never reach the detailed-alignment stage).
  std::vector<char> selected(count, 0);
  if (config.check.sample_every > 0) {
    for (std::size_t k = 0; k < count; k += config.check.sample_every)
      selected[k] = 1;
  }
  for (std::size_t k = 0; k < count; ++k) {
    if (scores[k] >= config.threshold) selected[k] = 1;
  }
  std::vector<std::size_t> verify;
  for (std::size_t k = 0; k < count; ++k) {
    if (selected[k] != 0) verify.push_back(k);
  }

  std::vector<std::uint32_t> refs(count, 0);
  bulk::for_each_instance(
      verify.size(), config.mode,
      [&](std::size_t v) {
        const std::size_t k = verify[v];
        refs[k] = params ? max_score(xs[k], ys[k], *params)
                         : scheme_max_score(xs[k], ys[k], scheme);
      },
      stop);

  std::vector<std::size_t> quarantined;
  for (std::size_t k : verify) {
    if (scores[k] != refs[k]) quarantined.push_back(k);
  }
  rel.lanes_verified += verify.size();
  rel.mismatches_detected += quarantined.size();
  rel.lanes_quarantined += quarantined.size();
  rel.verify_ms += verify_timer.elapsed_ms();

  util::WallTimer retry_timer;
  for (unsigned attempt = 1;
       !quarantined.empty() && attempt <= config.check.max_retries;
       ++attempt) {
    if (config.check.backoff_base_ms > 0.0) {
      const double wait_ms =
          config.check.backoff_base_ms * static_cast<double>(1u << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait_ms));
      rel.backoff_ms += wait_ms;
    }
    ++rel.retry_attempts;
    telemetry::Span retry_span(tr, "quarantine.retry", "screen");
    retry_span.arg("attempt", static_cast<std::int64_t>(attempt));
    retry_span.arg("lanes", static_cast<std::int64_t>(quarantined.size()));

    std::vector<Sequence> qx, qy;
    qx.reserve(quarantined.size());
    qy.reserve(quarantined.size());
    for (std::size_t k : quarantined) {
      qx.push_back(xs[k]);
      qy.push_back(ys[k]);
    }
    const std::vector<std::uint32_t> rescored = rescore(qx, qy);
    if (rescored.size() != quarantined.size())
      return util::Status::internal(
          "backend returned " + std::to_string(rescored.size()) +
          " scores for a quarantine batch of " +
          std::to_string(quarantined.size()));

    std::vector<std::size_t> still;
    for (std::size_t i = 0; i < quarantined.size(); ++i) {
      const std::size_t k = quarantined[i];
      if (rescored[i] == refs[k]) {
        scores[k] = rescored[i];
        ++rel.lanes_recovered;
      } else {
        still.push_back(k);
      }
    }
    quarantined.swap(still);
  }

  // Retry budget exhausted: the wordwise CPU path settles the lane.
  telemetry::Span fallback_span(quarantined.empty() ? nullptr : tr,
                                "quarantine.fallback", "screen");
  fallback_span.arg("lanes", static_cast<std::int64_t>(quarantined.size()));
  for (std::size_t k : quarantined) {
    // Independent second implementation: the wordwise kernel for linear
    // schemes, the full-matrix traceback aligner (O(mn) memory, separate
    // code path from the O(n)-row reference) for affine ones.
    const std::uint32_t w = params
                                ? wordwise_max_score(xs[k], ys[k], *params)
                                : align_scheme(xs[k], ys[k], scheme).score;
    if (w != refs[k])
      return util::Status::lane_corrupt(
          "lane " + std::to_string(k) + ": wordwise fallback score " +
          std::to_string(w) + " disagrees with scalar reference " +
          std::to_string(refs[k]));
    scores[k] = w;
    ++rel.lanes_fell_back;
  }
  rel.retry_ms += retry_timer.elapsed_ms();
  return {};
}

util::Status invalid(std::string what) {
  return util::Status::invalid_input(std::move(what));
}

// The scheme rules: the one part of validate() that try_screen enforces
// itself, so both report the same message. Returns the scheme the screen
// scores with.
util::Expected<ScoringScheme> check_scheme(const ScreenConfig& config) {
  auto scheme = resolve_scheme(config.params, config.scheme);
  if (!scheme.has_value()) return scheme;
  if (scheme->matrix != nullptr)
    return invalid(
        "config.scheme.matrix scores an epsilon-bit protein alphabet; "
        "try_screen's DNA pipeline cannot consume it — screen protein "
        "batches through try_scheme_max_scores or "
        "try_scheme_db_max_scores");
  return scheme;
}

}  // namespace

util::Expected<ScoringScheme> resolve_scheme(
    const ScoreParams& params, const std::optional<ScoringScheme>& scheme) {
  if (scheme.has_value()) {
    if (util::Status s = validate_scheme(*scheme, "config.scheme"); !s.ok())
      return s;
    return *scheme;
  }
  if (params.match == 0)
    return invalid("config.params.match must be positive (a zero match "
                   "reward scores every alignment 0)");
  if (params.gap == 0)
    return invalid("config.params.gap must be positive (the BPBC "
                   "recurrence requires a gap penalty)");
  return ScoringScheme::from_params(params);
}

util::Status validate(const ScreenConfig& config) {
  const auto scheme = check_scheme(config);
  if (!scheme.has_value()) return scheme.status();
  if (config.database != nullptr) {
    if (config.backend_choice == BackendChoice::kStriped)
      return invalid("config.database serves chunks through the BPBC "
                     "kernels; requesting the striped host engine "
                     "conflicts — clear one (auto and bpbc defer to the "
                     "store)");
    if (config.backend != nullptr)
      return invalid("config.database is unused when an explicit backend "
                     "is set (backends outrank the store); clear one");
    if (config.chunk_pairs % 64 != 0)
      return invalid("config.database requires shard-aligned chunks: "
                     "config.chunk_pairs must be a multiple of 64 "
                     "(misaligned chunks fall back to in-memory scoring)");
  }
  if (config.resume_salvage_torn_tail && config.resume_path.empty())
    return invalid("config.resume_salvage_torn_tail requires a "
                   "config.resume_path to salvage");
  if (config.chunk_pairs == 0) {
    if (!config.checkpoint_path.empty())
      return invalid("config.checkpoint_path requires chunk_pairs > 0 "
                     "(checkpoints are written per completed chunk)");
    if (!config.resume_path.empty())
      return invalid("config.resume_path requires chunk_pairs > 0 "
                     "(a resume stream is keyed by chunk geometry)");
  }
  if (config.check.enabled && config.check.backoff_base_ms < 0.0)
    return invalid("config.check.backoff_base_ms must be >= 0");
  return {};
}

util::Expected<ScreenReport> try_screen(std::span<const Sequence> xs,
                                        std::span<const Sequence> ys,
                                        const ScreenConfig& config) {
  if (util::Status s = validate_batch(xs, ys); !s.ok()) return s;

  // Resolve the scoring model once, at the boundary: an explicit scheme
  // outranks params (lifted losslessly otherwise). Every layer below takes
  // only this scheme; matrix schemes are typed errors here and screen
  // through the scheme front ends.
  const auto resolved = check_scheme(config);
  if (!resolved.has_value()) return resolved.status();
  const ScoringScheme& scheme = *resolved;

  // A configured database must actually describe this batch: shape
  // disagreement or (unless disabled) a content-fingerprint mismatch is a
  // typed error before any chunk runs — a stale store would otherwise
  // score the wrong sequences bit-perfectly.
  if (config.database != nullptr) {
    const db::Reader& rd = *config.database;
    if (rd.entry_count() != ys.size() ||
        rd.entry_length() != ys.front().size() ||
        rd.plane_bits() != encoding::kBitsPerBase)
      return util::Status::db_mismatch(
          "database '" + rd.path() + "' holds " +
          std::to_string(rd.entry_count()) + " entries of length " +
          std::to_string(rd.entry_length()) + " at " +
          std::to_string(rd.plane_bits()) + " planes; the batch screens " +
          std::to_string(ys.size()) + " texts of length " +
          std::to_string(ys.front().size()));
    if (config.db_verify_content &&
        db::content_fingerprint(ys) != rd.content_fingerprint())
      return util::Status::db_mismatch(
          "database '" + rd.path() +
          "' content fingerprint disagrees with the ys batch (stale or "
          "reordered database; rebuild it from these sequences)");
  }

  const std::size_t count = xs.size();
  const std::size_t chunk_pairs =
      config.chunk_pairs == 0 ? count
                              : std::min<std::size_t>(config.chunk_pairs, count);
  const std::size_t n_chunks = (count + chunk_pairs - 1) / chunk_pairs;

  const util::StopCondition stop(config.cancel, config.deadline);
  const util::StopCondition* stop_ptr = stop.armed() ? &stop : nullptr;

  telemetry::Tracer* const tr =
      config.telemetry != nullptr ? config.telemetry->tracer() : nullptr;
  telemetry::Span screen_span(tr, "screen", "screen");
  screen_span.arg("pairs", static_cast<std::int64_t>(count));
  screen_span.arg("chunks", static_cast<std::int64_t>(n_chunks));
  util::WallTimer screen_timer;

  ScreenReport report;
  report.scores.assign(count, 0);
  // The striped backend's 8-bit pass counts, exported as telemetry
  // counters at the end of the run.
  std::uint64_t striped_byte_pairs = 0, striped_escalations = 0;
  report.chunks.resize(n_chunks);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    report.chunks[c].begin = c * chunk_pairs;
    report.chunks[c].end = std::min(count, (c + 1) * chunk_pairs);
  }

  // Backend resolution: an explicit Backend wins; a configured database
  // store serves ys from disk; otherwise the host engine is picked by
  // backend_choice (BPBC / striped / the measured cost-model
  // auto-dispatch). One interface runs every chunk from here
  // on, and the host selection is observable: span args naming the
  // engine and both engines' predicted cost, plus a
  // backend_selected.<engine> counter.
  std::unique_ptr<Backend> owned_backend;
  Backend* backend = config.backend;
  if (backend == nullptr) {
    if (config.database != nullptr) {
      DbBackendOptions options;
      options.scheme = scheme;
      options.width = config.width;
      options.mode = config.mode;
      owned_backend = make_db_backend(*config.database, options);
    } else {
      DispatchWorkload workload;
      try {
        workload = DispatchWorkload::from(scheme, count, xs.front().size(),
                                          ys.front().size(),
                                          resolve_lane_width(config.width));
      } catch (const std::invalid_argument& e) {
        return util::Status::invalid_input(e.what());
      }
      DispatchedBackend dispatched =
          make_dispatch_backend(scheme, config.width, config.mode,
                                config.backend_choice, workload);
      owned_backend = std::move(dispatched.backend);
      screen_span.arg("backend", static_cast<std::int64_t>(dispatched.choice));
      screen_span.arg("bpbc_cost_ns",
                      static_cast<std::int64_t>(dispatched.bpbc_cost_ns));
      screen_span.arg("striped_cost_ns",
                      static_cast<std::int64_t>(dispatched.striped_cost_ns));
      if (config.telemetry != nullptr)
        config.telemetry->registry()
            .counter(std::string("backend_selected.") +
                     backend_choice_name(dispatched.choice))
            .add(1);
    }
    backend = owned_backend.get();
  }

  // Quarantine rescoring for the per-chunk self-check. Rescore jobs are
  // tagged (chunk, attempt) past the whole-chunk retry budget, so a
  // backend that derives fault campaigns from the tag draws a fresh,
  // reproducible campaign for every rescore.
  std::size_t rescore_chunk = 0;
  unsigned rescore_calls = 0;
  const auto rescore = [&config, &rescore_chunk, &rescore_calls, backend,
                        stop_ptr](std::span<const Sequence> qx,
                                  std::span<const Sequence> qy) {
    ChunkJob job;
    job.chunk = rescore_chunk;
    job.attempt = config.chunk_retry_limit + 1 + rescore_calls++;
    job.xs = qx;
    job.ys = qy;
    job.stop = stop_ptr;
    job.trace_id = telemetry::current_trace_context();
    return backend->run(job).scores;
  };

  // Resume source: load and validate before the writer may truncate it
  // (resume_path and checkpoint_path can name the same file).
  util::CheckpointData resume;
  bool have_resume = false;
  const std::uint64_t fingerprint =
      (!config.resume_path.empty() || !config.checkpoint_path.empty())
          ? batch_fingerprint(xs, ys, config, scheme, chunk_pairs)
          : 0;
  if (!config.resume_path.empty()) {
    auto loaded =
        config.resume_salvage_torn_tail
            ? util::read_checkpoint_salvage(config.resume_path, fingerprint)
            : util::read_checkpoint(config.resume_path, fingerprint);
    if (!loaded.has_value()) return loaded.status();
    resume = std::move(loaded).value();
    have_resume = true;
  }
  std::optional<util::CheckpointWriter> writer;
  if (!config.checkpoint_path.empty()) {
    auto created =
        util::CheckpointWriter::try_create(config.checkpoint_path, fingerprint);
    if (!created.has_value()) return created.status();
    writer.emplace(std::move(created).value());
  }

  for (std::size_t c = 0; c < n_chunks; ++c) {
    ChunkOutcome& outcome = report.chunks[c];
    const std::size_t begin = outcome.begin;
    const std::size_t len = outcome.end - begin;
    if (stop.triggered()) {
      report.status = stop.status("screening, before chunk " +
                                  std::to_string(c));
      break;
    }

    const std::span<const Sequence> cx = xs.subspan(begin, len);
    const std::span<const Sequence> cy = ys.subspan(begin, len);
    const std::span<std::uint32_t> cscores(report.scores.data() + begin, len);
    std::uint64_t chunk_faults = 0;

    telemetry::Span chunk_span(tr, "chunk", "screen");
    chunk_span.arg("chunk", static_cast<std::int64_t>(c));
    chunk_span.arg("pairs", static_cast<std::int64_t>(len));
    util::WallTimer chunk_timer;

    const util::CheckpointRecord* record =
        have_resume ? resume.find(c) : nullptr;
    if (record != nullptr) {
      if (record->payload.size() != len * sizeof(std::uint32_t))
        return util::Status::checkpoint_mismatch(
            "chunk " + std::to_string(c) + " record holds " +
            std::to_string(record->payload.size()) + " bytes, batch needs " +
            std::to_string(len * sizeof(std::uint32_t)));
      std::memcpy(cscores.data(), record->payload.data(),
                  record->payload.size());
      outcome.completed = true;
      outcome.resumed = true;
    } else {
      try {
        for (;;) {
          util::WallTimer backend_timer;
          telemetry::Span backend_span(tr, "chunk.backend", "screen");
          backend_span.arg("chunk", static_cast<std::int64_t>(c));
          backend_span.arg("attempt",
                           static_cast<std::int64_t>(outcome.retries));
          ChunkJob job;
          job.chunk = c;
          job.attempt = outcome.retries;
          job.xs = cx;
          job.ys = cy;
          job.first_pair = begin;
          job.stop = stop_ptr;
          job.trace_id = telemetry::current_trace_context();
          const ChunkResult r = backend->run(job);
          backend_span.finish();
          if (r.scores.size() != len)
            return util::Status::internal(
                "backend returned " + std::to_string(r.scores.size()) +
                " scores for a chunk of " + std::to_string(len) + " pairs");
          // Phase attribution: backends that know their split report it;
          // for opaque backends the measured call wall time lands on the
          // SWA phase.
          if (r.has_phase_timings) {
            report.bpbc.w2b_ms += r.timings.w2b_ms;
            report.bpbc.swa_ms += r.timings.swa_ms;
            report.bpbc.b2w_ms += r.timings.b2w_ms;
          } else {
            report.bpbc.swa_ms += backend_timer.elapsed_ms();
          }
          report.reliability.integrity_checks += r.integrity_checks;
          report.reliability.integrity_ms += r.integrity_ms;
          report.reliability.db_shards_served += r.db_shards_served;
          report.reliability.db_shards_quarantined += r.db_shards_quarantined;
          report.reliability.db_pairs_reingested += r.db_pairs_reingested;
          report.reliability.db_pairs_fallback += r.db_pairs_fallback;
          striped_byte_pairs += r.striped_byte_pairs;
          striped_escalations += r.striped_escalations;
          for (StageFault f : r.faults) {
            f.chunk = c;
            report.reliability.stage_faults.push_back(f);
            ++report.reliability.integrity_faults;
            ++chunk_faults;
          }
          std::copy(r.scores.begin(), r.scores.end(), cscores.begin());
          if (r.faults.empty() || outcome.retries >= config.chunk_retry_limit)
            break;
          // In-band detection: re-run just this chunk. The backend's next
          // campaign draws a fresh fault pattern, so a transient fault
          // clears; a persistent one exhausts the budget and falls through
          // to the self-check backstop below.
          ++outcome.retries;
          ++report.reliability.chunk_retries;
          report.reliability.lanes_resubmitted += len;
        }
        if (config.check.enabled) {
          rescore_chunk = c;
          rescore_calls = 0;
          if (util::Status s = self_check(cx, cy, config, scheme,
                                          rescore, cscores, stop_ptr,
                                          report.reliability);
              !s.ok())
            return s;
        }
        outcome.completed = true;
      } catch (const util::StatusError& e) {
        if (util::is_stop_code(e.status().code())) {
          report.status = e.status();
          break;
        }
        throw;
      }
    }

    if (writer.has_value()) {
      telemetry::Span ckpt_span(tr, "checkpoint.append", "screen");
      ckpt_span.arg("chunk", static_cast<std::int64_t>(c));
      std::vector<std::uint8_t> payload(len * sizeof(std::uint32_t));
      std::memcpy(payload.data(), cscores.data(), payload.size());
      if (util::Status s = writer->append(c, payload); !s.ok()) return s;
    }
    if (config.telemetry != nullptr) {
      config.telemetry->registry()
          .histogram("screen.chunk.ms")
          .observe(chunk_timer.elapsed_ms());
    }
    if (config.progress) {
      ChunkProgress p;
      p.chunk = c;
      p.chunks_total = n_chunks;
      p.begin = begin;
      p.end = outcome.end;
      p.resumed = outcome.resumed;
      p.retries = outcome.retries;
      p.faults = chunk_faults;
      telemetry::Span cb_span(tr, "progress.callback", "screen");
      cb_span.arg("chunk", static_cast<std::int64_t>(c));
      try {
        config.progress(p);
      } catch (const std::exception& e) {
        // A broken observer must not unwind through the pipeline: the run
        // stops with a typed status and keeps everything settled so far.
        report.status = util::Status::callback_error(
            "progress observer threw on chunk " + std::to_string(c) + ": " +
            e.what());
        break;
      } catch (...) {
        report.status = util::Status::callback_error(
            "progress observer threw on chunk " + std::to_string(c));
        break;
      }
    }
  }

  // Hits come from completed chunks only — a stopped run never reports a
  // hit computed from an untouched (zero) score region.
  for (const ChunkOutcome& outcome : report.chunks) {
    if (!outcome.completed) continue;
    for (std::size_t k = outcome.begin; k < outcome.end; ++k) {
      if (report.scores[k] >= config.threshold) {
        ScreenHit hit;
        hit.index = k;
        hit.bpbc_score = report.scores[k];
        report.hits.push_back(hit);
      }
    }
  }

  if (config.traceback && report.status.ok()) {
    util::WallTimer timer;
    try {
      bulk::for_each_instance(
          report.hits.size(), config.mode,
          [&](std::size_t h) {
            ScreenHit& hit = report.hits[h];
            // align_scheme delegates to the legacy align() for params-
            // expressible schemes and runs the three-state Gotoh
            // traceback otherwise.
            hit.detail = align_scheme(xs[hit.index], ys[hit.index], scheme);
            hit.detailed = true;
          },
          stop_ptr);
    } catch (const util::StatusError& e) {
      if (!util::is_stop_code(e.status().code())) throw;
      // Deadline/cancel during traceback: keep the coarse hits; the ones
      // that finished stay detailed.
      report.status = e.status();
    }
    report.traceback_ms = timer.elapsed_ms();
  }

  if (config.telemetry != nullptr) {
    telemetry::MetricsRegistry& reg = config.telemetry->registry();
    std::uint64_t done_pairs = 0, resumed = 0;
    for (const ChunkOutcome& outcome : report.chunks) {
      if (!outcome.completed) continue;
      done_pairs += outcome.end - outcome.begin;
      if (outcome.resumed) ++resumed;
    }
    reg.counter("screen.runs").add(1);
    reg.counter("screen.pairs").add(done_pairs);
    reg.counter("screen.hits").add(report.hits.size());
    const ReliabilityReport& rel = report.reliability;
    const auto count_if = [&reg](const char* name, std::uint64_t v) {
      if (v != 0) reg.counter(name).add(v);
    };
    count_if("screen.chunks.resumed", resumed);
    count_if("screen.lanes_verified", rel.lanes_verified);
    count_if("screen.mismatches_detected", rel.mismatches_detected);
    count_if("screen.retry_attempts", rel.retry_attempts);
    count_if("screen.lanes_recovered", rel.lanes_recovered);
    count_if("screen.lanes_fell_back", rel.lanes_fell_back);
    count_if("screen.integrity_checks", rel.integrity_checks);
    count_if("screen.integrity_faults", rel.integrity_faults);
    count_if("screen.chunk_retries", rel.chunk_retries);
    count_if("screen.db_shards_served", rel.db_shards_served);
    count_if("screen.db_shards_quarantined", rel.db_shards_quarantined);
    count_if("screen.db_pairs_reingested", rel.db_pairs_reingested);
    count_if("screen.db_pairs_fallback", rel.db_pairs_fallback);
    count_if("sw.striped.byte_pass_pairs", striped_byte_pairs);
    count_if("sw.striped.escalations", striped_escalations);
    switch (report.status.code()) {
      case util::ErrorCode::kCancelled:
        reg.counter("screen.cancelled").add(1);
        break;
      case util::ErrorCode::kDeadlineExceeded:
        reg.counter("screen.deadline_exceeded").add(1);
        break;
      case util::ErrorCode::kCallbackError:
        reg.counter("screen.callback_errors").add(1);
        break;
      default:
        break;
    }
    const double total_ms = screen_timer.elapsed_ms();
    if (total_ms > 0.0 && done_pairs != 0) {
      const double secs = total_ms / 1000.0;
      reg.gauge("screen.pairs_per_s")
          .set(static_cast<double>(done_pairs) / secs);
      const double cells = static_cast<double>(done_pairs) *
                           static_cast<double>(xs.front().size()) *
                           static_cast<double>(ys.front().size());
      reg.gauge("screen.gcups").set(cells / (secs * 1e9));
    }
  }
  return report;
}

ScreenReport screen(std::span<const Sequence> xs,
                    std::span<const Sequence> ys,
                    const ScreenConfig& config) {
  return try_screen(xs, ys, config).value();
}

}  // namespace swbpbc::sw
