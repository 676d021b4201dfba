#include "sw/scan.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "sw/striped.hpp"
#include "sw/wordwise.hpp"

namespace swbpbc::sw {

util::Expected<ScanReport> try_scan_text(const encoding::Sequence& query,
                                         const encoding::Sequence& text,
                                         const ScanConfig& config) {
  const std::size_t m = query.size();
  if (m == 0)
    return util::Status::invalid_input("query must not be empty");
  const std::size_t overlap =
      config.overlap == 0 ? 2 * m : config.overlap;
  if (config.window <= overlap)
    return util::Status::invalid_input(
        "window (" + std::to_string(config.window) +
        ") must exceed overlap (" + std::to_string(overlap) +
        "): every window advances by window - overlap characters");

  ScanReport report;
  if (text.empty()) return report;

  // Window spans, each full-length except when the text is short; the
  // final window is right-aligned so the tail is fully covered.
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  if (text.size() <= config.window) {
    spans.emplace_back(0, text.size());
  } else {
    const std::size_t step = config.window - overlap;
    for (std::size_t start = 0;; start += step) {
      if (start + config.window >= text.size()) {
        spans.emplace_back(text.size() - config.window, text.size());
        break;
      }
      spans.emplace_back(start, start + config.window);
    }
  }
  report.windows = spans.size();

  // Resolve the host engine once for the whole scan: every batch shares
  // the workload shape (uniform windows, one query), so the cost-model
  // decision — and the SWBPBC_FORCE_BACKEND override — is taken up front
  // and recorded on the scan span. Scores are bit-identical whichever
  // engine runs.
  const ScoringScheme scheme = ScoringScheme::from_params(config.params);
  BackendChoice engine;
  try {
    const DispatchWorkload workload = DispatchWorkload::from(
        scheme, spans.size(), m, spans.front().second - spans.front().first,
        resolve_lane_width(config.width));
    engine = resolve_backend_choice(config.backend_choice, workload);
  } catch (const std::invalid_argument& e) {
    return util::Status::invalid_input(e.what());
  }
  std::optional<StripedProfile> striped_profile;
  if (engine == BackendChoice::kStriped) {
    encoding::GenericSequence gq(m);
    for (std::size_t i = 0; i < m; ++i)
      gq[i] = static_cast<std::uint8_t>(query[i]);
    try {
      striped_profile.emplace(scheme, gq);
    } catch (const std::invalid_argument& e) {
      return util::Status::invalid_input(e.what());
    }
  }

  const util::StopCondition stop(config.cancel, config.deadline);
  telemetry::Tracer* const tr =
      config.telemetry != nullptr ? config.telemetry->tracer() : nullptr;
  telemetry::Span scan_span(tr, "scan", "screen");
  scan_span.arg("windows", static_cast<std::int64_t>(spans.size()));
  scan_span.arg("backend", static_cast<std::int64_t>(engine));
  bool detail_skipped = false;
  const std::size_t batch = config.chunk_windows == 0
                                ? spans.size()
                                : std::min(config.chunk_windows, spans.size());

  // Stream the scan in window batches: only `batch` window sequences are
  // materialized at a time, and the stop condition is observed at batch
  // boundaries so a cancelled scan returns the prefix scored so far.
  for (std::size_t first = 0; first < spans.size(); first += batch) {
    if (stop.triggered()) {
      report.status = stop.status("text scan, window " + std::to_string(first));
      return report;
    }
    const std::size_t n_batch = std::min(batch, spans.size() - first);
    telemetry::Span batch_span(tr, "scan.batch", "screen");
    batch_span.arg("first", static_cast<std::int64_t>(first));
    batch_span.arg("windows", static_cast<std::int64_t>(n_batch));
    std::vector<encoding::Sequence> windows;
    windows.reserve(n_batch);
    for (std::size_t w = first; w < first + n_batch; ++w) {
      windows.emplace_back(
          text.begin() + static_cast<std::ptrdiff_t>(spans[w].first),
          text.begin() + static_cast<std::ptrdiff_t>(spans[w].second));
    }
    std::vector<std::uint32_t> scores;
    switch (engine) {
      case BackendChoice::kStriped: {
        // One shared profile (built above), scored per window. The DNA
        // bases are their dense codes, so the windows convert in place.
        scores.assign(n_batch, 0);
        bulk::for_each_instance(n_batch, config.mode, [&](std::size_t i) {
          encoding::GenericSequence gw(windows[i].size());
          for (std::size_t j = 0; j < gw.size(); ++j)
            gw[j] = static_cast<std::uint8_t>(windows[i][j]);
          scores[i] = striped_profile->score(gw);
        });
        break;
      }
      case BackendChoice::kWordwiseNaive: {
        const std::vector<encoding::Sequence> queries(n_batch, query);
        scores = wordwise_max_scores(queries, windows, config.params,
                                     config.mode);
        break;
      }
      case BackendChoice::kBpbc:
      case BackendChoice::kAuto: {  // resolve never returns kAuto
        const std::vector<encoding::Sequence> queries(n_batch, query);
        scores = bpbc_max_scores(queries, windows, config.params,
                                 config.width, config.mode);
        break;
      }
    }
    report.windows_scored += n_batch;

    for (std::size_t i = 0; i < n_batch; ++i) {
      const std::size_t w = first + i;
      if (scores[i] < config.threshold) continue;
      ScanHit hit;
      hit.text_begin = spans[w].first;
      hit.text_end = spans[w].second;
      hit.score = scores[i];
      if (config.traceback) {
        if (stop.triggered()) {
          // Report the hit coarse and move on: the caller still learns
          // every window of this batch that crossed the threshold.
          detail_skipped = true;
          report.hits.push_back(std::move(hit));
          continue;
        }
        hit.detail = align(query, windows[i], config.params);
        hit.detail.y_begin += spans[w].first;  // map to text coordinates
        hit.detail.y_end += spans[w].first;
      }
      report.hits.push_back(std::move(hit));
    }
  }
  // A stop during the final batch's traceback still counts as a stopped
  // (partial-detail) scan even though every window was scored.
  if (report.status.ok() && detail_skipped)
    report.status = stop.status("text scan traceback");
  if (config.telemetry != nullptr) {
    telemetry::MetricsRegistry& reg = config.telemetry->registry();
    reg.counter("scan.runs").add(1);
    reg.counter("scan.windows_scored").add(report.windows_scored);
    reg.counter("scan.hits").add(report.hits.size());
    reg.counter(std::string("backend_selected.") + backend_choice_name(engine))
        .add(1);
  }
  return report;
}

ScanReport scan_text(const encoding::Sequence& query,
                     const encoding::Sequence& text,
                     const ScanConfig& config) {
  return try_scan_text(query, text, config).value();
}

}  // namespace swbpbc::sw
