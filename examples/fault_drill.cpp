// Fault drill: hammer the device-simulator PipelineEngine with seeded
// fault campaigns (bit flips, dropped phase syncs, stalled blocks, flipped
// copy words) and show the survivable pipeline detecting, quarantining,
// and recovering every corrupted lane. The batch streams through in
// bounded chunks with in-band stage integrity on, so detections are
// attributed to a (chunk, stage, block) and a retry resubmits one chunk,
// not the whole batch; the lane-level self-check remains the backstop.
// Every campaign must end with scores identical to the scalar reference
// and a balanced ReliabilityReport.
//
//   ./fault_drill --campaigns=100 --count=64 --m=8 --n=24 --chunk=16
//   ./fault_drill --flip=1e-3 --drop-sync=0.05 --stall=0.05 --copy-flip=2e-3
//   ./fault_drill --integrity=0     # lane self-check only, no stage checks
//   ./fault_drill --trace=drill.trace.json   # Chrome/Perfetto span trace
//
// Checkpoint/resume rides the same chunk boundaries — see
// examples/screen_resume.cpp for the kill-and-resume walkthrough.

#include <cstdio>
#include <vector>

#include "device/fault.hpp"
#include "device/engine.hpp"
#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "telemetry/telemetry.hpp"
#include "util/options.hpp"
#include "util/signal.hpp"

using namespace swbpbc;

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const auto campaigns = static_cast<std::size_t>(opt.get_int("campaigns", 100));
  const auto count = static_cast<std::size_t>(opt.get_int("count", 64));
  const auto m = static_cast<std::size_t>(opt.get_int("m", 8));
  const auto n = static_cast<std::size_t>(opt.get_int("n", 24));
  const auto chunk = static_cast<std::size_t>(opt.get_int("chunk", 16));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 42));
  const bool integrity = opt.get_int("integrity", 1) != 0;
  const sw::ScoringScheme scheme;  // 2/1/1 linear

  // --trace=path: record every campaign's screen/chunk/device-stage/
  // quarantine spans into one Chrome-trace file (open in Perfetto).
  const std::string trace_path = opt.get("trace", "");
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = !trace_path.empty();
  telemetry::Telemetry session(tcfg);

  device::FaultConfig fault;
  fault.flip_probability = opt.get_double("flip", 1e-3);
  fault.drop_sync_probability = opt.get_double("drop-sync", 0.05);
  fault.stall_probability = opt.get_double("stall", 0.05);
  fault.copy_flip_probability = opt.get_double("copy-flip", 2e-3);

  std::printf("fault drill: %zu campaigns, %zu pairs (m=%zu, n=%zu), "
              "chunks of %zu, stage integrity %s\n",
              campaigns, count, m, n, chunk, integrity ? "on" : "off");
  std::printf("  flip=%g  drop-sync=%g  stall=%g  copy-flip=%g\n\n",
              fault.flip_probability, fault.drop_sync_probability,
              fault.stall_probability, fault.copy_flip_probability);

  // SIGINT/SIGTERM stop the drill cooperatively: the in-flight campaign
  // unwinds at its next chunk boundary with a typed kCancelled, totals
  // for finished campaigns are printed, and the exit is clean (130). A
  // second signal exits immediately.
  util::CancellationToken sig_token;
  if (util::Status s = util::install_cancel_on_signals(sig_token); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  sw::ReliabilityReport totals;
  device::FaultLog fault_totals;
  std::size_t stage_hist[5] = {0, 0, 0, 0, 0};
  std::size_t clean_campaigns = 0, failed = 0;
  bool interrupted = false;
  for (std::size_t c = 0; c < campaigns && !interrupted; ++c) {
    util::Xoshiro256 rng(seed + c);
    const auto xs = encoding::random_sequences(rng, count, m);
    const auto ys = encoding::random_sequences(rng, count, n);

    fault.seed = seed * 1000003 + c;
    device::FaultInjector injector(fault);
    device::EngineOptions eng;
    eng.scheme = scheme;
    eng.width = sw::LaneWidth::k32;
    eng.faults = &injector;
    eng.watchdog_phases = m + n + 16;
    eng.integrity.enabled = integrity;
    eng.integrity.sample_every = 1;
    eng.telemetry = session.sink();
    device::PipelineEngine engine(eng);

    sw::ScreenConfig cfg;
    cfg.scheme = scheme;
    cfg.threshold = 12;
    cfg.width = sw::LaneWidth::k32;
    cfg.traceback = false;
    cfg.chunk_pairs = chunk;
    cfg.chunk_retry_limit = 3;
    cfg.backend = &engine;
    cfg.check.enabled = true;
    cfg.check.sample_every = 1;  // verify every lane against the scalar ref
    cfg.check.max_retries = 4;
    cfg.telemetry = session.sink();
    cfg.cancel = &sig_token;

    const auto result = sw::try_screen(xs, ys, cfg);
    if (result.has_value() &&
        result->status.code() == util::ErrorCode::kCancelled) {
      std::printf("campaign %3zu: interrupted by signal — %s\n", c,
                  result->status.to_string().c_str());
      interrupted = true;
      continue;
    }
    if (!result.has_value()) {
      std::printf("campaign %3zu: UNRECOVERED — %s\n", c,
                  result.status().to_string().c_str());
      ++failed;
      continue;
    }
    const sw::ScreenReport& report = *result;

    // Independent audit: every reported score must equal the scalar DP.
    std::size_t wrong = 0;
    for (std::size_t k = 0; k < count; ++k) {
      if (report.scores[k] != sw::scheme_max_score(xs[k], ys[k], scheme))
        ++wrong;
    }
    if (wrong != 0 || !report.reliability.balanced()) ++failed;

    const device::FaultLog log = injector.log();
    if (log.total() == 0) ++clean_campaigns;
    fault_totals.bit_flips += log.bit_flips;
    fault_totals.syncs_dropped += log.syncs_dropped;
    fault_totals.watchdog_trips += log.watchdog_trips;
    totals.lanes_verified += report.reliability.lanes_verified;
    totals.mismatches_detected += report.reliability.mismatches_detected;
    totals.retry_attempts += report.reliability.retry_attempts;
    totals.lanes_recovered += report.reliability.lanes_recovered;
    totals.lanes_fell_back += report.reliability.lanes_fell_back;
    totals.integrity_checks += report.reliability.integrity_checks;
    totals.integrity_faults += report.reliability.integrity_faults;
    totals.chunk_retries += report.reliability.chunk_retries;
    totals.lanes_resubmitted += report.reliability.lanes_resubmitted;
    for (const sw::StageFault& f : report.reliability.stage_faults)
      ++stage_hist[static_cast<std::size_t>(f.stage)];

    if (log.total() > 0) {
      std::printf(
          "campaign %3zu: flips=%-4llu syncs_dropped=%-2llu stalls=%-2llu | %s%s\n",
          c, static_cast<unsigned long long>(log.bit_flips),
          static_cast<unsigned long long>(log.syncs_dropped),
          static_cast<unsigned long long>(log.watchdog_trips),
          report.reliability.summary().c_str(),
          wrong == 0 ? "" : "  ** SCORES WRONG **");
      for (const sw::StageFault& f : report.reliability.stage_faults) {
        if (f.block == sw::StageFault::kNoBlock) {
          std::printf("              detected in-band: chunk %zu, stage %s\n",
                      f.chunk, sw::stage_name(f.stage));
        } else {
          std::printf("              detected in-band: chunk %zu, stage %s, "
                      "block %zu\n",
                      f.chunk, sw::stage_name(f.stage), f.block);
        }
      }
    }
  }

  std::printf("\ninjected: %llu bit flips, %llu dropped syncs, %llu stalls "
              "(%zu campaigns fault-free)\n",
              static_cast<unsigned long long>(fault_totals.bit_flips),
              static_cast<unsigned long long>(fault_totals.syncs_dropped),
              static_cast<unsigned long long>(fault_totals.watchdog_trips),
              clean_campaigns);
  if (integrity) {
    std::printf("in-band detections by stage: H2G=%zu W2B=%zu SWA=%zu "
                "B2W=%zu G2H=%zu  (chunk retries=%llu, lanes "
                "resubmitted=%llu of %zu per retry)\n",
                stage_hist[0], stage_hist[1], stage_hist[2], stage_hist[3],
                stage_hist[4],
                static_cast<unsigned long long>(totals.chunk_retries),
                static_cast<unsigned long long>(totals.lanes_resubmitted),
                chunk);
  }
  if (session.enabled()) {
    if (util::Status s = session.tracer()->write_chrome_trace(trace_path);
        !s.ok()) {
      std::printf("trace write failed: %s\n", s.to_string().c_str());
    } else {
      std::printf("trace written to %s (%zu spans, %llu dropped)\n",
                  trace_path.c_str(), session.tracer()->size(),
                  static_cast<unsigned long long>(
                      session.tracer()->dropped()));
    }
  }
  std::printf("recovered: %s\n", totals.summary().c_str());
  if (interrupted) {
    std::printf("DRILL INTERRUPTED: stopped cleanly on signal (%s); "
                "finished campaigns reconciled\n",
                failed == 0 ? "no failures" : "with failures");
    return failed == 0 ? 130 : 1;
  }
  std::printf("%s\n", failed == 0
                          ? "DRILL PASSED: every lane reconciled with the "
                            "scalar reference"
                          : "DRILL FAILED");
  return failed == 0 ? 0 : 1;
}
