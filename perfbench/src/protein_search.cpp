// protein-search: BLOSUM62 + affine 11/1 database search across the
// BPBC/striped crossover.
//
// Closed loop, one caller thread, serial engines. Each operation scores
// one query (30-600 aa) against a fixed target set binned into uniform-
// length groups; every bin goes through sw::resolve_backend_choice and
// then the engine it picks (sw::try_scheme_max_scores for BPBC,
// sw::try_striped_max_scores with a benchmark-owned StripedProfileCache
// for striped). The query pool is larger than the cache, with skewed
// popularity, so profiles are both reused and evicted. This is the only
// workload that exercises the dispatcher, striped SW and the matrix /
// affine BPBC circuits.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "encoding/alphabet.hpp"
#include "encoding/generic_batch.hpp"
#include "ledger.hpp"
#include "sw/dispatch.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/striped.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ledger {
namespace {

namespace sw = swbpbc::sw;
namespace enc = swbpbc::encoding;
namespace util = swbpbc::util;
namespace tel = swbpbc::telemetry;

struct Bin {
  std::size_t length;
  std::size_t count;
};
// Target set: short targets in a lane-filling bin, long targets in thin
// bins, so the dispatcher sees both sides of the crossover.
constexpr Bin kBins[] = {{96, 128}, {224, 48}, {448, 16}};
constexpr std::size_t kPool = 48;          // distinct queries
constexpr std::size_t kMinQuery = 30;
constexpr std::size_t kMaxQuery = 600;
constexpr std::size_t kCacheCapacity = 16;  // profiles; < kPool
constexpr std::size_t kWarmupStride = 4;    // set-up pass: every 4th query
constexpr int kSetupRepeats = 7;
constexpr double kLimitMs = 60.0;           // per-operation latency limit
constexpr std::size_t kScalarSample = 24;   // pairs re-checked by Gotoh
// Structure (lengths, popularity) is fixed; only contents and issue
// order follow the run seed.
constexpr std::uint64_t kShapeSeed = 0x9a07e1;

sw::ScoringScheme protein_scheme() {
  sw::ScoringScheme s;
  s.matrix = sw::blosum62();
  s.gap_model = sw::GapModel::kAffine;
  s.gap_open = 11;
  s.gap_extend = 1;
  return s;
}

struct Query {
  enc::GenericSequence seq;
  std::size_t multiplicity = 1;  // issues per round (popularity)
  // Per bin: the engine the dispatcher picks, and reference scores from
  // the other engine.
  std::vector<sw::BackendChoice> choice;
  std::vector<std::vector<std::uint32_t>> expected;
};

struct Workload {
  sw::ScoringScheme scheme = protein_scheme();
  sw::LaneWidth width = sw::resolve_lane_width(sw::LaneWidth::kAuto);
  std::vector<std::vector<enc::GenericSequence>> targets;  // per bin
  std::vector<Query> queries;
};

enc::GenericSequence random_protein(util::Xoshiro256& rng, std::size_t len) {
  const std::size_t symbols = enc::protein_alphabet().size();
  enc::GenericSequence s(len);
  for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(symbols));
  return s;
}

Workload make_workload(std::uint64_t seed) {
  Workload w;
  util::Xoshiro256 rng(seed ^ 0x9e07e1ull);
  for (const Bin& b : kBins) {
    std::vector<enc::GenericSequence> bin;
    for (std::size_t k = 0; k < b.count; ++k)
      bin.push_back(random_protein(rng, b.length));
    w.targets.push_back(std::move(bin));
  }
  // Log-spaced lengths; Zipf-like popularity over a fixed permutation of
  // the pool, so popular queries are not all short or all long.
  util::Xoshiro256 shape(kShapeSeed);
  std::vector<std::size_t> rank(kPool);
  for (std::size_t i = 0; i < kPool; ++i) rank[i] = i;
  for (std::size_t i = kPool; i > 1; --i)
    std::swap(rank[i - 1], rank[static_cast<std::size_t>(shape.below(i))]);
  for (std::size_t i = 0; i < kPool; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(kPool - 1);
    const auto len = static_cast<std::size_t>(std::lround(
        static_cast<double>(kMinQuery) *
        std::pow(static_cast<double>(kMaxQuery) / kMinQuery, f)));
    Query q;
    q.seq = random_protein(rng, len);
    q.multiplicity = static_cast<std::size_t>(std::max(
        1.0, std::round(8.0 / std::pow(static_cast<double>(rank[i]) + 1.0,
                                       0.8))));
    w.queries.push_back(std::move(q));
  }
  return w;
}

sw::DispatchWorkload dispatch_workload(const Workload& w, std::size_t bin,
                                       std::size_t m) {
  return sw::DispatchWorkload::from(w.scheme, kBins[bin].count, m,
                                    kBins[bin].length, w.width);
}

// One bin call on the given engine. `timings` receives the engine's own
// phase split (BPBC: W2B/SWA/B2W; striped: profile build as w2b, DP as
// swa).
util::Expected<std::vector<std::uint32_t>> score_bin(
    const Workload& w, const enc::GenericSequence& query, std::size_t bin,
    sw::BackendChoice engine, sw::StripedProfileCache* cache,
    sw::PhaseTimings* timings) {
  const std::vector<enc::GenericSequence> xs(kBins[bin].count, query);
  if (engine == sw::BackendChoice::kStriped)
    return sw::try_striped_max_scores(xs, w.targets[bin], w.scheme,
                                      swbpbc::bulk::Mode::kSerial, cache,
                                      timings);
  return sw::try_scheme_max_scores(xs, w.targets[bin], w.scheme, w.width,
                                   swbpbc::bulk::Mode::kSerial,
                                   enc::TransposeMethod::kPlanned, timings);
}

sw::BackendChoice other(sw::BackendChoice c) {
  return c == sw::BackendChoice::kStriped ? sw::BackendChoice::kBpbc
                                          : sw::BackendChoice::kStriped;
}

bool compute_expected(Workload& w, std::uint64_t seed) {
  for (Query& q : w.queries) {
    for (std::size_t b = 0; b < std::size(kBins); ++b) {
      const sw::BackendChoice chosen = sw::resolve_backend_choice(
          sw::BackendChoice::kAuto, dispatch_workload(w, b, q.seq.size()));
      q.choice.push_back(chosen);
      auto scores = score_bin(w, q.seq, b, other(chosen), nullptr, nullptr);
      if (!scores.has_value()) {
        std::fprintf(stderr, "protein-search: reference failed: %s\n",
                     scores.status().to_string().c_str());
        return false;
      }
      q.expected.push_back(std::move(scores).value());
    }
  }
  util::Xoshiro256 rng(seed ^ 0x6070ull);
  for (std::size_t i = 0; i < kScalarSample; ++i) {
    const auto qi = static_cast<std::size_t>(rng.below(kPool));
    const auto b = static_cast<std::size_t>(rng.below(std::size(kBins)));
    const auto t = static_cast<std::size_t>(rng.below(kBins[b].count));
    if (sw::scheme_max_score(w.queries[qi].seq, w.targets[b][t], w.scheme) !=
        w.queries[qi].expected[b][t]) {
      std::fprintf(stderr,
                   "protein-search: reference disagrees with scalar Gotoh "
                   "(query %zu, bin %zu, target %zu)\n",
                   qi, b, t);
      return false;
    }
  }
  return true;
}

struct BinCall {
  sw::BackendChoice engine = sw::BackendChoice::kBpbc;
  std::size_t m = 0;
  std::size_t bin = 0;
  double ms = 0.0;
  sw::PhaseTimings timings;
  bool profile_built = false;  // striped: the cache missed
};

struct OpRecord {
  double ms = 0.0;
  double cells = 0.0;
  bool ok = false;
};

// Runs one query through every bin; false on any error or wrong score.
bool run_op(const Workload& w, const Query& q, sw::StripedProfileCache& cache,
            std::vector<BinCall>* calls, std::uint64_t* fnv) {
  bool ok = true;
  for (std::size_t b = 0; b < std::size(kBins); ++b) {
    BinCall call;
    call.engine = q.choice[b];
    call.m = q.seq.size();
    call.bin = b;
    const std::uint64_t misses = cache.stats().misses;
    util::WallTimer timer;
    auto scores = score_bin(w, q.seq, b, call.engine, &cache, &call.timings);
    call.ms = timer.elapsed_ms();
    call.profile_built = cache.stats().misses != misses;
    if (!scores.has_value() || *scores != q.expected[b]) {
      ok = false;
    } else if (fnv != nullptr) {
      *fnv = util::fnv1a_span<std::uint32_t>(*scores, *fnv);
    }
    if (calls != nullptr) calls->push_back(call);
  }
  return ok;
}

double op_cells(const Query& q) {
  double cells = 0.0;
  for (const Bin& b : kBins)
    cells += static_cast<double>(q.seq.size() * b.length * b.count);
  return cells;
}

// Traced run only: scores every (query, bin) with both engines and
// compares the dispatcher's pick and its cost model with the measured
// times. Never part of the end-to-end numbers.
void dispatch_side_measure(const Workload& w, Result& result) {
  const sw::CostModel& model = sw::CostModel::measured();
  double chosen_ms = 0.0;
  double best_ms = 0.0;
  std::vector<double> residual;
  for (const Query& q : w.queries) {
    for (std::size_t b = 0; b < std::size(kBins); ++b) {
      double ms[2] = {0.0, 0.0};
      const sw::BackendChoice engines[2] = {sw::BackendChoice::kBpbc,
                                            sw::BackendChoice::kStriped};
      for (int e = 0; e < 2; ++e) {
        util::WallTimer timer;
        auto scores = score_bin(w, q.seq, b, engines[e], nullptr, nullptr);
        ms[e] = timer.elapsed_ms();
        if (!scores.has_value() || *scores != q.expected[b])
          result.correct = false;
      }
      const bool bpbc = q.choice[b] == sw::BackendChoice::kBpbc;
      chosen_ms += bpbc ? ms[0] : ms[1];
      best_ms += std::min(ms[0], ms[1]);
      const sw::DispatchWorkload dw = dispatch_workload(w, b, q.seq.size());
      const double predicted_ns =
          bpbc ? model.bpbc_cost_ns(dw) : model.striped_cost_ns(dw);
      residual.push_back(predicted_ns / ((bpbc ? ms[0] : ms[1]) * 1e6));
    }
  }
  result.set("sw.dispatch.regret", chosen_ms / best_ms, "ratio");
  result.set("sw.dispatch.model_residual_p50", quantile(residual, 0.5),
             "ratio");
}

}  // namespace

Result run_protein_search(const Args& args) {
  Result result;
  std::filesystem::create_directories(args.dir);
  Workload w = make_workload(args.seed);
  if (!compute_expected(w, args.seed)) {
    result.correct = false;
    return result;
  }
  if (args.corrupt_expected) w.queries[0].expected[0][0] ^= 1u;

  // Set-up: a warm-up pass over a fixed subset of the pool, each repeat
  // on a fresh profile cache; the last cache serves the timed loop.
  std::optional<sw::StripedProfileCache> cache;
  std::vector<double> setup_s;
  Phase warmup{"warmup", 0, 0, 0};
  for (int r = 0; r < kSetupRepeats; ++r) {
    cache.emplace(kCacheCapacity);
    util::WallTimer timer;
    for (std::size_t i = 0; i < kPool; i += kWarmupStride) {
      const bool ok = run_op(w, w.queries[i], *cache, nullptr, nullptr);
      ++warmup.sent;
      ++(ok ? warmup.succeeded : warmup.failed);
    }
    setup_s.push_back(timer.elapsed_s());
  }

  tel::TelemetryConfig tcfg;
  tcfg.enabled = args.trace;
  tcfg.trace_capacity = kTraceCapacity;
  tel::Telemetry session(tcfg);
  tel::Tracer* tracer = session.tracer();

  std::vector<std::size_t> round;
  for (std::size_t i = 0; i < kPool; ++i)
    for (std::size_t k = 0; k < w.queries[i].multiplicity; ++k)
      round.push_back(i);
  util::Xoshiro256 order_rng(args.seed ^ 0x0dde5ull);
  std::vector<OpRecord> ops;
  std::vector<BinCall> calls;
  Phase phase{"search", 0, 0, 0};
  std::uint64_t fnv = util::kFnvOffset;
  util::WallTimer run_timer;
  while (run_timer.elapsed_s() < args.seconds) {
    for (std::size_t i = round.size(); i > 1; --i)
      std::swap(round[i - 1],
                round[static_cast<std::size_t>(order_rng.below(i))]);
    for (const std::size_t qi : round) {
      if (run_timer.elapsed_s() >= args.seconds) break;
      const Query& q = w.queries[qi];
      OpRecord op;
      op.cells = op_cells(q);
      const std::uint64_t t0 = util::monotonic_us();
      util::WallTimer timer;
      op.ok = run_op(w, q, *cache, args.trace ? &calls : nullptr, &fnv);
      op.ms = timer.elapsed_ms();
      bench_span(tracer, "search.op", t0, util::monotonic_us());
      ++phase.sent;
      if (!op.ok && phase.failed == 0)
        std::fprintf(stderr, "protein-search: query %zu scored wrong\n", qi);
      ++(op.ok ? phase.succeeded : phase.failed);
      ops.push_back(op);
    }
  }
  report_phases({warmup, phase}, result);
  result.correct = warmup.failed == 0 && phase.failed == 0;
  std::printf("scores_fnv %016llx\n", static_cast<unsigned long long>(fnv));

  std::vector<double> lat, one, cells;
  std::uint64_t within = 0;
  for (const OpRecord& op : ops) {
    lat.push_back(op.ms);
    one.push_back(1.0);
    cells.push_back(op.cells);
    within += op.ok && op.ms <= kLimitMs ? 1 : 0;
  }
  std::printf("samples %zu ops, lane width %s\n", lat.size(),
              sw::lane_width_name(w.width));

  if (!args.trace) {
    result.set("setup_s", quantile(setup_s, 0.5), "s");
    result.set("latency_p50_ms", windowed_quantile(lat, 0.5), "ms");
    result.set("latency_p90_ms", windowed_quantile(lat, 0.9), "ms");
    result.set("latency_p99_ms", windowed_quantile(lat, 0.99), "ms");
    result.set("slo_met_frac",
               static_cast<double>(within) /
                   static_cast<double>(std::max<std::uint64_t>(phase.sent, 1)),
               "ratio");
    result.set("capacity_rps", windowed_rate(one, lat), "1/s");
    result.set("gcups", windowed_rate(cells, lat) / 1e9, "GCUPS");
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  declare_per_layer(result);
  const unsigned lanes = sw::lane_width_bits(w.width);
  std::vector<double> scheme_ns, striped_ns;
  double lane_used = 0.0, lane_padded = 0.0;
  double profile_ms = 0.0;
  std::size_t bpbc_calls = 0, striped_calls = 0, striped_hits = 0;
  for (const BinCall& c : calls) {
    const double pairs = static_cast<double>(kBins[c.bin].count);
    const double call_cells =
        pairs * static_cast<double>(c.m * kBins[c.bin].length);
    if (c.engine == sw::BackendChoice::kBpbc) {
      ++bpbc_calls;
      scheme_ns.push_back(c.timings.swa_ms * 1e6 / call_cells);
      lane_used += pairs;
      lane_padded += static_cast<double>((kBins[c.bin].count + lanes - 1) /
                                         lanes * lanes);
    } else {
      ++striped_calls;
      striped_ns.push_back(c.timings.swa_ms * 1e6 / call_cells);
      profile_ms += c.timings.w2b_ms;
      striped_hits += c.profile_built ? 0 : 1;
    }
  }
  result.set("sw.scheme.swa_ns_per_cell", quantile(scheme_ns, 0.5), "ns");
  result.set("sw.scheme.lane_fill",
             lane_padded > 0.0 ? lane_used / lane_padded : 0.0, "ratio");
  result.set("sw.striped.ns_per_cell", quantile(striped_ns, 0.5), "ns");
  result.set("sw.striped.profile_ms",
             striped_calls > 0
                 ? profile_ms / static_cast<double>(striped_calls)
                 : 0.0,
             "ms");
  result.set("sw.striped.profile_hit_frac",
             striped_calls > 0 ? static_cast<double>(striped_hits) /
                                     static_cast<double>(striped_calls)
                               : 0.0,
             "ratio");
  result.set("sw.dispatch.bpbc_frac",
             static_cast<double>(bpbc_calls) /
                 static_cast<double>(std::max<std::size_t>(calls.size(), 1)),
             "ratio");
  dispatch_side_measure(w, result);

  // Query-side W2B of the lane-filling bin's broadcast batch.
  {
    const Query& q = w.queries[kPool / 2];
    const std::vector<enc::GenericSequence> xs(kBins[0].count, q.seq);
    std::vector<double> per_pair;
    for (int r = 0; r < 9; ++r) {
      util::WallTimer timer;
      const auto batch = enc::transpose_generic_planar<std::uint64_t>(
          xs, w.scheme.alphabet_bits());
      if (batch.count != xs.size()) result.correct = false;
      per_pair.push_back(timer.elapsed_ms() * 1e6 /
                         static_cast<double>(xs.size()));
    }
    result.set("encoding.w2b_ns_per_pair", quantile(per_pair, 0.5), "ns");
  }

  result.set("telemetry.trace_dropped",
             static_cast<double>(tracer->dropped()), "count");
  if (tracer->dropped() != 0) result.correct = false;
  if (util::Status s = tracer->write_chrome_trace(args.dir + "/trace.json");
      !s.ok())
    std::fprintf(stderr, "protein-search: %s\n", s.to_string().c_str());
  return result;
}

}  // namespace ledger
