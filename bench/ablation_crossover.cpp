// BPBC x striped crossover sweep — the measurement behind the
// auto-dispatcher (sw/dispatch.hpp). Each region fixes a workload shape
// (scheme, m, n, pairs — and through them the BPBC slice count s) and
// times both production engines head to head; every region's scores are
// gated bit-identical between the engines (and spot-checked against the
// scalar Gotoh reference), so the table measures throughput only.
//
// The regions are chosen to straddle the crossover surface: small-s DNA
// at wide lanes is BPBC territory (one gate layer per slice, amortized
// over every lane), while affine + substitution-matrix protein schemes
// and 32-bit-cell queries are striped territory (per-cell cost flat in
// s). The committed BENCH_crossover.json records a full run on the
// dispatch host; CostModel::measured()'s coefficients were fitted from
// it (regenerate with --emit-model).
//
//   ./ablation_crossover [--reps=R] [--json=BENCH_crossover.json]
//                        [--smoke] [--emit-model]
//
// --smoke shrinks every region to CI size: the bit-identity gates stay
// on, the timing-derived dispatcher-agreement gate is skipped (tiny
// regions are all noise). At full size, any *decisive* region (>= 25%
// margin between the engines) where the cost model picks the slower
// engine fails the run — the model is only allowed to be wrong where it
// barely matters. --emit-model prints a fitted CostModel initializer
// from this run's measurements (and records the fit in the JSON config).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "encoding/alphabet.hpp"
#include "sw/dispatch.hpp"
#include "sw/lane.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scoring.hpp"
#include "sw/striped.hpp"
#include "telemetry/run_report.hpp"
#include "util/checksum.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace swbpbc;

enum class SchemeKind { kDnaLinear, kDnaAffine, kBlosumAffine };

struct Region {
  const char* name;
  SchemeKind kind;
  std::size_t pairs;
  std::size_t m;
  std::size_t n;
};

// The sweep: (m, n, pairs) per scheme family; s follows from the shape.
// Ordered from BPBC-friendly (top) to striped-friendly (bottom).
constexpr Region kRegions[] = {
    {"dna-linear m24", SchemeKind::kDnaLinear, 512, 24, 256},
    {"dna-linear m512", SchemeKind::kDnaLinear, 64, 512, 512},
    {"dna-linear n2048", SchemeKind::kDnaLinear, 64, 64, 2048},
    {"dna-affine m128", SchemeKind::kDnaAffine, 64, 128, 512},
    {"blosum62 m24", SchemeKind::kBlosumAffine, 256, 24, 200},
    {"blosum62 m6000 wide", SchemeKind::kBlosumAffine, 4, 6000, 96},
};

sw::ScoringScheme make_scheme(SchemeKind kind) {
  sw::ScoringScheme scheme;
  switch (kind) {
    case SchemeKind::kDnaLinear:
      scheme = sw::ScoringScheme::from_params({2, 1, 1});
      break;
    case SchemeKind::kDnaAffine:
      scheme.gap_model = sw::GapModel::kAffine;
      scheme.gap_open = 3;
      scheme.gap_extend = 1;
      break;
    case SchemeKind::kBlosumAffine:
      scheme.matrix = sw::blosum62();
      scheme.gap_model = sw::GapModel::kAffine;
      scheme.gap_open = 11;
      scheme.gap_extend = 1;
      break;
  }
  return scheme;
}

struct Measured {
  double bpbc_ms = 0.0;     // best-of-reps wall time, auto lane width
  double striped_ms = 0.0;  // best-of-reps wall time
  double striped_swa_ms = 0.0;  // DP only (profile build excluded)
  double striped_w2b_ms = 0.0;  // profile build
  std::uint64_t scores_fnv = 0;
  sw::DispatchWorkload workload;
};

}  // namespace

int main(int argc, char** argv) {
  util::Options opt(argc, argv);
  const bool smoke = opt.has("smoke");
  const auto reps =
      static_cast<std::size_t>(opt.get_int("reps", smoke ? 1 : 3));
  const sw::LaneWidth resolved = sw::resolve_lane_width(sw::LaneWidth::kAuto);
  const sw::CostModel& model = sw::CostModel::measured();

  // The striped build every region runs: 128-bit vectors, an 8-bit first
  // pass where the scheme fits a byte, then 16- or 32-bit exact cells;
  // each region's RunReport entry names the widths it ran.
  const auto lanes_of = [](unsigned bits) {
    return std::to_string(sw::kStripedVectorBits / bits) + "xu" +
           std::to_string(bits);
  };
  const std::string striped_desc =
      lanes_of(8) + " first pass, " + lanes_of(16) + " / " + lanes_of(32) +
      " exact";
  std::printf("BPBC x striped crossover sweep (BPBC %s lanes, kernel %s; "
              "striped %s; best of %zu reps%s)\n\n",
              sw::lane_width_name(resolved),
              sw::isa_name(sw::kernel_isa(resolved, sw::host_cpu_features())),
              striped_desc.c_str(), reps, smoke ? ", --smoke sizes" : "");

  telemetry::RunReport rep;
  rep.tool = "ablation_crossover";
  rep.config["reps"] = std::to_string(reps);
  rep.config["smoke"] = smoke ? "1" : "0";
  rep.config["lane_width"] = sw::lane_width_name(resolved);

  util::TextTable table({"region", "s", "cells", "bpbc ms", "striped ms",
                         "bpbc ns/c", "striped ns/c", "winner", "model",
                         "agree"});

  std::vector<Measured> measured;
  bool agreement_failed = false;
  util::Xoshiro256 rng(20260809);

  for (const Region& region : kRegions) {
    const std::size_t pairs =
        smoke ? std::max<std::size_t>(2, region.pairs / 16) : region.pairs;
    const std::size_t m = smoke && region.m > 1024 ? 2048 : region.m;
    const std::size_t n = region.n;
    const sw::ScoringScheme scheme = make_scheme(region.kind);
    const encoding::Alphabet& alpha = scheme.alphabet();

    const auto random_seq = [&](std::size_t len) {
      encoding::GenericSequence s(len);
      for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(alpha.size()));
      return s;
    };
    // One query broadcast across the batch — the screening front ends'
    // shape, and the one the striped profile cache is built for.
    const encoding::GenericSequence query = random_seq(m);
    std::vector<encoding::GenericSequence> xs(pairs, query);
    std::vector<encoding::GenericSequence> ys;
    ys.reserve(pairs);
    for (std::size_t k = 0; k < pairs; ++k) ys.push_back(random_seq(n));

    Measured mrow;
    mrow.workload = sw::DispatchWorkload::from(scheme, pairs, m, n, resolved);

    std::vector<std::uint32_t> bpbc_scores;
    for (std::size_t r = 0; r < reps; ++r) {
      util::WallTimer timer;
      const auto scores = sw::try_scheme_max_scores(
          xs, ys, scheme, sw::LaneWidth::kAuto, bulk::Mode::kSerial,
          encoding::TransposeMethod::kPlanned);
      const double ms = timer.elapsed_ms();
      if (!scores.has_value()) {
        std::fprintf(stderr, "%s: bpbc rejected: %s\n", region.name,
                     scores.status().to_string().c_str());
        return 1;
      }
      if (r == 0) {
        bpbc_scores = *scores;
        mrow.bpbc_ms = ms;
      } else {
        mrow.bpbc_ms = std::min(mrow.bpbc_ms, ms);
      }
    }

    sw::StripedProfileCache cache;
    sw::StripedStats stats;
    for (std::size_t r = 0; r < reps; ++r) {
      sw::PhaseTimings t;
      util::WallTimer timer;
      const auto scores = sw::try_striped_max_scores(
          xs, ys, scheme, bulk::Mode::kSerial, r == 0 ? nullptr : &cache, &t,
          r == 0 ? &stats : nullptr);
      const double ms = timer.elapsed_ms();
      if (!scores.has_value()) {
        std::fprintf(stderr, "%s: striped rejected: %s\n", region.name,
                     scores.status().to_string().c_str());
        return 1;
      }
      // The gate that makes the sweep honest: every rep, full vector.
      if (*scores != bpbc_scores) {
        std::fprintf(stderr,
                     "FAIL %s: striped scores differ from BPBC — "
                     "bit-identity is broken\n",
                     region.name);
        return 1;
      }
      if (r == 0 || ms < mrow.striped_ms) {
        mrow.striped_ms = ms;
        mrow.striped_swa_ms = t.swa_ms;
        mrow.striped_w2b_ms = t.w2b_ms;
      }
    }
    // Spot-check both against the scalar Gotoh reference.
    for (std::size_t k = 0; k < pairs; k += std::max<std::size_t>(1, pairs / 3))
      if (bpbc_scores[k] != sw::scheme_max_score(xs[k], ys[k], scheme)) {
        std::fprintf(stderr, "FAIL %s: pair %zu differs from scalar Gotoh\n",
                     region.name, k);
        return 1;
      }
    mrow.scores_fnv = util::fnv1a_span<std::uint32_t>(bpbc_scores);

    const double cells = static_cast<double>(pairs) * static_cast<double>(m) *
                         static_cast<double>(n);
    const bool striped_wins = mrow.striped_ms < mrow.bpbc_ms;
    const double margin = striped_wins ? mrow.bpbc_ms / mrow.striped_ms
                                       : mrow.striped_ms / mrow.bpbc_ms;
    const bool model_striped =
        model.striped_cost_ns(mrow.workload) < model.bpbc_cost_ns(mrow.workload);
    const bool decisive = margin >= 1.25;
    const bool agree = striped_wins == model_striped;
    if (decisive && !agree && !smoke) agreement_failed = true;

    table.add_row(
        {region.name, std::to_string(mrow.workload.slices),
         util::TextTable::num(cells / 1e6, 1) + "M",
         util::TextTable::num(mrow.bpbc_ms, 2),
         util::TextTable::num(mrow.striped_ms, 2),
         util::TextTable::num(mrow.bpbc_ms * 1e6 / cells, 2),
         util::TextTable::num(mrow.striped_ms * 1e6 / cells, 2),
         striped_wins ? "striped" : "bpbc",
         model_striped ? "striped" : "bpbc",
         agree ? "yes" : (decisive ? "NO (decisive)" : "no (noise)")});

    const std::string key = std::string("region.") + region.name;
    rep.config[key + ".winner"] = striped_wins ? "striped" : "bpbc";
    rep.config[key + ".model"] = model_striped ? "striped" : "bpbc";
    rep.config[key + ".margin"] = util::TextTable::num(margin, 3);
    rep.config[key + ".scores_fnv"] = std::to_string(mrow.scores_fnv);
    rep.config[key + ".striped_build"] = sw::striped_build(scheme, m).name();
    rep.config[key + ".striped_escalations"] =
        std::to_string(stats.escalations) + "/" +
        std::to_string(stats.byte_pass_pairs);
    for (const char* engine : {"bpbc", "striped"}) {
      telemetry::RunReportRow row;
      row.impl = std::string(engine) + " " + region.name;
      row.pairs = pairs;
      row.m = m;
      row.n = n;
      row.total_ms = engine[0] == 'b' ? mrow.bpbc_ms : mrow.striped_ms;
      row.gcups = cells / (row.total_ms * 1e-3) / 1e9;
      rep.rows.push_back(row);
    }
    measured.push_back(mrow);
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf("\nscores bit-identical between the engines in every region\n");

  // --emit-model: fit CostModel coefficients from this run. The BPBC fit
  // normalizes to 64 lanes over *padded* pairs (the model prices
  // ceil(pairs / lanes) full words); the two linear-DNA regions with
  // distinct slice counts pin (base, slice), the affine and matrix
  // regions then pin their terms. The striped DP time is modelled as
  // cells * cell_ns + columns * column_ns, so the same two linear
  // regions (short vs long query) separate the per-cell cost from the
  // fixed per-column lazy-F / loop overhead.
  if (opt.has("emit-model")) {
    const auto per_cell64 = [&](const Measured& r) {
      const std::size_t lanes = r.workload.lane_bits;
      const double padded =
          static_cast<double>((r.workload.pairs + lanes - 1) / lanes) *
          static_cast<double>(lanes);
      const double cells = padded * static_cast<double>(r.workload.m) *
                           static_cast<double>(r.workload.n);
      return r.bpbc_ms * 1e6 / cells * static_cast<double>(lanes) / 64.0;
    };
    // Striped DP nanoseconds per cell (profile build excluded).
    const auto striped_cell = [&](const Measured& r) {
      const double cells = static_cast<double>(r.workload.pairs) *
                           static_cast<double>(r.workload.m) *
                           static_cast<double>(r.workload.n);
      return r.striped_swa_ms * 1e6 / cells;
    };
    sw::CostModel fit;
    const Measured& a = measured[0];  // dna-linear m24
    const Measured& b = measured[1];  // dna-linear m512
    const Measured& c = measured[3];  // dna-affine
    const Measured& d = measured[4];  // blosum62 m24
    const Measured& e = measured[5];  // blosum62 wide
    if (b.workload.slices != a.workload.slices) {
      fit.bpbc_slice_ns = (per_cell64(b) - per_cell64(a)) /
                          (b.workload.slices - a.workload.slices);
      fit.bpbc_base_ns = per_cell64(a) - fit.bpbc_slice_ns * a.workload.slices;
      if (fit.bpbc_base_ns < 0.0) fit.bpbc_base_ns = 0.0;
      if (fit.bpbc_slice_ns < 0.0) fit.bpbc_slice_ns = 0.0;
    }
    const double linear_at_c =
        fit.bpbc_base_ns + fit.bpbc_slice_ns * c.workload.slices;
    if (linear_at_c > 0.0)
      fit.bpbc_affine_mul = std::max(1.0, per_cell64(c) / linear_at_c);
    const double matrix_excess =
        per_cell64(d) - (fit.bpbc_base_ns +
                         fit.bpbc_slice_ns * d.workload.slices) *
                            fit.bpbc_affine_mul;
    fit.bpbc_matrix_ns =
        std::max(0.0, matrix_excess /
                          static_cast<double>(1u << d.workload.alphabet_bits));
    // cell + col/m_a = sc(a); cell + col/m_b = sc(b) -> solve.
    const double inv_ma = 1.0 / static_cast<double>(a.workload.m);
    const double inv_mb = 1.0 / static_cast<double>(b.workload.m);
    fit.striped_column_ns =
        std::max(0.0, (striped_cell(a) - striped_cell(b)) / (inv_ma - inv_mb));
    fit.striped_cell_ns = std::max(
        0.05, striped_cell(b) - fit.striped_column_ns * inv_mb);
    fit.striped_wide_mul = std::max(
        1.0, (striped_cell(e) -
              fit.striped_column_ns / static_cast<double>(e.workload.m)) /
                 fit.striped_cell_ns);
    fit.striped_profile_ns = std::max(
        0.01, d.striped_w2b_ms * 1e6 /
                  (static_cast<double>(1u << d.workload.alphabet_bits) *
                   static_cast<double>(d.workload.m)));

    std::printf("\nfitted CostModel (paste into sw/dispatch.hpp):\n"
                "  double bpbc_base_ns = %.2f;\n"
                "  double bpbc_slice_ns = %.2f;\n"
                "  double bpbc_affine_mul = %.2f;\n"
                "  double bpbc_matrix_ns = %.2f;\n"
                "  double striped_cell_ns = %.2f;\n"
                "  double striped_column_ns = %.2f;\n"
                "  double striped_wide_mul = %.2f;\n"
                "  double striped_profile_ns = %.2f;\n",
                fit.bpbc_base_ns, fit.bpbc_slice_ns, fit.bpbc_affine_mul,
                fit.bpbc_matrix_ns, fit.striped_cell_ns,
                fit.striped_column_ns, fit.striped_wide_mul,
                fit.striped_profile_ns);
    const auto put = [&](const char* k, double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", v);
      rep.config[std::string("model.") + k] = buf;
    };
    put("bpbc_base_ns", fit.bpbc_base_ns);
    put("bpbc_slice_ns", fit.bpbc_slice_ns);
    put("bpbc_affine_mul", fit.bpbc_affine_mul);
    put("bpbc_matrix_ns", fit.bpbc_matrix_ns);
    put("striped_cell_ns", fit.striped_cell_ns);
    put("striped_column_ns", fit.striped_column_ns);
    put("striped_wide_mul", fit.striped_wide_mul);
    put("striped_profile_ns", fit.striped_profile_ns);
  }

  const std::string json_path = opt.get("json", "");
  if (!json_path.empty()) {
    if (util::Status s = telemetry::write_run_report(rep, json_path);
        !s.ok()) {
      std::fprintf(stderr, "failed to write run report: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("Run report written to %s\n", json_path.c_str());
  }

  if (agreement_failed) {
    std::fprintf(stderr,
                 "\nFAIL: the cost model picked the slower engine on a "
                 "decisive region (>= 25%% margin) — refit with "
                 "--emit-model and update CostModel in sw/dispatch.hpp\n");
    return 1;
  }
  return 0;
}
