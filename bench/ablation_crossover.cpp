// BPBC x striped crossover sweep — the measurement behind the
// auto-dispatcher (sw/dispatch.hpp). Each region fixes a workload shape
// (scheme, m, n, pairs — and through them the BPBC slice count s) and
// times both production engines head to head; every region's scores are
// gated bit-identical between the engines (and spot-checked against the
// scalar Gotoh reference), so the table measures throughput only.
//
// The regions are chosen to straddle the crossover surface: short-query
// DNA at full lanes is BPBC territory (every gate op amortized over
// every lane), while long queries, affine + substitution-matrix protein
// schemes and thin batches are striped territory (per-cell cost flat in
// s, no padded lanes). The last three regions are protein-search's
// target bins (128 x 96, 48 x 224 and 16 x 448 residues) at a short, a
// mid and a long query. They are appended, never inserted: the regions
// draw from one RNG, so appending keeps every earlier region's data and
// scores_fnv. The committed BENCH_crossover.json records a full run on
// the dispatch host; CostModel::measured()'s coefficients were fitted
// from such runs (regenerate with --emit-model).
//
//   ./ablation_crossover [--reps=R] [--json=BENCH_crossover.json]
//                        [--smoke] [--emit-model]
//
// --smoke shrinks every region to CI size: the bit-identity gates stay
// on, the timing-derived dispatcher-agreement gate is skipped (tiny
// regions are all noise). At full size, any *decisive* region (>= 25%
// margin between the engines) where the cost model picks the slower
// engine fails the run — the model is only allowed to be wrong where it
// barely matters. --emit-model prints a CostModel initializer
// least-squares fitted to this run's phase times (and records the fit
// in the JSON config).
#include <algorithm>
#include <cmath>
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
// The first six run from BPBC-friendly to striped-friendly; the
// protein-search bins follow.
constexpr Region kRegions[] = {
    {"dna-linear m24", SchemeKind::kDnaLinear, 512, 24, 256},
    {"dna-linear m512", SchemeKind::kDnaLinear, 64, 512, 512},
    {"dna-linear n2048", SchemeKind::kDnaLinear, 64, 64, 2048},
    {"dna-affine m128", SchemeKind::kDnaAffine, 64, 128, 512},
    {"blosum62 m24", SchemeKind::kBlosumAffine, 256, 24, 200},
    {"blosum62 m6000 wide", SchemeKind::kBlosumAffine, 4, 6000, 96},
    {"blosum62 bin0 m30", SchemeKind::kBlosumAffine, 128, 30, 96},
    {"blosum62 bin1 m134", SchemeKind::kBlosumAffine, 48, 134, 224},
    {"blosum62 bin2 m600", SchemeKind::kBlosumAffine, 16, 600, 448},
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
  double bpbc_w2b_ms = 0.0;     // W2B of that rep
  double bpbc_swa_ms = 0.0;     // SWA of that rep
  double striped_ms = 0.0;  // best-of-reps wall time
  double striped_swa_ms = 0.0;  // DP only (profile build excluded)
  double striped_profile_ms = 0.0;  // best profile build (uncached reps)
  std::uint64_t scores_fnv = 0;
  sw::DispatchWorkload workload;
};

// Least squares in relative error: the coefficients c >= 0 minimizing
// sum_r ((x[r] . c - y[r]) / y[r])^2 over the rows with y[r] > 0, so a
// 200 ms region weighs no more than a 1 ms one. Non-negativity by
// exhaustive active sets: every subset of the few coefficients is solved
// by its normal equations, and the best feasible solution wins.
std::vector<double> fit_nonneg(const std::vector<std::vector<double>>& x,
                               const std::vector<double>& y) {
  const std::size_t k = x.empty() ? 0 : x.front().size();
  std::vector<double> best(k, 0.0);
  double best_err = -1.0;
  for (unsigned mask = 1; mask < (1u << k); ++mask) {
    std::vector<std::size_t> cols;
    for (std::size_t j = 0; j < k; ++j)
      if ((mask >> j) & 1u) cols.push_back(j);
    const std::size_t q = cols.size();
    // Normal equations A c = b over the chosen columns, rows scaled by
    // 1 / y, solved by Gaussian elimination with partial pivoting.
    std::vector<std::vector<double>> a(q, std::vector<double>(q + 1, 0.0));
    for (std::size_t r = 0; r < y.size(); ++r) {
      if (y[r] <= 0.0) continue;
      for (std::size_t i = 0; i < q; ++i) {
        const double xi = x[r][cols[i]] / y[r];
        for (std::size_t j = 0; j < q; ++j)
          a[i][j] += xi * x[r][cols[j]] / y[r];
        a[i][q] += xi;
      }
    }
    bool singular = false;
    for (std::size_t i = 0; i < q && !singular; ++i) {
      std::size_t pivot = i;
      for (std::size_t r = i + 1; r < q; ++r)
        if (std::abs(a[r][i]) > std::abs(a[pivot][i])) pivot = r;
      std::swap(a[i], a[pivot]);
      if (std::abs(a[i][i]) < 1e-300) {
        singular = true;
        break;
      }
      for (std::size_t r = 0; r < q; ++r) {
        if (r == i) continue;
        const double f = a[r][i] / a[i][i];
        for (std::size_t j = i; j <= q; ++j) a[r][j] -= f * a[i][j];
      }
    }
    if (singular) continue;
    std::vector<double> c(k, 0.0);
    bool feasible = true;
    for (std::size_t i = 0; i < q; ++i) {
      c[cols[i]] = a[i][q] / a[i][i];
      feasible = feasible && c[cols[i]] >= 0.0;
    }
    if (!feasible) continue;
    double err = 0.0;
    for (std::size_t r = 0; r < y.size(); ++r) {
      if (y[r] <= 0.0) continue;
      double pred = 0.0;
      for (std::size_t j = 0; j < k; ++j) pred += x[r][j] * c[j];
      err += (pred / y[r] - 1.0) * (pred / y[r] - 1.0);
    }
    if (best_err < 0.0 || err < best_err) {
      best_err = err;
      best = c;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opt = util::Options::parse_or_exit(
      argc, argv, {"emit-model", "json", "reps", "smoke"});
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
      sw::PhaseTimings t;
      util::WallTimer timer;
      const auto scores = sw::try_scheme_max_scores(
          xs, ys, scheme, sw::LaneWidth::kAuto, bulk::Mode::kSerial,
          encoding::TransposeMethod::kPlanned, &t);
      const double ms = timer.elapsed_ms();
      if (!scores.has_value()) {
        std::fprintf(stderr, "%s: bpbc rejected: %s\n", region.name,
                     scores.status().to_string().c_str());
        return 1;
      }
      if (r == 0) bpbc_scores = *scores;
      if (r == 0 || ms < mrow.bpbc_ms) {
        mrow.bpbc_ms = ms;
        mrow.bpbc_w2b_ms = t.w2b_ms;
        mrow.bpbc_swa_ms = t.swa_ms;
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
      }
      // Reps 0 (no cache) and 1 (a cache miss) build the query profile.
      if (r == 0 || (r == 1 && t.w2b_ms < mrow.striped_profile_ms))
        mrow.striped_profile_ms = t.w2b_ms;
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

  // --emit-model: least-squares fit of every CostModel coefficient over
  // every region, each engine phase against the coefficients that price
  // it: BPBC SWA (cell and mux word ops), BPBC W2B (lane slots), striped
  // DP (cells and text columns) and the striped profile build (a fixed
  // cost plus one entry per symbol and query position, fitted over query
  // lengths from 24 to 6000, so the fixed cost is not smeared into the
  // per-entry term). The model is linear in its coefficients, so the
  // term one multiplies is the model's own price with that coefficient
  // at 1 and every other at 0.
  if (opt.has("emit-model")) {
    using Coefficient = double sw::CostModel::*;
    struct Term {
      const char* name;
      Coefficient coefficient;
    };
    struct Phase {
      double Measured::*ms;
      std::vector<Term> terms;
    };
    const Phase phases[] = {
        {&Measured::bpbc_swa_ms,
         {{"bpbc_op_ns", &sw::CostModel::bpbc_op_ns},
          {"bpbc_mux_op_ns", &sw::CostModel::bpbc_mux_op_ns}}},
        {&Measured::bpbc_w2b_ms,
         {{"bpbc_w2b_ns", &sw::CostModel::bpbc_w2b_ns}}},
        {&Measured::striped_swa_ms,
         {{"striped_cell_ns", &sw::CostModel::striped_cell_ns},
          {"striped_column_ns", &sw::CostModel::striped_column_ns}}},
        {&Measured::striped_profile_ms,
         {{"striped_profile_ns", &sw::CostModel::striped_profile_ns},
          {"striped_profile_base_ns",
           &sw::CostModel::striped_profile_base_ns}}},
    };
    const auto unit_price = [](Coefficient c, const sw::DispatchWorkload& w) {
      sw::CostModel unit{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
      unit.*c = 1.0;
      return unit.bpbc_cost_ns(w) + unit.striped_cost_ns(w);
    };
    sw::CostModel fit;
    std::printf("\nfitted CostModel (paste into sw/dispatch.hpp):\n");
    for (const Phase& phase : phases) {
      std::vector<std::vector<double>> x;
      std::vector<double> y;
      for (const Measured& r : measured) {
        std::vector<double> row;
        for (const Term& t : phase.terms)
          row.push_back(unit_price(t.coefficient, r.workload));
        x.push_back(std::move(row));
        y.push_back(r.*phase.ms * 1e6);
      }
      const std::vector<double> c = fit_nonneg(x, y);
      for (std::size_t i = 0; i < phase.terms.size(); ++i) {
        fit.*phase.terms[i].coefficient = c[i];
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.4g", c[i]);
        std::printf("  double %s = %s;\n", phase.terms[i].name, buf);
        rep.config[std::string("model.") + phase.terms[i].name] = buf;
      }
    }
    // How well the fitted model prices each region's measured total.
    std::printf("\nfitted model / measured (per region): ");
    for (std::size_t i = 0; i < measured.size(); ++i) {
      const Measured& r = measured[i];
      std::printf("%s%s bpbc %.2f striped %.2f", i == 0 ? "" : "; ",
                  kRegions[i].name,
                  fit.bpbc_cost_ns(r.workload) / (r.bpbc_ms * 1e6),
                  fit.striped_cost_ns(r.workload) /
                      ((r.striped_swa_ms + r.striped_profile_ms) * 1e6));
    }
    std::printf("\n");
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
