#include "sw/dispatch.hpp"

#include <bit>
#include <cstdlib>
#include <memory>
#include <string>

#include "bitops/arith.hpp"
#include "sw/backend.hpp"
#include "sw/striped.hpp"

namespace swbpbc::sw {

const char* backend_choice_name(BackendChoice choice) {
  switch (choice) {
    case BackendChoice::kAuto: return "auto";
    case BackendChoice::kBpbc: return "bpbc";
    case BackendChoice::kStriped: return "striped";
  }
  return "?";
}

std::optional<BackendChoice> parse_backend_choice(std::string_view s) {
  if (s == "auto") return BackendChoice::kAuto;
  if (s == "bpbc") return BackendChoice::kBpbc;
  if (s == "striped") return BackendChoice::kStriped;
  return std::nullopt;
}

util::Expected<std::optional<BackendChoice>> parse_forced_backend(
    const char* value) {
  if (value == nullptr || *value == '\0')
    return std::optional<BackendChoice>{};
  const std::optional<BackendChoice> parsed = parse_backend_choice(value);
  if (!parsed) {
    return util::Status::invalid_input(
        std::string("SWBPBC_FORCE_BACKEND: unknown backend \"") + value +
        "\" (expected bpbc|striped|auto)");
  }
  return std::optional<BackendChoice>(parsed);
}

std::optional<BackendChoice> forced_backend_choice() {
  // Read and validated once: a screen resolves its engine per run, and a
  // mid-run env change must not flip it (the lane-width override rule).
  static const std::optional<BackendChoice> cached =
      parse_forced_backend(std::getenv("SWBPBC_FORCE_BACKEND")).value();
  return cached;
}

DispatchWorkload DispatchWorkload::from(const ScoringScheme& scheme,
                                        std::size_t pairs, std::size_t m,
                                        std::size_t n,
                                        LaneWidth resolved_width) {
  DispatchWorkload w;
  w.pairs = pairs;
  w.m = m;
  w.n = n;
  w.slices = scheme_required_slices(scheme, m, n);
  w.alphabet_bits = scheme.alphabet_bits();
  w.symbols = static_cast<unsigned>(scheme.alphabet().size());
  w.lane_bits = lane_width_bits(resolved_width);
  w.affine = scheme.affine();
  w.matrix = !scheme.uniform();
  if (w.matrix)
    w.mux_planes =
        static_cast<unsigned>(std::bit_width(scheme.matrix->max_positive()) +
                              std::bit_width(scheme.matrix->max_negative()));
  return w;
}

double CostModel::bpbc_cost_ns(const DispatchWorkload& w) const {
  const std::size_t lanes = w.lane_bits > 0 ? w.lane_bits : 64;
  const double words = static_cast<double>((w.pairs + lanes - 1) / lanes);
  const double word_cells =
      words * static_cast<double>(w.m) * static_cast<double>(w.n);
  const double cell_ops = static_cast<double>(
      bitops::ops_scheme_cell(w.slices, w.alphabet_bits, w.matrix, w.affine));
  const double mux_ops =
      w.matrix ? static_cast<double>(
                     bitops::ops_matrix_mux(w.symbols, w.mux_planes))
               : 0.0;
  const double lane_slots = words * static_cast<double>(lanes) *
                            static_cast<double>(w.m + w.n);
  return word_cells * (cell_ops * bpbc_op_ns + mux_ops * bpbc_mux_op_ns) +
         lane_slots * bpbc_w2b_ns;
}

double CostModel::striped_cost_ns(const DispatchWorkload& w) const {
  const double cells = static_cast<double>(w.pairs) *
                       static_cast<double>(w.m) * static_cast<double>(w.n);
  const double columns =
      static_cast<double>(w.pairs) * static_cast<double>(w.n);
  // One profile per distinct query; the screen front ends broadcast one
  // query across the batch, so charge a single build.
  const double profile =
      striped_profile_base_ns +
      striped_profile_ns * static_cast<double>(w.symbols) *
          static_cast<double>(w.m);
  return cells * striped_cell_ns + columns * striped_column_ns + profile;
}

const CostModel& CostModel::measured() {
  static const CostModel model;  // the fitted defaults (see dispatch.hpp)
  return model;
}

BackendChoice resolve_backend_choice(BackendChoice requested,
                                     const DispatchWorkload& workload,
                                     const CostModel& model) {
  const BackendChoice effective = forced_backend_choice().value_or(requested);
  if (effective != BackendChoice::kAuto) return effective;
  return model.striped_cost_ns(workload) < model.bpbc_cost_ns(workload)
             ? BackendChoice::kStriped
             : BackendChoice::kBpbc;
}

DispatchedBackend make_dispatch_backend(const ScoringScheme& scheme,
                                        LaneWidth width, bulk::Mode mode,
                                        BackendChoice requested,
                                        const DispatchWorkload& workload) {
  const CostModel& model = CostModel::measured();
  DispatchedBackend out;
  out.choice = resolve_backend_choice(requested, workload, model);
  out.bpbc_cost_ns = model.bpbc_cost_ns(workload);
  out.striped_cost_ns = model.striped_cost_ns(workload);
  out.backend = out.choice == BackendChoice::kStriped
                    ? make_striped_backend(scheme, mode)
                    : make_host_backend(scheme, width, mode);
  return out;
}

}  // namespace swbpbc::sw
