#include "sw/scoring.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <stdexcept>

#include "encoding/dna.hpp"

namespace swbpbc::sw {

SubstitutionMatrix::SubstitutionMatrix(std::string name,
                                       std::string_view symbols,
                                       std::vector<std::int8_t> entries)
    : name_(std::move(name)),
      symbols_(symbols),
      entries_(std::move(entries)) {
  for (std::int8_t w : entries_) {
    if (w > 0)
      max_positive_ = std::max(max_positive_, static_cast<std::uint32_t>(w));
    if (w < 0)
      max_negative_ = std::max(max_negative_, static_cast<std::uint32_t>(-w));
  }
}

unsigned SubstitutionMatrix::bits() const {
  if (symbols_.size() <= 1) return 1;
  return static_cast<unsigned>(std::bit_width(symbols_.size() - 1));
}

const encoding::Alphabet& SubstitutionMatrix::alphabet() const {
  // Lazily built so an invalid symbol list surfaces through
  // validate_scheme() instead of a constructor throw; thread-safe via the
  // usual double-checked shared_ptr publish (matrices are shared const).
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (!alphabet_)
    alphabet_ = std::make_shared<const encoding::Alphabet>(symbols_);
  return *alphabet_;
}

int SubstitutionMatrix::at(std::uint8_t a, std::uint8_t b) const {
  const std::size_t n = symbols_.size();
  if (a >= n || b >= n)
    throw std::out_of_range("substitution code outside the alphabet");
  return entries_[static_cast<std::size_t>(a) * n + b];
}

std::shared_ptr<const SubstitutionMatrix> blosum62() {
  // The canonical NCBI BLOSUM62 table, stated in the NCBI row order so it
  // can be eyeballed against the published matrix, then permuted onto
  // encoding::protein_alphabet()'s alphabetical code order.
  static constexpr std::string_view kNcbiOrder = "ARNDCQEGHILKMFPSTWYV";
  static constexpr std::array<std::int8_t, 20 * 20> kNcbi = {
      // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
      4,  -1, -2, -2, 0,  -1, -1, 0,  -2, -1, -1, -1, -1, -2, -1, 1,  0,  -3, -2, 0,   // A
      -1, 5,  0,  -2, -3, 1,  0,  -2, 0,  -3, -2, 2,  -1, -3, -2, -1, -1, -3, -2, -3,  // R
      -2, 0,  6,  1,  -3, 0,  0,  0,  1,  -3, -3, 0,  -2, -3, -2, 1,  0,  -4, -2, -3,  // N
      -2, -2, 1,  6,  -3, 0,  2,  -1, -1, -3, -4, -1, -3, -3, -1, 0,  -1, -4, -3, -3,  // D
      0,  -3, -3, -3, 9,  -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1,  // C
      -1, 1,  0,  0,  -3, 5,  2,  -2, 0,  -3, -2, 1,  0,  -3, -1, 0,  -1, -2, -1, -2,  // Q
      -1, 0,  0,  2,  -4, 2,  5,  -2, 0,  -3, -3, 1,  -2, -3, -1, 0,  -1, -3, -2, -2,  // E
      0,  -2, 0,  -1, -3, -2, -2, 6,  -2, -4, -4, -2, -3, -3, -2, 0,  -2, -2, -3, -3,  // G
      -2, 0,  1,  -1, -3, 0,  0,  -2, 8,  -3, -3, -1, -2, -1, -2, -1, -2, -2, 2,  -3,  // H
      -1, -3, -3, -3, -1, -3, -3, -4, -3, 4,  2,  -3, 1,  0,  -3, -2, -1, -3, -1, 3,   // I
      -1, -2, -3, -4, -1, -2, -3, -4, -3, 2,  4,  -2, 2,  0,  -3, -2, -1, -2, -1, 1,   // L
      -1, 2,  0,  -1, -3, 1,  1,  -2, -1, -3, -2, 5,  -1, -3, -1, 0,  -1, -3, -2, -2,  // K
      -1, -1, -2, -3, -1, 0,  -2, -3, -2, 1,  2,  -1, 5,  0,  -2, -1, -1, -1, -1, 1,   // M
      -2, -3, -3, -3, -2, -3, -3, -3, -1, 0,  0,  -3, 0,  6,  -4, -2, -2, 1,  3,  -1,  // F
      -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7,  -1, -1, -4, -3, -2,  // P
      1,  -1, 1,  0,  -1, 0,  0,  0,  -1, -2, -2, 0,  -1, -2, -1, 4,  1,  -3, -2, -2,  // S
      0,  -1, 0,  -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1,  5,  -2, -2, 0,   // T
      -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1,  -4, -3, -2, 11, 2,  -3,  // W
      -2, -2, -2, -3, -2, -1, -2, -3, 2,  -1, -1, -2, -1, 3,  -3, -2, -2, 2,  7,  -1,  // Y
      0,  -3, -3, -3, -1, -2, -2, -3, -3, 3,  1,  -2, 1,  -1, -2, -2, 0,  -3, -1, 4,   // V
  };

  static const std::shared_ptr<const SubstitutionMatrix> matrix = [] {
    const encoding::Alphabet& proteins = encoding::protein_alphabet();
    const std::size_t n = proteins.size();
    std::vector<std::int8_t> entries(n * n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint8_t a = proteins.code(kNcbiOrder[i]);
        const std::uint8_t b = proteins.code(kNcbiOrder[j]);
        entries[static_cast<std::size_t>(a) * n + b] = kNcbi[i * 20 + j];
      }
    }
    std::string symbols;
    for (std::uint8_t c = 0; c < n; ++c)
      symbols.push_back(proteins.symbol(c));
    return std::make_shared<const SubstitutionMatrix>(
        "blosum62", symbols, std::move(entries));
  }();
  return matrix;
}

const encoding::Alphabet& ScoringScheme::alphabet() const {
  return matrix ? matrix->alphabet() : encoding::dna_alphabet();
}

unsigned ScoringScheme::alphabet_bits() const {
  return matrix ? matrix->bits() : encoding::kBitsPerBase;
}

std::uint32_t ScoringScheme::max_positive() const {
  return matrix ? matrix->max_positive() : match;
}

std::uint32_t ScoringScheme::max_negative() const {
  return matrix ? matrix->max_negative() : mismatch;
}

std::string scheme_name(const ScoringScheme& scheme) {
  std::string name =
      scheme.gap_model == GapModel::kAffine ? "affine/" : "linear/";
  if (scheme.matrix) {
    name += scheme.matrix->name().empty() ? "matrix" : scheme.matrix->name();
  } else {
    name += "match-mismatch";
  }
  return name;
}

util::Status validate_scheme(const ScoringScheme& scheme,
                             std::string_view field) {
  const std::string f(field);
  if (scheme.gap_open == 0)
    return util::Status::invalid_input(f + ".gap_open must be positive");
  if (scheme.gap_model == GapModel::kAffine) {
    if (scheme.gap_extend == 0)
      return util::Status::invalid_input(f +
                                         ".gap_extend must be positive");
    if (scheme.gap_extend > scheme.gap_open)
      return util::Status::invalid_input(
          f + ".gap_extend (" + std::to_string(scheme.gap_extend) +
          ") must not exceed " + f + ".gap_open (" +
          std::to_string(scheme.gap_open) +
          "): opening a gap cannot be cheaper than extending one");
  }
  if (scheme.matrix == nullptr) {
    if (scheme.match == 0)
      return util::Status::invalid_input(f + ".match must be positive");
    return util::Status{};
  }
  const SubstitutionMatrix& m = *scheme.matrix;
  if (m.size() < 2 || m.size() > 256)
    return util::Status::invalid_input(
        f + ".matrix alphabet has " + std::to_string(m.size()) +
        " symbols, outside [2, 256]");
  if (!m.shape_ok())
    return util::Status::invalid_input(
        f + ".matrix shape mismatch: " + std::to_string(m.entries().size()) +
        " entries for " + std::to_string(m.size()) + " symbols (need " +
        std::to_string(m.size() * m.size()) + ")");
  // A duplicate or otherwise unrepresentable symbol list surfaces here as
  // a typed error rather than a constructor throw at use time.
  try {
    (void)m.alphabet();
  } catch (const std::invalid_argument& e) {
    return util::Status::invalid_input(f + ".matrix symbols are invalid: " +
                                       e.what());
  }
  if (m.max_positive() == 0)
    return util::Status::invalid_input(
        f + ".matrix must contain at least one positive entry "
            "(every local alignment would score 0)");
  return util::Status{};
}

util::Status validate_codes(std::span<const encoding::GenericSequence> seqs,
                            const ScoringScheme& scheme, const char* side) {
  const std::size_t sigma = scheme.alphabet().size();
  const auto bad = encoding::find_code_at_least(seqs, sigma);
  if (!bad) return {};
  return util::Status::invalid_input(
      std::string(side) + "[" + std::to_string(bad->seq) + "][" +
      std::to_string(bad->index) + "] code " + std::to_string(bad->code) +
      " is outside the scheme's alphabet (" + std::to_string(sigma) +
      " symbols)");
}

unsigned scheme_required_slices(const ScoringScheme& scheme, std::size_t m,
                                std::size_t n) {
  const std::size_t shorter = m < n ? m : n;
  const std::uint64_t max_score =
      static_cast<std::uint64_t>(scheme.max_positive()) * shorter;
  unsigned s = max_score == 0
                   ? 1
                   : static_cast<unsigned>(std::bit_width(max_score));
  const std::uint32_t max_const =
      std::max({scheme.max_positive(), scheme.max_negative(),
                scheme.gap_open,
                scheme.affine() ? scheme.gap_extend : 0u});
  const auto const_bits = static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(max_const)));
  if (const_bits > s) s = const_bits;
  if (s > 32)
    throw std::invalid_argument("score range exceeds 32 bit slices");
  return s;
}

std::uint64_t fingerprint_scheme(const ScoringScheme& scheme,
                                 std::uint64_t h) {
  if (scheme.params_expressible()) {
    h = util::fnv1a_value(scheme.match, h);
    h = util::fnv1a_value(scheme.mismatch, h);
    return util::fnv1a_value(scheme.gap_open, h);
  }
  // Every other scheme gets a domain tag so it can never collide with a
  // linear-uniform fingerprint of coincidentally equal fields.
  h = util::fnv1a_value(std::uint64_t{0x5343484d}, h);  // "SCHM"
  h = util::fnv1a_value(static_cast<std::uint32_t>(scheme.gap_model), h);
  h = util::fnv1a_value(scheme.gap_open, h);
  h = util::fnv1a_value(scheme.gap_extend, h);
  if (scheme.matrix == nullptr) {
    h = util::fnv1a_value(std::uint32_t{0}, h);
    h = util::fnv1a_value(scheme.match, h);
    return util::fnv1a_value(scheme.mismatch, h);
  }
  const SubstitutionMatrix& m = *scheme.matrix;
  h = util::fnv1a_value(std::uint32_t{1}, h);
  h = util::fnv1a_value(static_cast<std::uint64_t>(m.size()), h);
  for (char c : m.symbols())
    h = util::fnv1a_value(static_cast<std::uint8_t>(c), h);
  for (std::int8_t w : m.entries())
    h = util::fnv1a_value(static_cast<std::uint8_t>(w), h);
  return h;
}

}  // namespace swbpbc::sw
