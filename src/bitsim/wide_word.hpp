// Wide lane words: 128/256/512 BPBC instances per word.
//
// The paper's bulk factor is the lane-word width — one machine word carries
// one bit of W independent alignments, so throughput scales linearly with
// W (§IV). The builtin integers cap W at 64; `wide_word<Bits>` grows it to
// 128/256/512 on top of GCC/Clang `__attribute__((vector_size))` vectors,
// the only representation: every compiler that builds this repository
// has the vector extension.
//
// A wide_word behaves like an unsigned integer as far as the BPBC stack
// needs: value-init is zero, construction from uint64_t zero-extends,
// AND/OR/XOR/NOT are lane-wise, and << / >> are full cross-limb funnel
// shifts. Bit k lives in limb k/64 at position k%64, so a wide word is
// bit-compatible with the concatenation of kLimbs uint64_t lane groups —
// the property the wide transpose kernels and the lane-group equivalence
// tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(__GNUC__) && !defined(__clang__)
#error "bitsim::wide_word needs the GNU vector extension (GCC or Clang)"
#endif

namespace swbpbc::bitsim {

namespace detail {

template <unsigned Bytes>
struct vec_repr;  // explicit sizes only: vector_size wants a constant
template <>
struct vec_repr<16> {
  typedef std::uint64_t type __attribute__((vector_size(16)));
};
template <>
struct vec_repr<32> {
  typedef std::uint64_t type __attribute__((vector_size(32)));
};
template <>
struct vec_repr<64> {
  typedef std::uint64_t type __attribute__((vector_size(64)));
};

}  // namespace detail

/// Instruction set a lane word's code is compiled for. The per-ISA kernel
/// translation units (sw/kernel_avx2.cpp, sw/kernel_avx512.cpp) build the
/// kernel templates under -mavx2 / -mavx512f for isa_word<Bits, Isa>:
/// the same bits as simd_word<Bits>, but a type of its own, so every
/// symbol those TUs emit for it is theirs alone and the linker never
/// merges an AVX copy of a template with the baseline one (DESIGN.md
/// decision 25).
enum class Isa : unsigned char { kBaseline, kAvx2, kAvx512 };

namespace detail {

/// The operations of wide_word and isa_word, written once. Word is the
/// derived type (CRTP): every operator takes and returns Word itself, and
/// Word holds the representation `v_` — this base stays empty, because
/// GCC copies a base-class subobject through a stack temporary, which
/// made every wide-word store a store-forwarding stall.
template <class Word, unsigned Bits>
class wide_word_ops {
  static_assert(Bits >= 128 && (Bits & (Bits - 1)) == 0,
                "wide_word: Bits must be a power of two >= 128");

 public:
  static constexpr unsigned kBits = Bits;
  static constexpr unsigned kLimbs = Bits / 64;
  using repr_type = typename vec_repr<Bits / 8>::type;

  /// Truncating view of limb 0 (the low 64 bits). Explicit: narrowing a
  /// wide word silently would hide lane loss.
  explicit constexpr operator std::uint64_t() const { return v(self())[0]; }

  [[nodiscard]] std::uint64_t limb(unsigned t) const { return v(self())[t]; }
  void set_limb(unsigned t, std::uint64_t x) { v(self())[t] = x; }

  friend constexpr Word operator&(const Word& a, const Word& b) {
    Word r{};
    v(r) = v(a) & v(b);
    return r;
  }
  friend constexpr Word operator|(const Word& a, const Word& b) {
    Word r{};
    v(r) = v(a) | v(b);
    return r;
  }
  friend constexpr Word operator^(const Word& a, const Word& b) {
    Word r{};
    v(r) = v(a) ^ v(b);
    return r;
  }
  friend constexpr Word operator~(const Word& a) {
    Word r{};
    v(r) = ~v(a);
    return r;
  }

  /// Cross-limb funnel shifts. Shift counts >= kBits yield zero (unlike
  /// builtin words, where that is UB — generic code never relies on it,
  /// but defined beats undefined).
  friend Word operator<<(const Word& w, std::size_t k) {
    Word r{};
    if (k >= kBits) return r;
    const std::size_t ls = k / 64, bs = k % 64;
    for (std::size_t i = ls; i < kLimbs; ++i) {
      std::uint64_t x = v(w)[i - ls] << bs;
      if (bs != 0 && i - ls > 0) x |= v(w)[i - ls - 1] >> (64 - bs);
      v(r)[i] = x;
    }
    return r;
  }
  friend Word operator>>(const Word& w, std::size_t k) {
    Word r{};
    if (k >= kBits) return r;
    const std::size_t ls = k / 64, bs = k % 64;
    for (std::size_t i = 0; i + ls < kLimbs; ++i) {
      std::uint64_t x = v(w)[i + ls] >> bs;
      if (bs != 0 && i + ls + 1 < kLimbs) x |= v(w)[i + ls + 1] << (64 - bs);
      v(r)[i] = x;
    }
    return r;
  }

  constexpr Word& operator&=(const Word& o) { return self() = self() & o; }
  constexpr Word& operator|=(const Word& o) { return self() = self() | o; }
  constexpr Word& operator^=(const Word& o) { return self() = self() ^ o; }
  Word& operator<<=(std::size_t k) { return self() = self() << k; }
  Word& operator>>=(std::size_t k) { return self() = self() >> k; }

  friend constexpr bool operator==(const Word& a, const Word& b) {
    for (unsigned i = 0; i < kLimbs; ++i) {
      if (v(a)[i] != v(b)[i]) return false;
    }
    return true;
  }

 private:
  constexpr Word& self() { return static_cast<Word&>(*this); }
  constexpr const Word& self() const {
    return static_cast<const Word&>(*this);
  }
  static constexpr repr_type& v(Word& w) { return w.v_; }
  static constexpr const repr_type& v(const Word& w) { return w.v_; }
};

}  // namespace detail

/// An unsigned-integer-like word of Bits lanes (Bits in {128, 256, 512}).
template <unsigned Bits>
class wide_word : public detail::wide_word_ops<wide_word<Bits>, Bits> {
 public:
  // Not user-provided, so value-init (`W{}`, `W w{};`) zero-initializes —
  // which is what lets `constexpr W kZero = word_traits<W>::zero()` work.
  wide_word() = default;

  /// Zero-extending construction from a 64-bit value (limb 0). Implicit on
  /// purpose: generic code writes `W{1}`, `std::vector<W>(n, 0)`,
  /// `scratch.fill(0)` — all of which must keep compiling at wide widths.
  constexpr wide_word(std::uint64_t x) : v_{x} {}  // NOLINT(runtime/explicit)

 private:
  friend detail::wide_word_ops<wide_word, Bits>;
  typename detail::vec_repr<Bits / 8>::type v_;
};

/// The SIMD wide word of a per-ISA kernel build: bit-identical to
/// simd_word<Bits>, distinct in type (and so in every symbol) per Target.
template <unsigned Bits, Isa Target>
class isa_word : public detail::wide_word_ops<isa_word<Bits, Target>, Bits> {
 public:
  isa_word() = default;
  constexpr isa_word(std::uint64_t x) : v_{x} {}  // NOLINT(runtime/explicit)

 private:
  friend detail::wide_word_ops<isa_word, Bits>;
  typename detail::vec_repr<Bits / 8>::type v_;
};

/// The wide word compiled with the build's own flags (the baseline ISA).
template <unsigned Bits>
using simd_word = wide_word<Bits>;

template <class W>
inline constexpr bool is_wide_word_v = false;
template <unsigned Bits>
inline constexpr bool is_wide_word_v<wide_word<Bits>> = true;
template <unsigned Bits, Isa Target>
inline constexpr bool is_wide_word_v<isa_word<Bits, Target>> = true;

/// Limb count: wide words decompose into uint64 lane groups; builtin lane
/// words count as a single (possibly partial) limb.
template <class W>
inline constexpr unsigned lane_limbs_v = 1;
template <class W>
  requires is_wide_word_v<W>
inline constexpr unsigned lane_limbs_v<W> = W::kLimbs;

/// Uniform limb access over builtin and wide lane words (limb t = bits
/// [64t, 64t+64) — for a builtin word only limb 0 exists).
template <class W>
  requires is_wide_word_v<W>
[[nodiscard]] inline std::uint64_t get_limb(const W& w, unsigned t) {
  return w.limb(t);
}
template <class W>
  requires is_wide_word_v<W>
inline void set_limb(W& w, unsigned t, std::uint64_t x) {
  w.set_limb(t, x);
}
[[nodiscard]] constexpr std::uint64_t get_limb(std::uint64_t w, unsigned) {
  return w;
}
[[nodiscard]] constexpr std::uint64_t get_limb(std::uint32_t w, unsigned) {
  return w;
}
constexpr void set_limb(std::uint64_t& w, unsigned, std::uint64_t x) {
  w = x;
}
constexpr void set_limb(std::uint32_t& w, unsigned, std::uint64_t x) {
  w = static_cast<std::uint32_t>(x);
}

}  // namespace swbpbc::bitsim
