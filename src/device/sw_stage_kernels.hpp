// Stage kernels of the paper's §V pipeline, shared by the one-shot run
// drivers (sw_kernels.cpp) and the overlapped execution engine
// (engine.cpp). Everything here is an internal building block — the
// kernels are duck-typed launch() factories over bound device buffers —
// and lives in device::detail; the public entry points stay in
// sw_kernels.hpp / engine.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bitops/arith.hpp"
#include "bitsim/wide_transpose.hpp"
#include "device/memory.hpp"
#include "encoding/dna.hpp"
#include "sw/params.hpp"

namespace swbpbc::device::detail {

/// Wordwise packing into a caller-owned buffer: one 2-bit character code
/// per 32-bit word (the paper's assumed host format, Section V). The
/// buffer is cleared first, so a persistent arena reuses its capacity
/// across chunks instead of reallocating.
inline void pack_wordwise_into(std::vector<std::uint32_t>& out,
                               std::span<const encoding::Sequence> seqs,
                               std::size_t length) {
  out.clear();
  out.reserve(seqs.size() * length);
  for (const encoding::Sequence& s : seqs) {
    if (s.size() != length)
      throw std::invalid_argument("sequences must have equal length");
    for (encoding::Base b : s) out.push_back(encoding::code(b));
  }
}

/// Allocating convenience form of pack_wordwise_into.
inline std::vector<std::uint32_t> pack_wordwise(
    std::span<const encoding::Sequence> seqs, std::size_t length) {
  std::vector<std::uint32_t> out;
  pack_wordwise_into(out, seqs, length);
  return out;
}

/// An unbound device buffer: data + stable base address.
template <typename T>
struct Bound {
  std::span<T> data{};
  std::uint64_t base = 0;

  GlobalSpan<T> bind(BlockRecorder* rec) const {
    return GlobalSpan<T>(data, base, rec);
  }
  GlobalSpan<T> bind_slice(std::size_t offset, std::size_t len,
                           BlockRecorder* rec) const {
    return GlobalSpan<T>(data.subspan(offset, len),
                         base + offset * sizeof(T), rec);
  }
};

/// Simple base-address allocator (segment-aligned, non-overlapping).
class Allocator {
 public:
  template <typename T>
  Bound<T> alloc(std::vector<T>& buf) {
    Bound<T> b{std::span<T>(buf), next_};
    const std::uint64_t bytes = buf.size() * sizeof(T);
    next_ += (bytes + kSegmentBytes - 1) / kSegmentBytes * kSegmentBytes +
             kSegmentBytes;
    return b;
  }

 private:
  std::uint64_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Step 2: W2B kernel — each thread bit-transposes the W characters of one
// string position (strided grid loop across the X and Y positions of its
// group).

template <bitsim::LaneWord W>
class W2bKernel {
 public:
  static constexpr unsigned kLanes = bitsim::word_bits_v<W>;

  W2bKernel(std::size_t group, BlockRecorder& rec, unsigned block_dim,
            bitsim::PayloadTranspose<W> plan, std::size_t count,
            std::size_t m, std::size_t n, Bound<std::uint32_t> x_words,
            Bound<std::uint32_t> y_words, Bound<W> x_hi, Bound<W> x_lo,
            Bound<W> y_hi, Bound<W> y_lo)
      : group_(group),
        block_dim_(block_dim),
        plan_(plan),
        count_(count),
        m_(m),
        n_(n),
        x_words_(x_words.bind(&rec)),
        y_words_(y_words.bind(&rec)),
        x_hi_(x_hi.bind_slice(group * m, m, &rec)),
        x_lo_(x_lo.bind_slice(group * m, m, &rec)),
        y_hi_(y_hi.bind_slice(group * n, n, &rec)),
        y_lo_(y_lo.bind_slice(group * n, n, &rec)) {}

  [[nodiscard]] unsigned block_dim() const { return block_dim_; }
  [[nodiscard]] std::size_t num_phases() const {
    return (m_ + n_ + block_dim_ - 1) / block_dim_;
  }

  void step(std::size_t phase, unsigned tid) {
    const std::size_t pos = phase * block_dim_ + tid;
    if (pos >= m_ + n_) return;
    const bool is_x = pos < m_;
    const std::size_t i = is_x ? pos : pos - m_;
    const std::size_t len = is_x ? m_ : n_;
    const GlobalSpan<std::uint32_t>& src = is_x ? x_words_ : y_words_;

    std::array<W, kLanes> scratch{};
    const std::size_t first = group_ * kLanes;
    const std::size_t lanes_used =
        first < count_ ? std::min<std::size_t>(kLanes, count_ - first) : 0;
    for (std::size_t lane = 0; lane < lanes_used; ++lane) {
      scratch[lane] =
          static_cast<W>(src.load((first + lane) * len + i, tid));
    }
    plan_.apply(std::span<W>(scratch));
    if (is_x) {
      x_lo_.store(i, scratch[0], tid);
      x_hi_.store(i, scratch[1], tid);
    } else {
      y_lo_.store(i, scratch[0], tid);
      y_hi_.store(i, scratch[1], tid);
    }
  }

 private:
  std::size_t group_;
  unsigned block_dim_;
  bitsim::PayloadTranspose<W> plan_;
  std::size_t count_;
  std::size_t m_;
  std::size_t n_;
  GlobalSpan<std::uint32_t> x_words_;
  GlobalSpan<std::uint32_t> y_words_;
  GlobalSpan<W> x_hi_;
  GlobalSpan<W> x_lo_;
  GlobalSpan<W> y_hi_;
  GlobalSpan<W> y_lo_;
};

// ---------------------------------------------------------------------------
// Step 3: BPBC wavefront kernel (paper Fig. 2). One block per group of W
// pairs, one thread per pattern row. At phase t thread i computes cell
// (i, j = t - i); the cell value moves to thread i+1 through a
// double-buffered shared-memory slot, and the running maxima are folded
// down the block in a pipelined pass as each thread finishes its row.

template <bitsim::LaneWord W>
struct SwConstants {
  std::vector<W> gap, c1, c2;
  // Affine (Gotoh) gap model: when `affine` is set the kernel runs the
  // three-state H/E/F recurrence with `open`/`extend` instead of the
  // linear sw_cell circuit (`gap` is then unused).
  std::vector<W> open, extend;
  bool affine = false;
  unsigned s = 0;
};

template <bitsim::LaneWord W>
class SwWavefrontKernel {
 public:
  SwWavefrontKernel(std::size_t group, BlockRecorder& rec,
                    const SwConstants<W>& consts, std::size_t m,
                    std::size_t n, Bound<W> x_hi, Bound<W> x_lo,
                    Bound<W> y_hi, Bound<W> y_lo, Bound<W> out_slices)
      : consts_(consts),
        m_(m),
        n_(n),
        s_(consts.s),
        x_hi_(x_hi.bind_slice(group * m, m, &rec)),
        x_lo_(x_lo.bind_slice(group * m, m, &rec)),
        y_hi_(y_hi.bind_slice(group * n, n, &rec)),
        y_lo_(y_lo.bind_slice(group * n, n, &rec)),
        out_(out_slices.bind_slice(group * consts.s, consts.s, &rec)),
        handoff_(2 * m * consts.s, &rec),
        fhand_(consts.affine ? 2 * m * consts.s : 0, &rec),
        rpass_(m * consts.s, &rec),
        left_(m * consts.s, 0),
        prev_up_(m * consts.s, 0),
        e_row_(consts.affine ? m * consts.s : 0, 0),
        rmax_(m * consts.s, 0),
        xh_(m, 0),
        xl_(m, 0),
        up_(consts.s),
        fup_(consts.affine ? consts.s : 0),
        fcell_(consts.affine ? consts.s : 0),
        rin_(consts.s),
        t_(consts.s),
        u_(consts.s),
        r_(consts.s),
        cell_(consts.s) {}

  [[nodiscard]] unsigned block_dim() const {
    return static_cast<unsigned>(m_);
  }
  [[nodiscard]] std::size_t num_phases() const { return m_ + n_ - 1; }

  void step(std::size_t phase, unsigned tid) {
    if (phase < tid) return;
    const std::size_t j = phase - tid;
    if (j >= n_) return;
    const unsigned s = s_;

    // Character slices: x is read once per thread, y once per cell.
    if (j == 0) {
      xh_[tid] = x_hi_.load(tid, tid);
      xl_[tid] = x_lo_.load(tid, tid);
    }
    const W yh = y_hi_.load(j, tid);
    const W yl = y_lo_.load(j, tid);
    const W e =
        static_cast<W>((xh_[tid] ^ yh) | (xl_[tid] ^ yl));

    // up = H[i-1][j], published by thread i-1 in the previous phase. The
    // affine recurrence additionally needs F[i-1][j], which travels down
    // through its own double-buffered relay at the same slot index.
    const std::size_t in_slot = ((phase + 1) % 2) * m_ * s +
                                static_cast<std::size_t>(tid - 1) * s;
    if (tid == 0) {
      std::fill(up_.begin(), up_.end(), W{0});
      if (consts_.affine) std::fill(fup_.begin(), fup_.end(), W{0});
    } else {
      for (unsigned l = 0; l < s; ++l)
        up_[l] = handoff_.load(in_slot + l, tid);
      if (consts_.affine)
        for (unsigned l = 0; l < s; ++l)
          fup_[l] = fhand_.load(in_slot + l, tid);
    }

    const std::span<W> left(left_.data() + tid * s, s);
    const std::span<W> diag(prev_up_.data() + tid * s, s);
    const std::span<W> rmax(rmax_.data() + tid * s, s);

    if (consts_.affine) {
      // Gotoh three-state cell, the same ssub/max chains as the host
      // kernel's affine cell (sw::scheme_cell) so scores stay
      // bit-identical across engines.
      const std::span<W> e_row(e_row_.data() + tid * s, s);
      const std::span<const W> open(consts_.open);
      const std::span<const W> extend(consts_.extend);
      // E[i][j] = max(H[i][j-1] - open, E[i][j-1] - extend); E runs along
      // the row, so it lives in a per-thread register like `left`.
      bitops::ssub_b<W>(std::span<const W>(left), open, std::span<W>(t_));
      bitops::ssub_b<W>(std::span<const W>(e_row), extend, std::span<W>(u_));
      bitops::max_b<W>(std::span<const W>(t_), std::span<const W>(u_), e_row);
      // F[i][j] = max(H[i-1][j] - open, F[i-1][j] - extend).
      bitops::ssub_b<W>(std::span<const W>(up_), open, std::span<W>(t_));
      bitops::ssub_b<W>(std::span<const W>(fup_), extend, std::span<W>(u_));
      bitops::max_b<W>(std::span<const W>(t_), std::span<const W>(u_),
                       std::span<W>(fcell_));
      // H[i][j] = max(diag + w, E, F) (non-negativity is implicit).
      bitops::matching_b<W>(std::span<const W>(diag), e,
                            std::span<const W>(consts_.c1),
                            std::span<const W>(consts_.c2), std::span<W>(r_),
                            std::span<W>(t_), std::span<W>(u_));
      bitops::max_b<W>(std::span<const W>(r_), std::span<const W>(e_row),
                       std::span<W>(t_));
      bitops::max_b<W>(std::span<const W>(t_), std::span<const W>(fcell_),
                       std::span<W>(cell_));
    } else {
      bitops::sw_cell<W>(std::span<const W>(up_), std::span<const W>(left),
                         std::span<const W>(diag), e,
                         std::span<const W>(consts_.gap),
                         std::span<const W>(consts_.c1),
                         std::span<const W>(consts_.c2), std::span<W>(cell_),
                         std::span<W>(t_), std::span<W>(u_),
                         std::span<W>(r_));
    }
    bitops::max_b<W>(std::span<const W>(rmax), std::span<const W>(cell_),
                     rmax);

    // Publish d[i][j] (and, affine, F[i][j]) for thread i+1.
    const std::size_t out_slot = (phase % 2) * m_ * s +
                                 static_cast<std::size_t>(tid) * s;
    for (unsigned l = 0; l < s; ++l)
      handoff_.store(out_slot + l, cell_[l], tid);
    if (consts_.affine)
      for (unsigned l = 0; l < s; ++l)
        fhand_.store(out_slot + l, fcell_[l], tid);

    // Register rotation for the next phase.
    std::copy(up_.begin(), up_.end(), diag.begin());
    std::copy(cell_.begin(), cell_.end(), left.begin());

    // Pipelined running-max reduction at the end of each row.
    if (j == n_ - 1) {
      if (tid > 0) {
        const std::size_t rslot = static_cast<std::size_t>(tid - 1) * s;
        for (unsigned l = 0; l < s; ++l)
          rin_[l] = rpass_.load(rslot + l, tid);
        bitops::max_b<W>(std::span<const W>(rmax),
                         std::span<const W>(rin_), rmax);
      }
      if (tid + 1 < m_) {
        const std::size_t rslot = static_cast<std::size_t>(tid) * s;
        for (unsigned l = 0; l < s; ++l)
          rpass_.store(rslot + l, rmax[l], tid);
      } else {
        for (unsigned l = 0; l < s; ++l) out_.store(l, rmax[l], tid);
      }
    }
  }

 private:
  const SwConstants<W>& consts_;
  std::size_t m_;
  std::size_t n_;
  unsigned s_;
  GlobalSpan<W> x_hi_;
  GlobalSpan<W> x_lo_;
  GlobalSpan<W> y_hi_;
  GlobalSpan<W> y_lo_;
  GlobalSpan<W> out_;
  SharedArray<W> handoff_;  // double-buffered per-row H slots
  SharedArray<W> fhand_;    // affine only: F travels down beside H
  SharedArray<W> rpass_;    // running-max relay slots
  // Per-thread registers (flattened, one s-slice block per thread).
  std::vector<W> left_;
  std::vector<W> prev_up_;
  std::vector<W> e_row_;  // affine only: E runs along the row
  std::vector<W> rmax_;
  std::vector<W> xh_;
  std::vector<W> xl_;
  // Block-local scratch (safe: threads run sequentially within a phase).
  std::vector<W> up_;
  std::vector<W> fup_;
  std::vector<W> fcell_;
  std::vector<W> rin_;
  std::vector<W> t_;
  std::vector<W> u_;
  std::vector<W> r_;
  std::vector<W> cell_;
};

// ---------------------------------------------------------------------------
// Step 4: B2W kernel — one thread per group un-transposes the s score
// slices into W wordwise scores.

template <bitsim::LaneWord W>
class B2wKernel {
 public:
  static constexpr unsigned kLanes = bitsim::word_bits_v<W>;

  B2wKernel(std::size_t group, BlockRecorder& rec,
            bitsim::PayloadTranspose<W> plan, unsigned s,
            std::size_t count, Bound<W> slices,
            Bound<std::uint32_t> scores)
      : group_(group),
        plan_(plan),
        s_(s),
        count_(count),
        slices_(slices.bind_slice(group * s, s, &rec)),
        scores_(scores.bind_slice(group * kLanes, kLanes, &rec)) {}

  [[nodiscard]] unsigned block_dim() const { return 1; }
  [[nodiscard]] std::size_t num_phases() const { return 1; }

  void step(std::size_t, unsigned tid) {
    std::array<W, kLanes> scratch{};
    for (unsigned l = 0; l < s_; ++l) scratch[l] = slices_.load(l, tid);
    plan_.apply(std::span<W>(scratch));
    const std::uint32_t mask =
        s_ >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << s_) - 1);
    const std::size_t first = group_ * kLanes;
    const std::size_t lanes_used =
        first < count_ ? std::min<std::size_t>(kLanes, count_ - first) : 0;
    for (std::size_t lane = 0; lane < lanes_used; ++lane) {
      scores_.store(
          lane,
          static_cast<std::uint32_t>(bitsim::get_limb(scratch[lane], 0)) &
              mask,
          tid);
    }
  }

 private:
  std::size_t group_;
  bitsim::PayloadTranspose<W> plan_;
  unsigned s_;
  std::size_t count_;
  GlobalSpan<W> slices_;
  GlobalSpan<std::uint32_t> scores_;
};

// ---------------------------------------------------------------------------
// Wordwise GPU baseline: one block per pair, integer cells.

class WordwiseKernel {
 public:
  WordwiseKernel(std::size_t pair, BlockRecorder& rec,
                 const sw::ScoreParams& params, std::size_t m,
                 std::size_t n, Bound<std::uint32_t> x_words,
                 Bound<std::uint32_t> y_words,
                 Bound<std::uint32_t> scores)
      : params_(params),
        m_(m),
        n_(n),
        x_(x_words.bind_slice(pair * m, m, &rec)),
        y_(y_words.bind_slice(pair * n, n, &rec)),
        score_(scores.bind_slice(pair, 1, &rec)),
        handoff_(2 * m, &rec),
        rpass_(m, &rec),
        left_(m, 0),
        prev_up_(m, 0),
        rmax_(m, 0),
        xc_(m, 0) {}

  [[nodiscard]] unsigned block_dim() const {
    return static_cast<unsigned>(m_);
  }
  [[nodiscard]] std::size_t num_phases() const { return m_ + n_ - 1; }

  void step(std::size_t phase, unsigned tid) {
    if (phase < tid) return;
    const std::size_t j = phase - tid;
    if (j >= n_) return;

    if (j == 0) xc_[tid] = x_.load(tid, tid);
    const std::uint32_t yc = y_.load(j, tid);
    const std::uint32_t up =
        tid == 0 ? 0 : handoff_.load(((phase + 1) % 2) * m_ + tid - 1, tid);
    const auto ssub = [](std::uint32_t a, std::uint32_t b) {
      return a > b ? a - b : 0u;
    };
    const std::uint32_t diag = prev_up_[tid];
    const std::uint32_t match_val = xc_[tid] == yc
                                        ? diag + params_.match
                                        : ssub(diag, params_.mismatch);
    const std::uint32_t gap_val =
        ssub(std::max(up, left_[tid]), params_.gap);
    const std::uint32_t cell = std::max(match_val, gap_val);
    rmax_[tid] = std::max(rmax_[tid], cell);

    handoff_.store((phase % 2) * m_ + tid, cell, tid);
    prev_up_[tid] = up;
    left_[tid] = cell;

    if (j == n_ - 1) {
      if (tid > 0)
        rmax_[tid] = std::max(rmax_[tid], rpass_.load(tid - 1, tid));
      if (tid + 1 < m_) {
        rpass_.store(tid, rmax_[tid], tid);
      } else {
        score_.store(0, rmax_[tid], tid);
      }
    }
  }

 private:
  sw::ScoreParams params_;
  std::size_t m_;
  std::size_t n_;
  GlobalSpan<std::uint32_t> x_;
  GlobalSpan<std::uint32_t> y_;
  GlobalSpan<std::uint32_t> score_;
  SharedArray<std::uint32_t> handoff_;
  SharedArray<std::uint32_t> rpass_;
  std::vector<std::uint32_t> left_;
  std::vector<std::uint32_t> prev_up_;
  std::vector<std::uint32_t> rmax_;
  std::vector<std::uint32_t> xc_;
};

// Pseudo-block ids feeding the copy-fault streams (H2G / G2H). Far outside
// any real grid so their per-(campaign, block) draws never collide with a
// kernel block's stream.
inline constexpr std::size_t kH2gFaultBlock = ~std::size_t{0} - 1;
inline constexpr std::size_t kG2hFaultBlock = ~std::size_t{0} - 2;

}  // namespace swbpbc::device::detail
