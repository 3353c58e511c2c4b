/// \file fir.hpp
/// FIR filtering and multirate helpers (decimation / interpolation).
///
/// Used by the multirate sample-rate-converter example to exercise
/// SPI channels whose static rates exceed 1 — the multirate half of SDF
/// that the paper's two applications (rate-1 after VTS) do not cover.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace spi::dsp {

/// Causal FIR convolution: y[n] = sum_k taps[k] * x[n-k] (zero history
/// before the block).
[[nodiscard]] std::vector<double> fir_filter(std::span<const double> x,
                                             std::span<const double> taps);

/// Scalar reference for fir_filter: the n-outer direct form. The
/// production tap-outer loop performs the same additions in the same
/// order, so the two are bit-identical.
[[nodiscard]] std::vector<double> fir_filter_reference(std::span<const double> x,
                                                       std::span<const double> taps);

/// Windowed-sinc lowpass design. `cutoff` is the normalized cutoff in
/// (0, 0.5) (fraction of the sample rate); `taps` must be odd for a
/// symmetric (linear-phase) filter.
[[nodiscard]] std::vector<double> design_lowpass(std::size_t taps, double cutoff);

/// Keeps every m-th sample starting at `phase`.
[[nodiscard]] std::vector<double> downsample(std::span<const double> x, std::size_t m,
                                             std::size_t phase = 0);

/// Zero-stuffs m-1 zeros after every sample (gain is NOT compensated;
/// follow with a lowpass scaled by m).
[[nodiscard]] std::vector<double> upsample(std::span<const double> x, std::size_t m);

/// Streaming FIR with persistent history — the block-processing form the
/// dataflow actors use so block boundaries are seamless.
class FirState {
 public:
  explicit FirState(std::vector<double> taps);

  [[nodiscard]] const std::vector<double>& taps() const { return taps_; }

  /// Filters one block, carrying history across calls.
  [[nodiscard]] std::vector<double> process(std::span<const double> block);
  /// Scalar reference for process(), bit-identical to it.
  [[nodiscard]] std::vector<double> process_reference(std::span<const double> block);

  void reset();

 private:
  /// [history | block]: the signal one block is filtered over.
  [[nodiscard]] std::vector<double> extend(std::span<const double> block) const;
  /// Slides the history window past `block`.
  void advance(std::span<const double> block);

  std::vector<double> taps_;
  std::vector<double> history_;  ///< last taps-1 input samples
};

}  // namespace spi::dsp
