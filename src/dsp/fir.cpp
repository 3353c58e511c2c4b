#include "dsp/fir.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace spi::dsp {

namespace {

/// Tap-outer convolution over a contiguous signal: y[n] += taps[k] *
/// sig[n - k], accumulated k-ascending exactly like the scalar n-outer
/// form (so the result is bit-identical), but with a unit-stride inner
/// loop over n that auto-vectorizes. `sig` and `y` may have different
/// lengths; the first `y.size()` outputs are produced, reading
/// sig[offset + n - k] (offset lets FirState filter [history | block]
/// while emitting only the block's span).
void fir_tap_outer(const double* sig, std::size_t offset, std::span<const double> taps,
                   std::span<double> y) {
  for (std::size_t k = 0; k < taps.size(); ++k) {
    const double t = taps[k];
    // y[n] uses sig[offset + n - k]; valid while offset + n >= k.
    const std::size_t first = k > offset ? k - offset : 0;
    const double* src = sig + offset + first - k;
    double* dst = y.data() + first;
    const std::size_t count = y.size() > first ? y.size() - first : 0;
    for (std::size_t n = 0; n < count; ++n) dst[n] += t * src[n];
  }
}

}  // namespace

std::vector<double> fir_filter(std::span<const double> x, std::span<const double> taps) {
  if (taps.empty()) throw std::invalid_argument("fir_filter: empty taps");
  std::vector<double> y(x.size(), 0.0);
  fir_tap_outer(x.data(), 0, taps, y);
  return y;
}

std::vector<double> fir_filter_reference(std::span<const double> x,
                                         std::span<const double> taps) {
  if (taps.empty()) throw std::invalid_argument("fir_filter: empty taps");
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    const std::size_t kmax = std::min(taps.size() - 1, n);
    for (std::size_t k = 0; k <= kmax; ++k) acc += taps[k] * x[n - k];
    y[n] = acc;
  }
  return y;
}

std::vector<double> design_lowpass(std::size_t taps, double cutoff) {
  if (taps < 3 || taps % 2 == 0)
    throw std::invalid_argument("design_lowpass: taps must be odd and >= 3");
  if (cutoff <= 0.0 || cutoff >= 0.5)
    throw std::invalid_argument("design_lowpass: cutoff must be in (0, 0.5)");
  std::vector<double> h(taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t n = 0; n < taps; ++n) {
    const double t = static_cast<double>(n) - mid;
    const double sinc = t == 0.0 ? 2.0 * cutoff
                                 : std::sin(2.0 * std::numbers::pi * cutoff * t) /
                                       (std::numbers::pi * t);
    // Hamming window.
    const double w = 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * static_cast<double>(n) /
                                            static_cast<double>(taps - 1));
    h[n] = sinc * w;
    sum += h[n];
  }
  for (double& v : h) v /= sum;  // unity DC gain
  return h;
}

std::vector<double> downsample(std::span<const double> x, std::size_t m, std::size_t phase) {
  if (m == 0) throw std::invalid_argument("downsample: m must be >= 1");
  if (phase >= m) throw std::invalid_argument("downsample: phase must be < m");
  std::vector<double> y;
  y.reserve(x.size() / m + 1);
  for (std::size_t n = phase; n < x.size(); n += m) y.push_back(x[n]);
  return y;
}

std::vector<double> upsample(std::span<const double> x, std::size_t m) {
  if (m == 0) throw std::invalid_argument("upsample: m must be >= 1");
  std::vector<double> y(x.size() * m, 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) y[n * m] = x[n];
  return y;
}

FirState::FirState(std::vector<double> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirState: empty taps");
  history_.assign(taps_.size() - 1, 0.0);
}

std::vector<double> FirState::extend(std::span<const double> block) const {
  std::vector<double> extended;
  extended.reserve(history_.size() + block.size());
  extended.insert(extended.end(), history_.begin(), history_.end());
  extended.insert(extended.end(), block.begin(), block.end());
  return extended;
}

std::vector<double> FirState::process(std::span<const double> block) {
  // Filter over [history | block] and emit only the block's span.
  std::vector<double> y(block.size(), 0.0);
  fir_tap_outer(extend(block).data(), history_.size(), taps_, y);
  advance(block);
  return y;
}

std::vector<double> FirState::process_reference(std::span<const double> block) {
  const std::vector<double> extended = extend(block);
  std::vector<double> y(block.size(), 0.0);
  for (std::size_t n = 0; n < block.size(); ++n) {
    const std::size_t pos = n + history_.size();
    double acc = 0.0;
    for (std::size_t k = 0; k < taps_.size() && k <= pos; ++k)
      acc += taps_[k] * extended[pos - k];
    y[n] = acc;
  }
  advance(block);
  return y;
}

void FirState::advance(std::span<const double> block) {
  if (block.size() >= history_.size()) {
    std::copy(block.end() - static_cast<std::ptrdiff_t>(history_.size()), block.end(),
              history_.begin());
  } else {
    history_.erase(history_.begin(), history_.begin() + static_cast<std::ptrdiff_t>(block.size()));
    history_.insert(history_.end(), block.begin(), block.end());
  }
}

void FirState::reset() { history_.assign(history_.size(), 0.0); }

}  // namespace spi::dsp
