#include "dsp/fir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/rng.hpp"

namespace spi::dsp {
namespace {

TEST(Fir, ImpulseResponseIsTaps) {
  const std::vector<double> taps{0.5, 0.3, 0.2};
  std::vector<double> x(8, 0.0);
  x[0] = 1.0;
  const auto y = fir_filter(x, taps);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 0.3);
  EXPECT_DOUBLE_EQ(y[2], 0.2);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(Fir, EmptyTapsRejected) {
  EXPECT_THROW((void)fir_filter(std::vector<double>{1.0}, std::vector<double>{}),
               std::invalid_argument);
}

TEST(DesignLowpass, UnityDcGainAndSymmetry) {
  const auto h = design_lowpass(31, 0.125);
  double sum = 0.0;
  for (double v : h) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (std::size_t k = 0; k < h.size() / 2; ++k)
    EXPECT_NEAR(h[k], h[h.size() - 1 - k], 1e-12);  // linear phase
}

TEST(DesignLowpass, AttenuatesStopband) {
  const auto h = design_lowpass(63, 0.1);
  // Probe with a passband tone (0.05) and a stopband tone (0.3).
  std::vector<double> pass(512), stop(512);
  for (std::size_t n = 0; n < 512; ++n) {
    pass[n] = std::sin(2.0 * std::numbers::pi * 0.05 * static_cast<double>(n));
    stop[n] = std::sin(2.0 * std::numbers::pi * 0.30 * static_cast<double>(n));
  }
  auto energy = [](std::span<const double> x) {
    double e = 0;
    for (std::size_t n = 100; n < x.size(); ++n) e += x[n] * x[n];  // skip transient
    return e;
  };
  const double pass_gain = energy(fir_filter(pass, h)) / energy(pass);
  const double stop_gain = energy(fir_filter(stop, h)) / energy(stop);
  EXPECT_GT(pass_gain, 0.9);
  EXPECT_LT(stop_gain, 1e-3);
}

TEST(DesignLowpass, Validation) {
  EXPECT_THROW((void)design_lowpass(10, 0.1), std::invalid_argument);  // even
  EXPECT_THROW((void)design_lowpass(31, 0.0), std::invalid_argument);
  EXPECT_THROW((void)design_lowpass(31, 0.5), std::invalid_argument);
  EXPECT_THROW((void)design_lowpass(1, 0.1), std::invalid_argument);
}

TEST(Resample, DownUpBasics) {
  const std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(downsample(x, 2), (std::vector<double>{0, 2, 4, 6}));
  EXPECT_EQ(downsample(x, 3, 1), (std::vector<double>{1, 4, 7}));
  EXPECT_EQ(upsample(std::vector<double>{1, 2}, 3),
            (std::vector<double>{1, 0, 0, 2, 0, 0}));
  EXPECT_THROW((void)downsample(x, 0), std::invalid_argument);
  EXPECT_THROW((void)downsample(x, 2, 2), std::invalid_argument);
  EXPECT_THROW((void)upsample(x, 0), std::invalid_argument);
}

TEST(FirState, BlockProcessingMatchesWholeSignal) {
  Rng rng(12);
  std::vector<double> x(1000);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const auto taps = design_lowpass(21, 0.2);

  const auto whole = fir_filter(x, taps);
  FirState state(taps);
  std::vector<double> blocked;
  // Uneven block sizes, including blocks smaller than the history.
  std::size_t pos = 0;
  for (std::size_t size : {7u, 64u, 3u, 100u, 1u, 825u}) {
    const auto chunk = state.process(std::span(x).subspan(pos, size));
    blocked.insert(blocked.end(), chunk.begin(), chunk.end());
    pos += size;
  }
  ASSERT_EQ(pos, x.size());
  ASSERT_EQ(blocked.size(), whole.size());
  for (std::size_t n = 0; n < whole.size(); ++n)
    EXPECT_NEAR(blocked[n], whole[n], 1e-12) << "sample " << n;
}

TEST(FirState, ResetClearsHistory) {
  const std::vector<double> taps{1.0, 1.0};
  FirState state(taps);
  (void)state.process(std::vector<double>{5.0});
  state.reset();
  const auto y = state.process(std::vector<double>{1.0});
  EXPECT_DOUBLE_EQ(y[0], 1.0);  // no leakage from the 5.0
  EXPECT_THROW(FirState(std::vector<double>{}), std::invalid_argument);
}


// The tap-outer vectorized path performs the same additions in the
// same k-ascending order per output sample as the scalar reference, so
// the streams must match bit for bit — including across uneven blocks
// where the history buffer is in play.
TEST(Fir, VectorizedMatchesScalarReferenceBitExact) {
  Rng rng(41);
  std::vector<double> taps(31), x(997);
  for (auto& t : taps) t = rng.uniform(-1, 1);
  for (auto& v : x) v = rng.uniform(-1, 1);

  const std::vector<double> scalar_whole = fir_filter_reference(x, taps);
  std::vector<double> scalar_blocked;
  FirState scalar_state(taps);
  for (std::size_t pos = 0; pos < x.size();) {
    const std::size_t size = std::min<std::size_t>(113, x.size() - pos);
    const auto chunk = scalar_state.process_reference(std::span(x).subspan(pos, size));
    scalar_blocked.insert(scalar_blocked.end(), chunk.begin(), chunk.end());
    pos += size;
  }

  EXPECT_EQ(fir_filter(x, taps), scalar_whole);
  FirState state(taps);
  std::vector<double> blocked;
  for (std::size_t pos = 0; pos < x.size();) {
    const std::size_t size = std::min<std::size_t>(113, x.size() - pos);
    const auto chunk = state.process(std::span(x).subspan(pos, size));
    blocked.insert(blocked.end(), chunk.begin(), chunk.end());
    pos += size;
  }
  EXPECT_EQ(blocked, scalar_blocked);
}
}  // namespace
}  // namespace spi::dsp
