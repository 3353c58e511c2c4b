#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include "dsp/rng.hpp"

namespace spi::dsp {
namespace {

void expect_close(const std::vector<Complex>& a, const std::vector<Complex>& b,
                  double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "bin " << i;
  }
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
  EXPECT_THROW((void)next_power_of_two(0), std::invalid_argument);
}

TEST(Fft, ImpulseIsFlat) {
  std::vector<Complex> x(8, Complex(0, 0));
  x[0] = Complex(1, 0);
  const auto big_x = fft(x);
  for (const Complex& bin : big_x) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t n = 64;
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::cos(2.0 * std::numbers::pi * 5.0 * static_cast<double>(t) / n);
  const auto spectrum = fft_real(x);
  EXPECT_NEAR(std::abs(spectrum[5]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(spectrum[n - 5]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(spectrum[3]), 0.0, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> x(6);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(Fft, EmptyAndSingleton) {
  std::vector<Complex> empty;
  EXPECT_NO_THROW(fft_inplace(empty));
  std::vector<Complex> one{Complex(3, 4)};
  fft_inplace(one);
  EXPECT_NEAR(one[0].real(), 3.0, 1e-12);
  EXPECT_NEAR(one[0].imag(), 4.0, 1e-12);
}

class FftOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftOracle, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  expect_close(fft(x), dft_reference(x), 1e-7);
}

TEST_P(FftOracle, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 3);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  expect_close(ifft(fft(x)), x, 1e-9);
}

TEST_P(FftOracle, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n * 13 + 1);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const auto big_x = fft(x);
  double time_energy = 0, freq_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : big_x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n), 1e-6 * time_energy * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftOracle, ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, Linearity) {
  Rng rng(5);
  std::vector<Complex> a(32), b(32), sum(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = Complex(rng.uniform(-1, 1), 0);
    b[i] = Complex(rng.uniform(-1, 1), 0);
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  const auto fa = fft(a), fb = fft(b), fs = fft(sum);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(fs[i].real(), 2.0 * fa[i].real() + 3.0 * fb[i].real(), 1e-9);
    EXPECT_NEAR(fs[i].imag(), 2.0 * fa[i].imag() + 3.0 * fb[i].imag(), 1e-9);
  }
}

TEST(PowerSpectrum, PadsAndSquares) {
  std::vector<double> frame(48, 0.0);  // not a power of two
  frame[0] = 2.0;
  const auto power = power_spectrum(frame);
  EXPECT_EQ(power.size(), 64u);
  for (double p : power) EXPECT_NEAR(p, 4.0, 1e-9);  // |FFT of impulse 2|^2
}


// The cached-twiddle SoA path is the one documented ULP exception to
// the bit-identity rule: its direct cos/sin twiddles differ from the
// scalar reference's iterated w *= wlen recurrence by a few ULP. The
// differential bound here (1e-10 on unit-magnitude inputs up to
// n=1024) is far tighter than any consumer tolerance in the suite.
TEST(Fft, VectorizedMatchesScalarReferenceWithinUlp) {
  Rng rng(29);
  for (const std::size_t n : {2u, 8u, 64u, 256u, 1024u}) {
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));

    std::vector<Complex> scalar_fwd = x;
    fft_inplace_reference(scalar_fwd);
    std::vector<Complex> scalar_inv = scalar_fwd;
    ifft_inplace_reference(scalar_inv);
    const auto vec_fwd = fft(x);
    const auto vec_inv = ifft(vec_fwd);
    expect_close(vec_fwd, scalar_fwd, 1e-10);
    expect_close(vec_inv, scalar_inv, 1e-10);
  }
}

TEST(Fft, PlanCacheIsBoundedAndReused) {
  fft_plan_cache_clear();
  EXPECT_EQ(fft_plan_cache_size(), 0u);

  Rng rng(31);
  std::vector<Complex> x(64);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), 0);
  (void)fft(x);
  const std::size_t after_first = fft_plan_cache_size();
  EXPECT_GE(after_first, 1u);
  (void)fft(x);       // same size: the cached plan is reused,
  (void)ifft(fft(x)); // forward and inverse share one table
  EXPECT_EQ(fft_plan_cache_size(), after_first);

  for (std::size_t n = 2; n <= 4096; n *= 2) (void)fft(std::vector<Complex>(n));
  EXPECT_LE(fft_plan_cache_size(), 32u);  // the documented bound

  fft_plan_cache_clear();
  EXPECT_EQ(fft_plan_cache_size(), 0u);
}
}  // namespace
}  // namespace spi::dsp
