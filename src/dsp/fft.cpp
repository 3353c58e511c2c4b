#include "dsp/fft.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

namespace spi::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  if (n == 0) throw std::invalid_argument("next_power_of_two: n must be >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

/// Scalar reference transform. Recomputes wlen powers per butterfly —
/// kept verbatim as the differential-testing baseline.
void transform_scalar(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& x : data) x *= inv_n;
  }
}

/// Precomputed per-size tables: the bit-reversal permutation and the
/// forward twiddles w_k = exp(-2*pi*i*k/len) for every stage, concatenated
/// (stage len has len/2 entries at offset len/2 - 1; n - 1 entries total).
/// Twiddles come from direct cos/sin per index instead of the scalar
/// path's iterated w *= wlen product, so cached results differ from the
/// reference by at most a few ULP per butterfly (the iterated product
/// accumulates ~O(len) rounding; direct evaluation is the more accurate
/// of the two). The speech parity test is the end-to-end gate.
struct FftPlan {
  std::size_t n = 0;
  std::vector<std::uint32_t> bitrev;  // bitrev[i] = bit-reversed index of i
  std::vector<double> wre, wim;       // forward twiddles, all stages
};

std::shared_ptr<const FftPlan> make_plan(std::size_t n) {
  auto plan = std::make_shared<FftPlan>();
  plan->n = n;
  plan->bitrev.resize(n);
  plan->bitrev[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan->bitrev[i] = static_cast<std::uint32_t>(j);
  }
  plan->wre.resize(n - 1);
  plan->wim.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    double* wre = plan->wre.data() + (half - 1);
    double* wim = plan->wim.data() + (half - 1);
    const double step = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = step * static_cast<double>(k);
      wre[k] = std::cos(angle);
      wim[k] = std::sin(angle);
    }
  }
  return plan;
}

// Bounded plan cache: one entry per FFT size seen. Real applications use
// a handful of sizes (the paper apps use one), so the bound exists only
// to keep a size-sweeping caller from growing the map without limit —
// on overflow the cache drops an arbitrary other entry first.
constexpr std::size_t kMaxCachedPlans = 32;
std::mutex g_plan_mutex;
std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>>& plan_cache() {
  static auto* cache =
      new std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>>();
  return *cache;
}

std::shared_ptr<const FftPlan> get_plan(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  auto& cache = plan_cache();
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  if (cache.size() >= kMaxCachedPlans) cache.erase(cache.begin());
  auto plan = make_plan(n);
  cache.emplace(n, plan);
  return plan;
}

/// Cached-plan transform: gathers into structure-of-arrays scratch through
/// the precomputed permutation, then runs a flat butterfly loop over
/// separate re/im arrays that the auto-vectorizer turns into SIMD (unit
/// stride, no complex-number abstraction, no data-dependent w recurrence).
void transform_vectorized(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  const auto plan = get_plan(n);

  thread_local std::vector<double> scratch;
  scratch.resize(2 * n);
  double* re = scratch.data();
  double* im = scratch.data() + n;

  const std::uint32_t* rev = plan->bitrev.data();
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = data[rev[i]].real();
    im[i] = data[rev[i]].imag();
  }

  // sign folds the conjugation for the inverse transform into the twiddle
  // imaginary part; the tables always hold forward twiddles.
  const double sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wre = plan->wre.data() + (half - 1);
    const double* wim = plan->wim.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      double* ar = re + i;
      double* ai = im + i;
      double* br = ar + half;
      double* bi = ai + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = wre[k];
        const double wi = sign * wim[k];
        const double vr = br[k] * wr - bi[k] * wi;
        const double vi = br[k] * wi + bi[k] * wr;
        const double ur = ar[k];
        const double ui = ai[k];
        ar[k] = ur + vr;
        ai[k] = ui + vi;
        br[k] = ur - vr;
        bi[k] = ui - vi;
      }
    }
  }

  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = Complex(re[i] * inv_n, im[i] * inv_n);
  } else {
    for (std::size_t i = 0; i < n; ++i) data[i] = Complex(re[i], im[i]);
  }
}

/// Validates the size; false when there is nothing to transform (n <= 1
/// is the identity).
bool needs_transform(std::span<const Complex> data) {
  if (data.size() > 1 && !is_power_of_two(data.size()))
    throw std::invalid_argument("fft: size must be a power of two");
  return data.size() > 1;
}

}  // namespace

std::size_t fft_plan_cache_size() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  return plan_cache().size();
}

void fft_plan_cache_clear() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  plan_cache().clear();
}

void fft_inplace(std::span<Complex> data) {
  if (needs_transform(data)) transform_vectorized(data, /*inverse=*/false);
}
void ifft_inplace(std::span<Complex> data) {
  if (needs_transform(data)) transform_vectorized(data, /*inverse=*/true);
}
void fft_inplace_reference(std::span<Complex> data) {
  if (needs_transform(data)) transform_scalar(data, /*inverse=*/false);
}
void ifft_inplace_reference(std::span<Complex> data) {
  if (needs_transform(data)) transform_scalar(data, /*inverse=*/true);
}

std::vector<Complex> fft(std::span<const Complex> data) {
  std::vector<Complex> out(data.begin(), data.end());
  fft_inplace(out);
  return out;
}

std::vector<Complex> ifft(std::span<const Complex> data) {
  std::vector<Complex> out(data.begin(), data.end());
  ifft_inplace(out);
  return out;
}

std::vector<Complex> fft_real(std::span<const double> data) {
  std::vector<Complex> out;
  out.reserve(data.size());
  for (double x : data) out.emplace_back(x, 0.0);
  fft_inplace(out);
  return out;
}

std::vector<Complex> dft_reference(std::span<const Complex> data) {
  const std::size_t n = data.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += data[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> power_spectrum(std::span<const double> frame) {
  const std::size_t n = next_power_of_two(frame.size());
  std::vector<Complex> padded(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < frame.size(); ++i) padded[i] = Complex(frame[i], 0.0);
  fft_inplace(padded);
  std::vector<double> power(n);
  for (std::size_t k = 0; k < n; ++k) power[k] = std::norm(padded[k]);
  return power;
}

}  // namespace spi::dsp
