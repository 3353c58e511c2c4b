/// \file micro_dsp.cpp
/// google-benchmark microbenchmarks of the DSP kernels behind the two
/// applications (host wall-clock, not simulated time): FFT, LU, LPC
/// coefficient paths, prediction error, Huffman, systematic resampling.
#include <benchmark/benchmark.h>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/huffman.hpp"
#include "dsp/linalg.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"

namespace {

using namespace spi::dsp;

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto _ : state) {
    auto copy = x;
    fft_inplace(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->RangeMultiplier(4)->Range(64, 4096)->Complexity(benchmark::oNLogN);

/// The cached-plan FFT path: the first transform of each size builds the
/// twiddle/bit-reversal plan, every iteration after that reuses it (the
/// production profile — the apps transform fixed frame sizes). The copy
/// reuses the scratch vector's capacity, so the loop measures the
/// butterflies, not the allocator.
void BM_FftCached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<Complex> x(n), scratch(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  scratch = x;
  fft_inplace(scratch);  // warm the plan cache
  for (auto _ : state) {
    scratch = x;
    fft_inplace(scratch);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftCached)->RangeMultiplier(4)->Range(64, 4096)->Complexity(benchmark::oNLogN);

/// Scalar-reference twin of BM_FftCached (fft_inplace_reference): the
/// original per-call w *= wlen recurrence. The FftCached/FftScalar pair
/// feeds derived.kernel_simd_speedup in BENCH_results.json.
void BM_FftScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<Complex> x(n), scratch(n);
  for (auto& v : x) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto _ : state) {
    scratch = x;
    fft_inplace_reference(scratch);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftScalar)->RangeMultiplier(4)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_FirFilter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<double> taps(31), x(n);
  for (auto& t : taps) t = rng.uniform(-1, 1);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto _ : state) benchmark::DoNotOptimize(fir_filter(x, taps));
}
BENCHMARK(BM_FirFilter)->Arg(1024)->Arg(8192);

void BM_FirFilterScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<double> taps(31), x(n);
  for (auto& t : taps) t = rng.uniform(-1, 1);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto _ : state) benchmark::DoNotOptimize(fir_filter_reference(x, taps));
}
BENCHMARK(BM_FirFilterScalar)->Arg(1024)->Arg(8192);

void BM_MatVec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.uniform(-1, 1);
  std::vector<double> x(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(a.multiply(x));
}
BENCHMARK(BM_MatVec)->Arg(64)->Arg(256);

void BM_MatVecScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.uniform(-1, 1);
  std::vector<double> x(n, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(a.multiply_reference(x));
}
BENCHMARK(BM_MatVecScalar)->Arg(64)->Arg(256);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.uniform(-1, 1);
  for (std::size_t d = 0; d < n; ++d) a.at(d, d) += 4.0;
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu_solve(a, b));
  }
}
BENCHMARK(BM_LuSolve)->RangeMultiplier(2)->Range(4, 64);

void BM_LpcViaLu(benchmark::State& state) {
  Rng rng(9);
  const auto frame = synthetic_speech(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(lpc_coefficients_lu(frame, 10));
}
BENCHMARK(BM_LpcViaLu)->Arg(256)->Arg(1024);

void BM_LpcViaLevinson(benchmark::State& state) {
  Rng rng(9);
  const auto frame = synthetic_speech(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) benchmark::DoNotOptimize(lpc_coefficients_levinson(frame, 10));
}
BENCHMARK(BM_LpcViaLevinson)->Arg(256)->Arg(1024);

void BM_PredictionError(benchmark::State& state) {
  Rng rng(4);
  const auto frame = synthetic_speech(static_cast<std::size_t>(state.range(0)), rng);
  const auto coeffs = lpc_coefficients_levinson(frame, 10);
  for (auto _ : state)
    benchmark::DoNotOptimize(prediction_error(frame, coeffs, 0, frame.size()));
}
BENCHMARK(BM_PredictionError)->Arg(512)->Arg(2048);

void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::uint64_t> freq(256);
  for (auto& f : freq) f = static_cast<std::uint64_t>(rng.uniform_int(0, 100)) + 1;
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::vector<std::size_t> symbols(static_cast<std::size_t>(state.range(0)));
  for (auto& s : symbols) s = static_cast<std::size_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    BitWriter w;
    code.encode(symbols, w);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_HuffmanEncode)->Arg(1024)->Arg(8192);

/// Scalar-reference twin of BM_HuffmanEncode: per-symbol bit-by-bit
/// put_bits_reference instead of the word-at-a-time packer.
void BM_HuffmanEncodeScalar(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::uint64_t> freq(256);
  for (auto& f : freq) f = static_cast<std::uint64_t>(rng.uniform_int(0, 100)) + 1;
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::vector<std::size_t> symbols(static_cast<std::size_t>(state.range(0)));
  for (auto& s : symbols) s = static_cast<std::size_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    BitWriter w;
    code.encode_reference(symbols, w);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_HuffmanEncodeScalar)->Arg(1024)->Arg(8192);

void BM_SystematicResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(n);
  std::vector<double> particles(n), weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    particles[i] = rng.uniform(0, 10);
    weights[i] = rng.uniform(0.01, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        systematic_resample(particles, weights, static_cast<std::int64_t>(n), 0.5));
  }
}
BENCHMARK(BM_SystematicResample)->Arg(100)->Arg(1000);

void BM_ParticleFilterStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ParticleFilter filter(n, CrackModel{}, 11);
  double obs = 1.0;
  for (auto _ : state) {
    obs += 0.01;
    benchmark::DoNotOptimize(filter.step(obs));
  }
}
BENCHMARK(BM_ParticleFilterStep)->Arg(100)->Arg(300);

}  // namespace

BENCHMARK_MAIN();
