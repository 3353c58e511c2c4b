/// \file fft.hpp
/// Fast Fourier transform (actor B of the paper's speech-compression
/// application computes an FFT over each input frame).
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace spi::dsp {

using Complex = std::complex<double>;

/// True when n is a power of two (the radix-2 requirement).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// In-place iterative radix-2 decimation-in-time FFT. data.size() must be
/// a power of two.
void fft_inplace(std::span<Complex> data);

/// In-place inverse FFT (includes the 1/N normalization).
void ifft_inplace(std::span<Complex> data);

/// Scalar references for fft_inplace / ifft_inplace: the original
/// butterflies with iterated w *= wlen twiddles. The production path's
/// cached twiddles differ from them by a few ULP (fft.cpp documents the
/// bound); the differential tests and the *Scalar benchmarks call these.
void fft_inplace_reference(std::span<Complex> data);
void ifft_inplace_reference(std::span<Complex> data);

/// Out-of-place convenience wrappers.
[[nodiscard]] std::vector<Complex> fft(std::span<const Complex> data);
[[nodiscard]] std::vector<Complex> ifft(std::span<const Complex> data);

/// FFT of a real signal (zero imaginary parts).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> data);

/// O(N^2) reference DFT, the oracle the tests compare against.
[[nodiscard]] std::vector<Complex> dft_reference(std::span<const Complex> data);

/// Power spectrum |X[k]|^2 of a real frame (zero-padded to the next power
/// of two when needed).
[[nodiscard]] std::vector<double> power_spectrum(std::span<const double> frame);

/// Next power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_power_of_two(std::size_t n);

/// Number of per-size FFT plans (twiddle + bit-reversal tables) currently
/// cached. The cache is bounded (see fft.cpp); exposed for tests.
[[nodiscard]] std::size_t fft_plan_cache_size();

/// Drops every cached FFT plan (tests exercising the cache bound).
void fft_plan_cache_clear();

}  // namespace spi::dsp
