/// \file speech_compression.cpp
/// Application 1 of the paper end to end: LPC-based acoustic data
/// compression (Section 5.2). Runs the sequential A..E reference codec
/// on a synthetic speech-like signal, then executes the parallelized
/// error-generation actor D across n PEs through the SPI fabric —
/// functionally (bit-identical errors) and on the timed platform model
/// (the figure-6 experiment at one operating point).
#include <cstdio>

#include "apps/speech_app.hpp"
#include "dsp/lpc.hpp"
#include "dsp/rng.hpp"

int main() {
  using namespace spi;

  apps::SpeechParams params;
  params.frame_size = 512;
  params.order = 10;

  dsp::Rng rng(2008);
  const std::vector<double> signal = dsp::synthetic_speech(16 * params.frame_size, rng);

  // --- sequential reference: the full A..E pipeline ---------------------
  apps::SpeechCompressor codec(params);
  const apps::CompressionResult result = codec.compress(signal);
  std::printf("LPC speech compression (frame %zu, order %zu):\n", params.frame_size,
              params.order);
  std::printf("  raw        : %llu bits\n", static_cast<unsigned long long>(result.raw_bits));
  std::printf("  compressed : %llu bits (ratio %.2f:1)\n",
              static_cast<unsigned long long>(result.compressed_bits), result.ratio());
  std::printf("  SNR        : %.1f dB\n\n", result.snr_db);

  // --- parallel actor D over the SPI fabric -----------------------------
  const std::span<const double> frame(signal.data(), params.frame_size);
  const std::vector<double> coeffs = codec.frame_coefficients(frame);
  const std::vector<double> reference = codec.frame_errors(frame, coeffs);

  for (std::int32_t n : {1, 2, 4}) {
    apps::ErrorGenApp app(n, params);
    const std::vector<double> parallel = app.compute_errors_parallel(frame, coeffs);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i)
      max_diff = std::max(max_diff, std::abs(reference[i] - parallel[i]));

    const apps::SpeechTimingModel timing;
    const sim::ExecStats stats = app.run_timed(params.frame_size, params.order, timing, 200);
    const sim::ClockModel clock{timing.clock_mhz};
    std::printf("n=%d PEs: parallel errors match reference (max |diff| = %.2e); "
                "timed period %.1f us/frame, %lld msgs/iter\n",
                n, max_diff,
                clock.to_microseconds(static_cast<sim::SimTime>(stats.steady_period_cycles)),
                static_cast<long long>((stats.data_messages + stats.sync_messages) /
                                       stats.iteration_complete.size()));
    std::printf("%s", app.system().plan().report().c_str());
  }
  return 0;
}
