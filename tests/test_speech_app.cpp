#include "apps/speech_app.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"
#include "dsp/rng.hpp"

namespace spi::apps {
namespace {

SpeechParams small_params() {
  SpeechParams p;
  p.frame_size = 128;
  p.max_frame_size = 512;
  p.order = 8;
  p.max_order = 12;
  return p;
}

TEST(SpeechCompressor, ValidatesParameters) {
  SpeechParams p = small_params();
  p.frame_size = 0;
  EXPECT_THROW(SpeechCompressor{p}, std::invalid_argument);
  p = small_params();
  p.frame_size = p.max_frame_size + 1;
  EXPECT_THROW(SpeechCompressor{p}, std::invalid_argument);
  p = small_params();
  p.order = p.frame_size;
  EXPECT_THROW(SpeechCompressor{p}, std::invalid_argument);
}

TEST(SpeechCompressor, SpectralCoefficientsMatchDirectPath) {
  // Actor B+C (FFT autocorrelation + LU) must agree with the direct
  // time-domain reference on the same windowed frame.
  dsp::Rng rng(21);
  const auto signal = dsp::synthetic_speech(128, rng);
  const SpeechCompressor codec(small_params());
  const auto spectral = codec.frame_coefficients(signal);

  std::vector<double> windowed(signal.begin(), signal.end());
  dsp::hamming_window(windowed);
  const auto direct = dsp::lpc_coefficients_lu(windowed, 8);
  ASSERT_EQ(spectral.size(), direct.size());
  for (std::size_t k = 0; k < direct.size(); ++k) EXPECT_NEAR(spectral[k], direct[k], 1e-6);
}

TEST(SpeechCompressor, CompressesSyntheticSpeech) {
  dsp::Rng rng(2008);
  const auto signal = dsp::synthetic_speech(16 * 128, rng);
  const SpeechCompressor codec(small_params());
  const CompressionResult result = codec.compress(signal);
  EXPECT_GT(result.ratio(), 1.0);  // actually compresses
  EXPECT_GT(result.snr_db, 20.0);  // and reconstructs faithfully
  EXPECT_EQ(result.reconstructed.size(), 16u * 128u);
}

TEST(SpeechCompressor, FinerStepTradesBitsForSnr) {
  dsp::Rng rng(9);
  const auto signal = dsp::synthetic_speech(8 * 128, rng);
  SpeechParams coarse = small_params();
  coarse.quant_step = 0.02;
  SpeechParams fine = small_params();
  fine.quant_step = 0.002;
  const CompressionResult r_coarse = SpeechCompressor(coarse).compress(signal);
  const CompressionResult r_fine = SpeechCompressor(fine).compress(signal);
  EXPECT_GT(r_fine.snr_db, r_coarse.snr_db);
  EXPECT_GT(r_fine.compressed_bits, r_coarse.compressed_bits);
}

TEST(SpeechCompressor, ShortSignalRejected) {
  const SpeechCompressor codec(small_params());
  EXPECT_THROW((void)codec.compress(std::vector<double>(10, 0.0)), std::invalid_argument);
}

TEST(ErrorGenApp, SectionsPartitionTheFrame) {
  const ErrorGenApp app(3, small_params());
  std::size_t covered = 0;
  for (std::int32_t pe = 0; pe < 3; ++pe) {
    const auto s = app.section(pe, 100, 8);
    EXPECT_EQ(s.begin, covered);
    covered += s.count;
    EXPECT_LE(s.history, 8u);
    if (s.begin >= 8) {
      EXPECT_EQ(s.history, 8u);
    }
  }
  EXPECT_EQ(covered, 100u);  // 34 + 33 + 33
  EXPECT_THROW((void)app.section(3, 100, 8), std::out_of_range);
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::size_t>> {};

TEST_P(ParallelEquivalence, ErrorsBitIdenticalToReference) {
  const auto [pes, frame_size] = GetParam();
  SpeechParams params = small_params();
  params.frame_size = frame_size;

  dsp::Rng rng(frame_size * 7 + static_cast<std::size_t>(pes));
  const auto frame = dsp::synthetic_speech(frame_size, rng);
  const SpeechCompressor codec(params);
  const auto coeffs = codec.frame_coefficients(frame);
  const auto reference = codec.frame_errors(frame, coeffs);

  const ErrorGenApp app(pes, params);
  const auto parallel = app.compute_errors_parallel(frame, coeffs);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_DOUBLE_EQ(parallel[i], reference[i]) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       // 100 is deliberately not divisible by 3 or 4.
                       ::testing::Values(std::size_t{100}, std::size_t{128},
                                         std::size_t{333}, std::size_t{512})));

TEST(ErrorGenApp, AllChannelsDynamic) {
  const ErrorGenApp app(2, small_params());
  EXPECT_EQ(app.system().plan().channels.size(), 6u);
  for (const auto& plan : app.system().plan().channels)
    EXPECT_EQ(plan.mode, core::SpiMode::kDynamic);
}

TEST(ErrorGenApp, ResynchronizationElidesEveryAck) {
  const ErrorGenApp app(4, small_params());
  ASSERT_TRUE(app.system().plan().resync.has_value());
  EXPECT_GT(app.system().plan().resync->acks_before, 0u);
  EXPECT_EQ(app.system().plan().resync->acks_after, 0u);
}

TEST(ErrorGenApp, BoundsEnforced) {
  const ErrorGenApp app(2, small_params());
  const std::vector<double> too_long(513, 0.0);
  const std::vector<double> coeffs(8, 0.0);
  EXPECT_THROW((void)app.compute_errors_parallel(too_long, coeffs), std::length_error);
  const std::vector<double> frame(128, 0.0);
  const std::vector<double> too_many_coeffs(13, 0.0);
  EXPECT_THROW((void)app.compute_errors_parallel(frame, too_many_coeffs), std::length_error);
  EXPECT_THROW((void)app.run_timed(513, 8, SpeechTimingModel{}, 10), std::length_error);
  EXPECT_THROW(ErrorGenApp(0, small_params()), std::invalid_argument);
}

TEST(ErrorGenApp, BoundBatchRerunsMatchTheBatchedEntryPoint) {
  const ErrorGenApp app(2, small_params());
  const SpeechCompressor codec(small_params());
  std::vector<ErrorGenApp::SpeechJobSpec> jobs;
  for (std::size_t size : {96, 40, 128}) {
    dsp::Rng rng(7 + size);
    ErrorGenApp::SpeechJobSpec job;
    job.frame = dsp::synthetic_speech(size, rng);
    job.coeffs = codec.frame_coefficients(job.frame);
    jobs.push_back(std::move(job));
  }
  core::JobInstance reference_instance(app.system().plan());
  const auto reference = app.compute_errors_batch(jobs, reference_instance);

  // Bound once, run twice: the computes are pure functions of the job,
  // so a re-run reproduces the same bits into the same result vectors.
  core::JobInstance instance(app.system().plan());
  std::vector<std::vector<double>> results;
  for (const auto& job : jobs) results.emplace_back(job.frame.size(), 0.0);
  app.bind_batch(jobs, instance, results);
  for (int run = 0; run < 2; ++run) {
    instance.reset_invocations();
    instance.run_colocated(static_cast<std::int64_t>(jobs.size()));
    EXPECT_EQ(results, reference) << "run " << run;
  }

  std::vector<std::vector<double>> short_results(jobs.size());
  EXPECT_THROW(app.bind_batch(jobs, instance, short_results), std::invalid_argument);
  EXPECT_THROW(app.bind_batch(jobs, instance, std::span(results).first(1)),
               std::invalid_argument);
  EXPECT_THROW(app.bind_batch({}, instance, {}), std::invalid_argument);
}

// Every speech edge has delay 0, so job k's errors are final when
// iteration k ends: on_job(k) sees them then, before iteration k + 1
// starts, bit-identical to what the batch returns and to a one-job run.
TEST(ErrorGenApp, ComputeErrorsBatchReportsEachJobAsItEnds) {
  const ErrorGenApp app(2, small_params());
  const SpeechCompressor codec(small_params());
  std::vector<ErrorGenApp::SpeechJobSpec> jobs;
  for (std::size_t size : {96, 40, 128, 64, 7}) {
    dsp::Rng rng(11 + size);
    ErrorGenApp::SpeechJobSpec job;
    job.frame = dsp::synthetic_speech(size, rng);
    job.coeffs = codec.frame_coefficients(job.frame);
    jobs.push_back(std::move(job));
  }
  core::JobInstance instance(app.system().plan());
  std::vector<std::size_t> order;
  std::vector<std::vector<double>> seen;
  const auto returned = app.compute_errors_batch(
      jobs, instance, nullptr, [&](std::size_t k, const std::vector<double>& errors) {
        order.push_back(k);
        seen.push_back(errors);
        for (const obs::WorkerSnapshot& worker : instance.worker_snapshots()) {
          EXPECT_EQ(worker.completed, static_cast<std::int64_t>(k) + 1) << "job " << k;
          EXPECT_EQ(worker.iteration, static_cast<std::int64_t>(k))
              << "iteration " << k + 1 << " must not have started";
        }
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(returned.size(), jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    ASSERT_EQ(seen[k].size(), returned[k].size()) << k;
    EXPECT_EQ(std::memcmp(seen[k].data(), returned[k].data(), seen[k].size() * sizeof(double)), 0)
        << "job " << k << " changed after on_job";
    EXPECT_EQ(returned[k], app.compute_errors_parallel(jobs[k].frame, jobs[k].coeffs)) << k;
  }
}

TEST(ErrorGenApp, TimedSpeedupWithMorePes) {
  SpeechParams params;
  params.frame_size = 512;
  const SpeechTimingModel timing;
  double previous = 1e18;
  for (std::int32_t n : {1, 2, 4}) {
    const ErrorGenApp app(n, params);
    const auto stats = app.run_timed(512, 10, timing, 100);
    EXPECT_LT(stats.steady_period_cycles, previous);
    previous = stats.steady_period_cycles;
  }
}

TEST(ErrorGenApp, TimeGrowsWithSampleSize) {
  SpeechParams params;
  const ErrorGenApp app(2, params);
  const SpeechTimingModel timing;
  double previous = 0.0;
  for (std::size_t size : {256u, 512u, 1024u, 2048u}) {
    const auto stats = app.run_timed(size, 10, timing, 60);
    EXPECT_GT(stats.steady_period_cycles, previous);
    previous = stats.steady_period_cycles;
  }
}

TEST(ErrorGenApp, CoDesignPipelineMatchesSequentialCodec) {
  // The figure-2 co-design (software A,B,C,E + n-PE hardware D through
  // SPI) must produce the same compressed size and reconstruction as the
  // all-software reference, because the parallel D is bit-identical.
  SpeechParams params = small_params();
  dsp::Rng rng(31);
  const auto signal = dsp::synthetic_speech(6 * params.frame_size, rng);
  const CompressionResult reference = SpeechCompressor(params).compress(signal);
  for (std::int32_t pes : {1, 3}) {
    const ErrorGenApp app(pes, params);
    const CompressionResult codesign = app.compress_pipeline(signal);
    EXPECT_EQ(codesign.compressed_bits, reference.compressed_bits);
    EXPECT_EQ(codesign.raw_bits, reference.raw_bits);
    EXPECT_EQ(codesign.reconstructed, reference.reconstructed);
    EXPECT_DOUBLE_EQ(codesign.snr_db, reference.snr_db);
  }
  EXPECT_THROW((void)ErrorGenApp(2, params).compress_pipeline(std::vector<double>(8, 0.0)),
               std::invalid_argument);
}

TEST(ErrorGenApp, AreaMatchesPaperTable1) {
  // The paper's Table 1 (4-PE actor D): full system 2.63% / 1.88% / 2.15%
  // / 8.33% of the device; SPI library 11.88% / 12.5% / 13.94% / 50% of
  // the system.
  const ErrorGenApp app(4, SpeechParams{});
  const sim::AreaReport report = app.area_report();
  report.check_fits();
  EXPECT_NEAR(report.system_percent_of_device(0), 2.63, 0.05);
  EXPECT_NEAR(report.system_percent_of_device(1), 1.88, 0.05);
  EXPECT_NEAR(report.system_percent_of_device(2), 2.15, 0.05);
  EXPECT_NEAR(report.system_percent_of_device(3), 8.33, 0.05);
  EXPECT_NEAR(report.spi_percent_of_system(0), 11.88, 0.3);
  EXPECT_NEAR(report.spi_percent_of_system(1), 12.5, 0.3);
  EXPECT_NEAR(report.spi_percent_of_system(2), 13.94, 0.3);
  EXPECT_NEAR(report.spi_percent_of_system(3), 50.0, 0.5);
}

}  // namespace
}  // namespace spi::apps
