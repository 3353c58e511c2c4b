/// \file speech_app.hpp
/// Application 1 of the paper: LPC-based acoustic data compression
/// (Section 5.2).
///
/// The dataflow graph (paper figure 2): A reads a segment of input data,
/// B computes an FFT over the samples, C performs LU decomposition to
/// find predictor coefficients, D generates the prediction error, and E
/// Huffman-codes the error. The paper parallelizes actor D across n PEs
/// in hardware (figure 3): per PE an I/O interface sends the predictor
/// coefficients and an overlapping frame subsection and receives the
/// computed error values. The frame size and coefficient count are not
/// known before run time, so those transfers are dynamic -> SPI_dynamic.
///
/// Two facets are implemented:
///  * SpeechCompressor — the sequential A..E reference codec (real DSP).
///  * ErrorGenApp — the parallel actor-D system: dataflow graph, SPI
///    compilation, functional parallel execution (bit-identical to the
///    reference), the figure-6 timing experiment and the table-1 area
///    model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/spi_system.hpp"
#include "core/threaded_runtime.hpp"
#include "dsp/huffman.hpp"
#include "dsp/quantize.hpp"
#include "sim/fpga_area.hpp"

namespace spi::apps {

struct SpeechParams {
  std::size_t frame_size = 256;      ///< N: samples per frame (run-time value)
  std::size_t max_frame_size = 2048; ///< compile-time bound (VTS requirement)
  std::size_t order = 10;            ///< M: predictor order (run-time value)
  std::size_t max_order = 16;        ///< compile-time bound
  double quant_step = 0.005;
  std::int32_t max_symbol = 4095;
};

/// Whole-signal compression result of the sequential reference codec.
struct CompressionResult {
  std::vector<double> reconstructed;
  std::uint64_t raw_bits = 0;         ///< 16-bit input samples
  std::uint64_t compressed_bits = 0;  ///< error bitstream + coefficients + code table
  double snr_db = 0.0;

  [[nodiscard]] double ratio() const {
    return compressed_bits == 0
               ? 0.0
               : static_cast<double>(raw_bits) / static_cast<double>(compressed_bits);
  }
};

/// Sequential reference implementation of the full A..E pipeline.
class SpeechCompressor {
 public:
  explicit SpeechCompressor(SpeechParams params);

  [[nodiscard]] const SpeechParams& params() const { return params_; }

  /// Actor B + C: predictor coefficients of one frame. The
  /// autocorrelation is computed spectrally (FFT -> power spectrum ->
  /// inverse FFT, actor B's role), then the Toeplitz normal equations are
  /// solved by LU decomposition (actor C).
  [[nodiscard]] std::vector<double> frame_coefficients(std::span<const double> frame) const;

  /// Actor D: prediction error of one frame under the given coefficients.
  [[nodiscard]] std::vector<double> frame_errors(std::span<const double> frame,
                                                 std::span<const double> coeffs) const;

  /// Full pipeline over a signal: frame split, coefficients, errors,
  /// quantization, Huffman coding (two-pass: one code for the whole
  /// signal), then decode + reconstruct for the quality metrics.
  [[nodiscard]] CompressionResult compress(std::span<const double> signal) const;

 private:
  SpeechParams params_;
};

/// Cycle-cost calibration of the FPGA implementation (the timing half of
/// the DESIGN.md substitution for the Virtex-4 testbed).
struct SpeechTimingModel {
  double clock_mhz = 100.0;            ///< achieved System Generator clock
  std::int64_t sample_wire_bytes = 2;  ///< 16-bit fixed-point samples on the wire
  std::int64_t coeff_wire_bytes = 4;   ///< 32-bit fixed-point coefficients
  std::int64_t d_setup_cycles = 24;    ///< PE pipeline fill / control
  std::int64_t d_cycles_per_mac = 1;   ///< one multiply-accumulate per cycle
  std::int64_t io_setup_cycles = 12;   ///< I/O interface per-transfer control
  std::int64_t io_cycles_per_byte = 1; ///< I/O interface streaming rate
  sim::LinkParams link;                ///< interconnect model (topology, width)
};

/// The parallel actor-D system (figures 3 and 6, table 1).
class ErrorGenApp {
 public:
  ErrorGenApp(std::int32_t pe_count, SpeechParams params,
              core::SpiSystemOptions options = {});

  [[nodiscard]] std::int32_t pe_count() const { return pe_count_; }
  [[nodiscard]] const SpeechParams& params() const { return params_; }
  [[nodiscard]] const core::SpiSystem& system() const { return *system_; }

  /// Per-PE frame section [begin, begin+count) of a `sample_count` frame
  /// (balanced split; each PE additionally receives `order` samples of
  /// history before `begin`, clamped at the frame start).
  struct Section {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::size_t history = 0;  ///< extra leading samples shipped to the PE
  };
  [[nodiscard]] Section section(std::int32_t pe, std::size_t sample_count,
                                std::size_t order) const;

  /// Functional parallel execution of one frame through the SPI fabric
  /// (real packed tokens, real headers). The result is bit-identical to
  /// SpeechCompressor::frame_errors — the integration tests assert it.
  [[nodiscard]] std::vector<double> compute_errors_parallel(std::span<const double> frame,
                                                            std::span<const double> coeffs) const;

  /// Same computation on real host threads (one per modeled processor)
  /// over the reliable transport: sequenced CRC-checked frames, bounded
  /// retry/backoff, optionally under `reliability.faults`. Because fault
  /// decisions are keyed by (edge, sequence, attempt), the result is
  /// bit-identical to compute_errors_parallel whenever the plan's retry
  /// budget suffices; a persistent fault surfaces sim::ChannelError.
  /// `metrics` (optional) receives the spi_reliable_* counters.
  /// `policy` selects the channel implementation for plain edges
  /// (lock-free SPSC by default; kBlockingOnly forces the mutex fallback
  /// — the parity tests run both and assert identical bits).
  [[nodiscard]] std::vector<double> compute_errors_threaded(
      std::span<const double> frame, std::span<const double> coeffs,
      core::ReliabilityOptions reliability = {}, obs::MetricRegistry* metrics = nullptr,
      core::ChannelPolicy policy = core::ChannelPolicy::kAuto) const;

  /// compute_errors_threaded with full control of the run — iteration
  /// count, live telemetry endpoint, watchdog (core::RunOptions,
  /// docs/observability.md). The speech computes are iteration-
  /// independent (every firing re-sends the same frame sections), so
  /// any iterations >= 1 produces the same bits; the scrape and soak
  /// tests use extra iterations to keep the pipeline busy while
  /// observers attach.
  [[nodiscard]] std::vector<double> compute_errors_threaded(
      std::span<const double> frame, std::span<const double> coeffs,
      const core::RunOptions& run_options, core::ReliabilityOptions reliability = {},
      obs::MetricRegistry* metrics = nullptr,
      core::ChannelPolicy policy = core::ChannelPolicy::kAuto) const;

  /// One queued speech job: a frame and its predictor coefficients
  /// (sizes may vary per job up to the compile-time bounds — the
  /// transfers are SPI_dynamic).
  struct SpeechJobSpec {
    std::vector<double> frame;
    std::vector<double> coeffs;
  };

  /// Batched firing (docs/serving.md): executes jobs.size() graph
  /// iterations colocated on the calling thread through `instance`
  /// (which must have been built from this app's system().plan()), one
  /// queued job per iteration — one program traversal amortized over
  /// the whole batch, zero cross-thread handoffs. Dataflow determinacy
  /// makes every per-job result bit-identical to a one-job
  /// compute_errors_parallel/_threaded run of the same inputs (the
  /// serve tests assert it). Rewires the instance's computes and resets
  /// its invocation counters; the instance can be reused for the next
  /// batch by calling this again. `run_options` (optional) configures
  /// the batch run — watchdog, flight recorder dump directory — its
  /// iteration count is overridden by the batch size.
  [[nodiscard]] std::vector<std::vector<double>> compute_errors_batch(
      std::span<const SpeechJobSpec> jobs, core::JobInstance& instance,
      const core::RunOptions* run_options = nullptr) const;

  /// The wiring half of compute_errors_batch: registers the batch's
  /// computes on `instance` and resets its invocation counters without
  /// running. Job k's errors land in results[k], which must already be
  /// sized to its frame; `jobs` and `results` must outlive the caller's
  /// instance.run_colocated(...) calls (iteration k fires job
  /// k % jobs.size()). The allocation gate (bench/micro_channel.cpp)
  /// times warm iterations through it.
  void bind_batch(std::span<const SpeechJobSpec> jobs, core::JobInstance& instance,
                  std::span<std::vector<double>> results) const;

  /// Figure 6: timed execution at a given run-time sample size and
  /// predictor order; returns per-iteration statistics. `backend`
  /// defaults to this system's SPI backend (pass an MpiBackend for the
  /// comparison ablation).
  [[nodiscard]] sim::ExecStats run_timed(std::size_t sample_size, std::size_t order,
                                         const SpeechTimingModel& timing,
                                         std::int64_t iterations,
                                         const sim::CommBackend* backend = nullptr) const;

  /// Table 1: component-wise FPGA area of the n-PE system.
  [[nodiscard]] sim::AreaReport area_report() const;

  /// The complete figure-2 co-design pipeline as one dataflow system:
  /// A (read), B (FFT), C (LU) and E (Huffman) run as software actors on
  /// the host processor while actor D is parallelized across this
  /// system's hardware PEs. Compresses `signal` frame by frame through
  /// the SPI fabric; the result is identical to SpeechCompressor
  /// (tests assert bits and bitstream sizes).
  [[nodiscard]] CompressionResult compress_pipeline(std::span<const double> signal) const;

  /// Area of a hypothetical *all-hardware* implementation of the full
  /// A..E pipeline replicated `pipelines` times. The paper reports that
  /// "the FPGA resources were not enough to fit a multiprocessor version
  /// of the whole system" — motivating the co-design in which only actor
  /// D is parallelized in hardware. One pipeline fits the Virtex-4;
  /// check_fits() throws for two or more (tests assert this).
  [[nodiscard]] static sim::AreaReport full_hardware_area(std::int32_t pipelines);

 private:
  /// Throws std::length_error when a job exceeds the compile-time bounds.
  void check_bounds(std::span<const double> frame, std::span<const double> coeffs) const;
  /// Registers the four per-PE compute functions on any execution engine
  /// (FunctionalRuntime, ThreadedRuntime or JobInstance — same ComputeFn
  /// contract): invocation k fires jobs[k % jobs.size()], whose errors
  /// are written by section into results[k % jobs.size()].
  template <class Runtime>
  void wire_jobs(Runtime& runtime, std::span<const SpeechJobSpec> jobs,
                 std::span<std::vector<double>> results) const;

  std::int32_t pe_count_;
  SpeechParams params_;
  std::vector<df::ActorId> send_frame_, send_coeff_, recv_err_, pe_;
  std::vector<df::EdgeId> frame_edge_, coeff_edge_, err_edge_;
  std::unique_ptr<core::SpiSystem> system_;
};

}  // namespace spi::apps
