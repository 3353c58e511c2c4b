#include "apps/speech_app.hpp"

#include <cstring>
#include <numeric>
#include <stdexcept>

#include "apps/serialization.hpp"
#include "dsp/fft.hpp"
#include "dsp/linalg.hpp"
#include "dsp/lpc.hpp"

namespace spi::apps {

// ---------------------------------------------------------------------------
// SpeechCompressor — sequential reference (actors A..E)
// ---------------------------------------------------------------------------

SpeechCompressor::SpeechCompressor(SpeechParams params) : params_(params) {
  if (params_.frame_size == 0 || params_.frame_size > params_.max_frame_size)
    throw std::invalid_argument("SpeechCompressor: frame_size out of range");
  if (params_.order == 0 || params_.order > params_.max_order)
    throw std::invalid_argument("SpeechCompressor: order out of range");
  if (params_.order >= params_.frame_size)
    throw std::invalid_argument("SpeechCompressor: order must be < frame_size");
}

std::vector<double> SpeechCompressor::frame_coefficients(std::span<const double> frame) const {
  const std::size_t order = params_.order;
  // Actor B: spectral autocorrelation. Zero-pad the windowed frame to at
  // least twice its length so the circular correlation equals the linear
  // one, take |X|^2, and inverse-transform.
  std::vector<double> windowed(frame.begin(), frame.end());
  dsp::hamming_window(windowed);
  const std::size_t n = dsp::next_power_of_two(2 * windowed.size());
  std::vector<dsp::Complex> padded(n, dsp::Complex(0.0, 0.0));
  for (std::size_t i = 0; i < windowed.size(); ++i) padded[i] = dsp::Complex(windowed[i], 0.0);
  dsp::fft_inplace(padded);
  for (auto& x : padded) x = dsp::Complex(std::norm(x), 0.0);
  dsp::ifft_inplace(padded);
  std::vector<double> r(order + 1);
  const double inv = 1.0 / static_cast<double>(windowed.size());
  for (std::size_t k = 0; k <= order; ++k) r[k] = padded[k].real() * inv;

  // Actor C: Toeplitz normal equations R a = r solved by LU decomposition
  // (with the same tiny diagonal load as the dsp reference path).
  dsp::Matrix big_r(order, order);
  for (std::size_t i = 0; i < order; ++i)
    for (std::size_t j = 0; j < order; ++j)
      big_r.at(i, j) = r[i >= j ? i - j : j - i];
  for (std::size_t i = 0; i < order; ++i) big_r.at(i, i) += 1e-9 * (r[0] + 1.0);
  const std::vector<double> rhs(r.begin() + 1, r.end());
  return dsp::lu_solve(std::move(big_r), rhs);
}

std::vector<double> SpeechCompressor::frame_errors(std::span<const double> frame,
                                                   std::span<const double> coeffs) const {
  return dsp::prediction_error(frame, coeffs, 0, frame.size());
}

CompressionResult SpeechCompressor::compress(std::span<const double> signal) const {
  const std::size_t frame_size = params_.frame_size;
  const std::size_t frames = signal.size() / frame_size;
  if (frames == 0) throw std::invalid_argument("SpeechCompressor::compress: signal too short");
  const std::size_t used = frames * frame_size;

  const dsp::UniformQuantizer quantizer(params_.quant_step, params_.max_symbol);
  std::vector<std::size_t> symbols;
  symbols.reserve(used);
  std::vector<std::vector<double>> coeffs_per_frame;
  coeffs_per_frame.reserve(frames);

  for (std::size_t f = 0; f < frames; ++f) {
    const std::span<const double> frame = signal.subspan(f * frame_size, frame_size);
    coeffs_per_frame.push_back(frame_coefficients(frame));
    const std::vector<double> errors = frame_errors(frame, coeffs_per_frame.back());
    for (double e : errors) symbols.push_back(quantizer.index_of(quantizer.quantize(e)));
  }

  // Actor E: two-pass canonical Huffman over the whole signal's symbols.
  std::vector<std::uint64_t> freq(quantizer.alphabet_size(), 0);
  for (std::size_t s : symbols) ++freq[s];
  const dsp::HuffmanCode code = dsp::HuffmanCode::from_frequencies(freq);
  dsp::BitWriter writer;
  code.encode(symbols, writer);

  // Decode + reconstruct (decoder recursion feeds back reconstructed
  // samples, so quantization noise shapes through the synthesis filter).
  dsp::BitReader reader(writer.bytes(), writer.bit_count());
  const std::vector<std::size_t> decoded = code.decode(reader, symbols.size());
  CompressionResult result;
  result.reconstructed.resize(used);
  for (std::size_t f = 0; f < frames; ++f) {
    std::vector<double> errors(frame_size);
    for (std::size_t i = 0; i < frame_size; ++i)
      errors[i] = quantizer.dequantize(
          quantizer.symbol_of(decoded[f * frame_size + i]));
    const std::vector<double> rec = dsp::lpc_reconstruct(errors, coeffs_per_frame[f]);
    std::copy(rec.begin(), rec.end(), result.reconstructed.begin() +
                                          static_cast<std::ptrdiff_t>(f * frame_size));
  }

  // Code-table cost: only the contiguous range of symbols actually used
  // is transmitted (range header + one byte of code length per entry).
  std::size_t min_used = freq.size(), max_used = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] == 0) continue;
    min_used = std::min(min_used, s);
    max_used = std::max(max_used, s);
  }
  const std::uint64_t table_bits =
      min_used <= max_used ? 32 + static_cast<std::uint64_t>(max_used - min_used + 1) * 8 : 32;

  result.raw_bits = static_cast<std::uint64_t>(used) * 16;  // 16-bit input samples
  result.compressed_bits = writer.bit_count() +
                           static_cast<std::uint64_t>(frames) * params_.order * 32 +  // coeffs
                           table_bits;
  result.snr_db = dsp::snr_db(signal.subspan(0, used), result.reconstructed);
  return result;
}

// ---------------------------------------------------------------------------
// ErrorGenApp — the parallel actor-D system
// ---------------------------------------------------------------------------

namespace {

std::size_t max_section_tokens(std::int32_t pe_count, const SpeechParams& p) {
  return (p.max_frame_size + static_cast<std::size_t>(pe_count) - 1) /
             static_cast<std::size_t>(pe_count) +
         p.max_order;
}

}  // namespace

ErrorGenApp::ErrorGenApp(std::int32_t pe_count, SpeechParams params,
                         core::SpiSystemOptions options)
    : pe_count_(pe_count), params_(params) {
  if (pe_count <= 0) throw std::invalid_argument("ErrorGenApp: pe_count must be positive");

  df::Graph graph("speech-error-gen-" + std::to_string(pe_count) + "pe");
  const auto sec_bound = static_cast<std::int64_t>(max_section_tokens(pe_count, params_));
  const auto coeff_bound = static_cast<std::int64_t>(params_.max_order);

  // Actor creation order matters: with the kFirstFireable PASS policy the
  // host processor issues *all* frame and coefficient sends before any
  // error receive, so the n PEs compute concurrently (the paper's figure
  // 3 schedule) instead of being served one at a time.
  for (std::int32_t i = 0; i < pe_count; ++i)
    send_frame_.push_back(graph.add_actor("SendFrame" + std::to_string(i)));
  for (std::int32_t i = 0; i < pe_count; ++i)
    send_coeff_.push_back(graph.add_actor("SendCoef" + std::to_string(i)));
  for (std::int32_t i = 0; i < pe_count; ++i)
    pe_.push_back(graph.add_actor("D" + std::to_string(i)));
  for (std::int32_t i = 0; i < pe_count; ++i)
    recv_err_.push_back(graph.add_actor("RecvErr" + std::to_string(i)));

  for (std::int32_t i = 0; i < pe_count; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::string suffix = std::to_string(i);
    // All three transfers are dynamic: neither the frame size nor the
    // model order is known before run time (paper Section 5.2).
    frame_edge_.push_back(graph.connect(send_frame_[idx], df::Rate::dynamic(sec_bound),
                                        pe_[idx], df::Rate::dynamic(sec_bound), 0,
                                        sizeof(double), "frame" + suffix));
    coeff_edge_.push_back(graph.connect(send_coeff_[idx], df::Rate::dynamic(coeff_bound),
                                        pe_[idx], df::Rate::dynamic(coeff_bound), 0,
                                        sizeof(double), "coeff" + suffix));
    err_edge_.push_back(graph.connect(pe_[idx], df::Rate::dynamic(sec_bound),
                                      recv_err_[idx], df::Rate::dynamic(sec_bound), 0,
                                      sizeof(double), "err" + suffix));
  }

  // Host I/O interfaces share processor 0; each D gets its own PE.
  sched::Assignment assignment(graph.actor_count(), pe_count + 1);
  for (std::int32_t i = 0; i < pe_count; ++i) {
    assignment.assign(send_frame_[static_cast<std::size_t>(i)], 0);
    assignment.assign(send_coeff_[static_cast<std::size_t>(i)], 0);
    assignment.assign(recv_err_[static_cast<std::size_t>(i)], 0);
    assignment.assign(pe_[static_cast<std::size_t>(i)], i + 1);
  }

  options.pass_policy = df::SchedulePolicy::kFirstFireable;  // see creation-order note above
  system_ = std::make_unique<core::SpiSystem>(graph, std::move(assignment), options);
}

ErrorGenApp::Section ErrorGenApp::section(std::int32_t pe, std::size_t sample_count,
                                          std::size_t order) const {
  if (pe < 0 || pe >= pe_count_) throw std::out_of_range("ErrorGenApp::section: bad PE");
  const auto n = static_cast<std::size_t>(pe_count_);
  const auto p = static_cast<std::size_t>(pe);
  const std::size_t base = sample_count / n;
  const std::size_t rem = sample_count % n;
  Section s;
  s.begin = p * base + std::min(p, rem);
  s.count = base + (p < rem ? 1 : 0);
  s.history = std::min(order, s.begin);
  return s;
}

void ErrorGenApp::check_bounds(std::span<const double> frame,
                               std::span<const double> coeffs) const {
  if (frame.size() > params_.max_frame_size)
    throw std::length_error("ErrorGenApp: frame exceeds the declared bound");
  if (coeffs.size() > params_.max_order)
    throw std::length_error("ErrorGenApp: order exceeds the declared bound");
}

void ErrorGenApp::wire_jobs(core::JobInstance& instance, std::span<const SpeechJobSpec> jobs,
                            std::span<std::vector<double>> results) const {
  // Every speech actor fires exactly once per graph iteration, so
  // invocation k fires job k % jobs.size(): after reset_invocations() a
  // batch walks its queue in order, and a one-job wiring repeats the
  // same job on every iteration. The lambdas hold the caller's spans,
  // which must outlive the runs.
  const df::Graph& graph = system_->plan().vts.graph;
  const std::size_t count = jobs.size();
  for (std::int32_t i = 0; i < pe_count_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::size_t frame_out = core::slot_of(graph.out_edges(send_frame_[idx]), frame_edge_[idx]);
    const std::size_t coeff_out = core::slot_of(graph.out_edges(send_coeff_[idx]), coeff_edge_[idx]);
    const std::size_t frame_in = core::slot_of(graph.in_edges(pe_[idx]), frame_edge_[idx]);
    const std::size_t coeff_in = core::slot_of(graph.in_edges(pe_[idx]), coeff_edge_[idx]);
    const std::size_t err_out = core::slot_of(graph.out_edges(pe_[idx]), err_edge_[idx]);
    const std::size_t err_in = core::slot_of(graph.in_edges(recv_err_[idx]), err_edge_[idx]);

    instance.set_compute(send_frame_[idx], [this, i, jobs, count, frame_out](core::FiringContext& ctx) {
      const SpeechJobSpec& job = jobs[static_cast<std::size_t>(ctx.invocation) % count];
      const Section sec = section(i, job.frame.size(), job.coeffs.size());
      const std::span<const double> data(job.frame);
      pack_f64_into(ctx.emit(frame_out),
                    data.subspan(sec.begin - sec.history, sec.history + sec.count));
    });
    instance.set_compute(send_coeff_[idx], [jobs, count, coeff_out](core::FiringContext& ctx) {
      const SpeechJobSpec& job = jobs[static_cast<std::size_t>(ctx.invocation) % count];
      pack_f64_into(ctx.emit(coeff_out), job.coeffs);
    });
    // D's unpacked inputs and its errors live in the lambda: one PE
    // fires it, and the buffers stay warm across the batch.
    instance.set_compute(
        pe_[idx], [this, i, jobs, count, frame_in, coeff_in, err_out, samples = std::vector<double>(),
                   coeffs = std::vector<double>(),
                   errors = std::vector<double>()](core::FiringContext& ctx) mutable {
          const SpeechJobSpec& job = jobs[static_cast<std::size_t>(ctx.invocation) % count];
          const Section sec = section(i, job.frame.size(), job.coeffs.size());
          unpack_f64_into(ctx.in(frame_in), samples);
          unpack_f64_into(ctx.in(coeff_in), coeffs);
          // The shipped section starts `history` samples before the
          // section; errors are produced only for the section proper.
          errors.resize(sec.count);
          dsp::prediction_error_into(samples, coeffs, sec.history, sec.count, errors);
          pack_f64_into(ctx.emit(err_out), errors);
        });
    // All RecvErr actors live on processor 0, so `results` is written by
    // one thread; the gang's join orders the writes before the read.
    instance.set_compute(recv_err_[idx], [this, i, jobs, results, count,
                                          err_in](core::FiringContext& ctx) {
      const std::size_t k = static_cast<std::size_t>(ctx.invocation) % count;
      const Section sec = section(i, jobs[k].frame.size(), jobs[k].coeffs.size());
      const std::span<const std::uint8_t> errors = ctx.in(err_in);
      if (f64_count(errors) != sec.count)
        throw std::logic_error("ErrorGenApp: error token does not cover the section");
      if (!errors.empty()) std::memcpy(results[k].data() + sec.begin, errors.data(), errors.size());
    });
  }
}

std::vector<double> ErrorGenApp::compute_errors_parallel(std::span<const double> frame,
                                                         std::span<const double> coeffs) const {
  const SpeechJobSpec job{{frame.begin(), frame.end()}, {coeffs.begin(), coeffs.end()}};
  core::JobInstance instance(system_->plan());
  return std::move(compute_errors_batch(std::span(&job, 1), instance).front());
}

std::vector<double> ErrorGenApp::compute_errors_threaded(std::span<const double> frame,
                                                         std::span<const double> coeffs,
                                                         core::ReliabilityOptions reliability,
                                                         obs::MetricRegistry* metrics) const {
  return compute_errors_threaded(frame, coeffs, core::RunOptions{}, reliability, metrics);
}

std::vector<double> ErrorGenApp::compute_errors_threaded(std::span<const double> frame,
                                                         std::span<const double> coeffs,
                                                         const core::RunOptions& run_options,
                                                         core::ReliabilityOptions reliability,
                                                         obs::MetricRegistry* metrics) const {
  check_bounds(frame, coeffs);
  const SpeechJobSpec job{{frame.begin(), frame.end()}, {coeffs.begin(), coeffs.end()}};
  std::vector<std::vector<double>> result(1, std::vector<double>(frame.size(), 0.0));
  core::JobInstance instance(system_->plan(), {reliability, metrics, {}});
  wire_jobs(instance, std::span(&job, 1), result);
  instance.run(run_options);
  return std::move(result.front());
}

void ErrorGenApp::bind_batch(std::span<const SpeechJobSpec> jobs, core::JobInstance& instance,
                             std::span<std::vector<double>> results) const {
  if (jobs.empty()) throw std::invalid_argument("ErrorGenApp::bind_batch: no jobs");
  if (results.size() != jobs.size())
    throw std::invalid_argument("ErrorGenApp::bind_batch: one result per job");
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    check_bounds(jobs[k].frame, jobs[k].coeffs);
    if (results[k].size() != jobs[k].frame.size())
      throw std::invalid_argument("ErrorGenApp::bind_batch: result not sized to its frame");
  }
  wire_jobs(instance, jobs, results);
  instance.reset_invocations();
}

std::vector<std::vector<double>> ErrorGenApp::compute_errors_batch(
    std::span<const SpeechJobSpec> jobs, core::JobInstance& instance,
    const core::RunOptions* run_options, const JobDoneFn& on_job) const {
  if (jobs.empty()) return {};
  std::vector<std::vector<double>> results;
  results.reserve(jobs.size());
  for (const SpeechJobSpec& job : jobs) results.emplace_back(job.frame.size(), 0.0);
  bind_batch(jobs, instance, results);
  // One segment per job: iteration k is job k, and with no delay on any
  // edge its errors are final when the iteration ends.
  std::vector<std::int64_t> ends(jobs.size());
  std::iota(ends.begin(), ends.end(), 1);
  core::RunOptions options = run_options ? *run_options : core::RunOptions{};
  options.iterations = ends.back();
  instance.run_colocated(options, ends, [&](std::int64_t segment) {
    const auto k = static_cast<std::size_t>(segment);
    if (on_job) on_job(k, results[k]);
  });
  return results;
}

sim::ExecStats ErrorGenApp::run_timed(std::size_t sample_size, std::size_t order,
                                      const SpeechTimingModel& timing, std::int64_t iterations,
                                      const sim::CommBackend* backend) const {
  if (sample_size > params_.max_frame_size || order > params_.max_order)
    throw std::length_error("ErrorGenApp::run_timed: workload exceeds declared bounds");

  // Role lookup: actor id -> (kind, pe index).
  enum class Role { kSendFrame, kSendCoeff, kPe, kRecvErr };
  std::vector<std::pair<Role, std::int32_t>> role(system_->application().actor_count());
  for (std::int32_t i = 0; i < pe_count_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    role[static_cast<std::size_t>(send_frame_[idx])] = {Role::kSendFrame, i};
    role[static_cast<std::size_t>(send_coeff_[idx])] = {Role::kSendCoeff, i};
    role[static_cast<std::size_t>(pe_[idx])] = {Role::kPe, i};
    role[static_cast<std::size_t>(recv_err_[idx])] = {Role::kRecvErr, i};
  }

  sim::WorkloadModel workload;
  workload.exec_cycles = [this, sample_size, order, timing, role](std::int32_t task,
                                                                  std::int64_t) -> std::int64_t {
    const df::ActorId actor = system_->plan().sync_graph.task(task).actor;
    const auto [kind, pe] = role[static_cast<std::size_t>(actor)];
    const Section sec = section(pe, sample_size, order);
    switch (kind) {
      case Role::kSendFrame:
        return timing.io_setup_cycles +
               static_cast<std::int64_t>(sec.history + sec.count) * timing.sample_wire_bytes *
                   timing.io_cycles_per_byte;
      case Role::kSendCoeff:
        return timing.io_setup_cycles +
               static_cast<std::int64_t>(order) * timing.coeff_wire_bytes *
                   timing.io_cycles_per_byte;
      case Role::kPe:
        // One MAC per predictor tap per output sample on the custom unit.
        return timing.d_setup_cycles + static_cast<std::int64_t>(sec.count) *
                                           static_cast<std::int64_t>(order) *
                                           timing.d_cycles_per_mac;
      case Role::kRecvErr:
        return timing.io_setup_cycles +
               static_cast<std::int64_t>(sec.count) * timing.sample_wire_bytes *
                   timing.io_cycles_per_byte;
    }
    return 1;
  };
  workload.payload_bytes = [this, sample_size, order, timing](const sched::SyncEdge& e,
                                                              std::int64_t) -> std::int64_t {
    for (std::int32_t i = 0; i < pe_count_; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const Section sec = section(i, sample_size, order);
      if (e.dataflow_edge == frame_edge_[idx])
        return static_cast<std::int64_t>(sec.history + sec.count) * timing.sample_wire_bytes;
      if (e.dataflow_edge == coeff_edge_[idx])
        return static_cast<std::int64_t>(order) * timing.coeff_wire_bytes;
      if (e.dataflow_edge == err_edge_[idx])
        return static_cast<std::int64_t>(sec.count) * timing.sample_wire_bytes;
    }
    return 4;
  };

  sim::TimedExecutorOptions options;
  options.iterations = iterations;
  options.clock.mhz = timing.clock_mhz;
  options.link = timing.link;
  const core::ExecutablePlan& plan = system_->plan();
  return core::run_timed(plan, backend ? *backend : *plan.make_backend(), options,
                         std::move(workload));
}

sim::AreaReport ErrorGenApp::area_report() const {
  // Component areas calibrated against the paper's Table 1 (4-PE system
  // on a Virtex-4; see EXPERIMENTS.md for the calibration note).
  sim::AreaReport report(sim::virtex4_sx35());
  for (std::int32_t i = 0; i < pe_count_; ++i) {
    const std::string suffix = std::to_string(i);
    report.add("D" + suffix + " (error-gen PE)", sim::ResourceVector{75, 108, 121, 2, 2});
    report.add("IO interface " + suffix, sim::ResourceVector{14, 18, 21, 0, 0});
    report.add("SPI frame channel " + suffix, sim::ResourceVector{4, 6, 8, 1, 0},
               /*is_spi=*/true);
    report.add("SPI coeff channel " + suffix, sim::ResourceVector{4, 6, 7, 0, 0},
               /*is_spi=*/true);
    report.add("SPI err channel " + suffix, sim::ResourceVector{4, 6, 8, 1, 0},
               /*is_spi=*/true);
  }
  return report;
}

CompressionResult ErrorGenApp::compress_pipeline(std::span<const double> signal) const {
  // The paper's co-design: actors A, B, C and E execute in host software;
  // actor D's errors come back from the hardware PEs through the SPI
  // fabric. Identical arithmetic to SpeechCompressor::compress with
  // frame_errors() swapped for the parallel implementation.
  const SpeechCompressor host(params_);
  const std::size_t frame_size = params_.frame_size;
  const std::size_t frames = signal.size() / frame_size;
  if (frames == 0)
    throw std::invalid_argument("ErrorGenApp::compress_pipeline: signal too short");
  const std::size_t used = frames * frame_size;

  const dsp::UniformQuantizer quantizer(params_.quant_step, params_.max_symbol);
  std::vector<std::size_t> symbols;
  symbols.reserve(used);
  std::vector<std::vector<double>> coeffs_per_frame;
  coeffs_per_frame.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    const std::span<const double> frame = signal.subspan(f * frame_size, frame_size);
    coeffs_per_frame.push_back(host.frame_coefficients(frame));   // actors B + C
    const std::vector<double> errors =
        compute_errors_parallel(frame, coeffs_per_frame.back()); // actor D, n PEs via SPI
    for (double e : errors) symbols.push_back(quantizer.index_of(quantizer.quantize(e)));
  }

  std::vector<std::uint64_t> freq(quantizer.alphabet_size(), 0);   // actor E
  for (std::size_t s : symbols) ++freq[s];
  const dsp::HuffmanCode code = dsp::HuffmanCode::from_frequencies(freq);
  dsp::BitWriter writer;
  code.encode(symbols, writer);

  dsp::BitReader reader(writer.bytes(), writer.bit_count());
  const std::vector<std::size_t> decoded = code.decode(reader, symbols.size());
  CompressionResult result;
  result.reconstructed.resize(used);
  for (std::size_t f = 0; f < frames; ++f) {
    std::vector<double> errors(frame_size);
    for (std::size_t i = 0; i < frame_size; ++i)
      errors[i] = quantizer.dequantize(quantizer.symbol_of(decoded[f * frame_size + i]));
    const std::vector<double> rec = dsp::lpc_reconstruct(errors, coeffs_per_frame[f]);
    std::copy(rec.begin(), rec.end(),
              result.reconstructed.begin() + static_cast<std::ptrdiff_t>(f * frame_size));
  }

  std::size_t min_used = freq.size(), max_used = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] == 0) continue;
    min_used = std::min(min_used, s);
    max_used = std::max(max_used, s);
  }
  result.raw_bits = static_cast<std::uint64_t>(used) * 16;
  result.compressed_bits =
      writer.bit_count() + static_cast<std::uint64_t>(frames) * params_.order * 32 +
      (min_used <= max_used ? 32 + static_cast<std::uint64_t>(max_used - min_used + 1) * 8
                            : 32);
  result.snr_db = dsp::snr_db(signal.subspan(0, used), result.reconstructed);
  return result;
}

sim::AreaReport ErrorGenApp::full_hardware_area(std::int32_t pipelines) {
  if (pipelines <= 0) throw std::invalid_argument("full_hardware_area: pipelines must be >= 1");
  sim::AreaReport report(sim::virtex4_sx35());
  for (std::int32_t p = 0; p < pipelines; ++p) {
    const std::string s = std::to_string(p);
    // High-computational-intensity actors in hardware (paper Section 5.2):
    // a streaming FFT core (B), an LU-decomposition array (C), the error
    // generator (D) and a Huffman coder (E) plus the frame reader (A).
    report.add("A framer " + s, sim::ResourceVector{220, 300, 380, 2, 0});
    report.add("B FFT core " + s, sim::ResourceVector{3900, 5200, 6800, 24, 28});
    report.add("C LU array " + s, sim::ResourceVector{4600, 6100, 8200, 18, 46});
    report.add("D error-gen " + s, sim::ResourceVector{600, 860, 980, 8, 16});
    report.add("E Huffman coder " + s, sim::ResourceVector{1400, 1900, 2600, 12, 0});
    report.add("SPI channels " + s, sim::ResourceVector{20, 30, 38, 4, 0}, /*is_spi=*/true);
  }
  return report;
}

}  // namespace spi::apps
