/// \file ext_vectorization.cpp
/// Extension experiment: message vectorization (blocking factor). SPI's
/// headers are already minimal, but every message still pays the
/// per-message costs (enqueue, actor pipeline, header, link latency).
/// Batching J logical tokens into one message amortizes those costs —
/// the classic blocked-schedule / vectorization transformation of the
/// SDF synthesis literature. The sweep runs the same logical workload
/// (tokens/iteration x iterations constant) at different batch sizes
/// under both backends.
///
/// A second sweep covers the *intra-actor* form of the same idea: the
/// SIMD-friendly DSP kernel paths (SoA FFT butterflies, blocked FIR and
/// mat-vec loops, word-at-a-time Huffman packing) against their scalar
/// references (the dsp *_reference functions) — the per-firing analogue
/// of per-message batching.
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/huffman.hpp"
#include "dsp/linalg.hpp"
#include "dsp/rng.hpp"
#include "mpi/mpi_backend.hpp"

namespace {

/// Pipeline moving `batch` tokens of 8 bytes per firing; exec scales
/// with the batch so compute-per-token is constant.
double run_batched(std::int64_t batch, std::int64_t logical_iterations, bool use_mpi) {
  using namespace spi;
  df::Graph g("vec");
  const df::ActorId a = g.add_actor("A", 20 * batch);
  const df::ActorId b = g.add_actor("B", 20 * batch);
  g.connect(a, df::Rate::fixed(batch), b, df::Rate::fixed(batch), 0, 8);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  core::SpiSystemOptions options;
  options.sync.ubs_credit_window = 4;
  const core::ExecutablePlan plan = core::compile_plan(g, assignment, options);

  sim::TimedExecutorOptions run;
  run.iterations = logical_iterations / batch;
  const mpi::MpiBackend mpi_backend;
  const auto stats = use_mpi ? core::run_timed(plan, mpi_backend, run)
                             : core::run_timed(plan, *plan.make_backend(), run);
  // Normalize to time per logical token.
  return stats.steady_period_cycles / static_cast<double>(batch);
}

/// Wall time per call of `body` in microseconds, min of a few interleaved
/// passes so a scheduler hiccup in one pass cannot distort a ratio.
template <typename Body>
double time_us(std::int64_t reps, Body&& body) {
  double best = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < reps; ++i) body();
    const auto stop = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(stop - start).count() /
        static_cast<double>(reps);
    best = std::min(best, us);
  }
  return best;
}

struct KernelRow {
  const char* name;
  double scalar_us;
  double vector_us;
};

/// Times one kernel's scalar reference and production path back to
/// back, so the two timings interleave per kernel.
template <typename Scalar, typename Vector>
KernelRow sweep_kernel(const char* name, std::int64_t reps, Scalar&& scalar, Vector&& vector) {
  KernelRow row{name, 0.0, 0.0};
  row.scalar_us = time_us(reps, scalar);
  row.vector_us = time_us(reps, vector);
  return row;
}

void kernel_path_sweep() {
  using namespace spi::dsp;
  std::printf("\nkernel vectorization: scalar reference vs SIMD-friendly path\n\n");
  std::printf("%-18s %12s %12s %10s\n", "kernel", "scalar us", "vector us", "speedup");

  Rng rng(11);
  std::vector<Complex> signal(1024);
  for (auto& c : signal) c = {rng.gaussian(), rng.gaussian()};
  std::vector<double> taps(31), samples(8192), x(256);
  for (auto& t : taps) t = rng.gaussian();
  for (auto& s : samples) s = rng.gaussian();
  for (auto& v : x) v = rng.gaussian();
  Matrix m(256, 256);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) m.at(r, c) = rng.gaussian();
  std::vector<std::uint64_t> freq(256);
  for (auto& f : freq) f = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::vector<std::size_t> symbols(8192);
  for (auto& s : symbols) s = static_cast<std::size_t>(rng.uniform_int(0, 255));

  const KernelRow rows[] = {
      sweep_kernel(
          "fft 1024", 50,
          [&] {
            auto scratch = signal;
            fft_inplace_reference(scratch);
          },
          [&] {
            auto scratch = signal;
            fft_inplace(scratch);
          }),
      sweep_kernel(
          "fir 31x8192", 50, [&] { (void)fir_filter_reference(samples, taps); },
          [&] { (void)fir_filter(samples, taps); }),
      sweep_kernel(
          "matvec 256", 200, [&] { (void)m.multiply_reference(x); },
          [&] { (void)m.multiply(x); }),
      sweep_kernel(
          "huffman 8192", 50,
          [&] {
            BitWriter w;
            code.encode_reference(symbols, w);
          },
          [&] {
            BitWriter w;
            code.encode(symbols, w);
          }),
  };
  double geomean = 1.0;
  for (const KernelRow& row : rows) {
    std::printf("%-18s %12.2f %12.2f %9.2fx\n", row.name, row.scalar_us,
                row.vector_us, row.scalar_us / row.vector_us);
    geomean *= row.scalar_us / row.vector_us;
  }
  geomean = std::pow(geomean, 1.0 / std::size(rows));
  std::printf("%-18s %12s %12s %9.2fx\n", "geomean", "", "", geomean);
  std::printf("\nexpected: every pair is bit-identical (FFT: within documented ULP)\n"
              "to its scalar reference — see tests/test_fft.cpp et al. — so the\n"
              "speedup is free at the application level; run_benchmarks.sh gates\n"
              "the geomean as derived.kernel_simd_speedup >= 1.5.\n");
}

}  // namespace

int main() {
  constexpr std::int64_t kLogical = 1920;  // divisible by every batch size
  std::printf("message vectorization: cycles per logical token vs batch size\n\n");
  std::printf("%8s %14s %14s %12s\n", "batch J", "SPI cyc/tok", "MPI cyc/tok", "MPI/SPI");
  for (std::int64_t batch : {1, 2, 4, 8, 16, 32}) {
    const double spi = run_batched(batch, kLogical, false);
    const double mpi = run_batched(batch, kLogical, true);
    std::printf("%8lld %14.2f %14.2f %11.2fx\n", static_cast<long long>(batch), spi, mpi,
                mpi / spi);
  }
  std::printf("\nexpected: both backends improve with batching as per-message costs\n"
              "amortize; the GAP closes because vectorization hides exactly the\n"
              "overheads SPI's specialization removes — i.e. SPI gives small-batch\n"
              "(low-latency) operation the efficiency MPI only reaches when batching.\n");
  kernel_path_sweep();
  return 0;
}
