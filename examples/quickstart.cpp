/// \file quickstart.cpp
/// Minimal end-to-end tour of the SPI library:
///   1. describe an application as a dataflow graph (one edge dynamic),
///   2. assign actors to processors,
///   3. compile it with compile_plan() into an ExecutablePlan (VTS
///      conversion, schedule, synchronization graph, BBS/UBS selection,
///      buffer bounds, resynchronization),
///   4. execute it sequentially (real bytes, the PASS walked by a
///      colocated JobInstance),
///   5. execute it on the timed platform model and print statistics.
#include <cstdio>

#include "apps/serialization.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "mpi/mpi_backend.hpp"

int main() {
  using namespace spi;

  // A 3-stage pipeline: a producer on processor 0 emits a run-time-
  // varying number of samples (at most 16 per firing) to a filter on
  // processor 1, which forwards fixed-size results to a sink on
  // processor 2.
  df::Graph graph("quickstart");
  const df::ActorId src = graph.add_actor("Source", /*exec_cycles=*/64);
  const df::ActorId flt = graph.add_actor("Filter", /*exec_cycles=*/128);
  const df::ActorId snk = graph.add_actor("Sink", /*exec_cycles=*/32);
  const df::EdgeId e_dyn = graph.connect(src, df::Rate::dynamic(16), flt, df::Rate::dynamic(16),
                                         0, sizeof(double), "samples");
  const df::EdgeId e_out = graph.connect(flt, df::Rate::fixed(1), snk, df::Rate::fixed(1), 0,
                                         sizeof(double), "result");

  sched::Assignment assignment(graph.actor_count(), 3);
  assignment.assign(src, 0);
  assignment.assign(flt, 1);
  assignment.assign(snk, 2);

  const core::ExecutablePlan plan = core::compile_plan(graph, assignment);
  std::printf("%s\n", plan.report().c_str());

  // --- sequential run: sum a varying number of samples per iteration ---
  core::JobInstance runtime(plan);
  double checksum = 0.0;
  runtime.set_compute(src, [&](core::FiringContext& ctx) {
    // Iteration k ships (k % 16) + 1 samples — a dynamic rate.
    const std::size_t count = static_cast<std::size_t>(ctx.invocation % 16) + 1;
    std::vector<double> samples(count);
    for (std::size_t i = 0; i < count; ++i)
      samples[i] = static_cast<double>(ctx.invocation) + 0.25 * static_cast<double>(i);
    apps::pack_f64_into(ctx.emit(ctx.output_index(e_dyn)), samples);
  });
  runtime.set_compute(flt, [&](core::FiringContext& ctx) {
    std::vector<double> samples;
    apps::unpack_f64_into(ctx.inputs[ctx.input_index(e_dyn)][0], samples);
    double sum = 0.0;
    for (double s : samples) sum += s;
    apps::pack_f64_into(ctx.emit(ctx.output_index(e_out)), sum);
  });
  runtime.set_compute(snk, [&](core::FiringContext& ctx) {
    checksum += apps::f64_at(ctx.inputs[ctx.input_index(e_out)][0], 0);
  });
  runtime.run_colocated(32);
  std::printf("sequential: 32 iterations, checksum = %.2f\n", checksum);
  const obs::Labels channel{{"channel", plan.channel_for(e_dyn).name}};
  const obs::MetricRegistry& metrics = runtime.metrics();
  std::printf("  dynamic channel: %lld msgs, %lld payload B (+%lld B header each on the wire)\n\n",
              static_cast<long long>(metrics.counter_value("spi_threaded_messages_total", channel)),
              static_cast<long long>(
                  metrics.counter_value("spi_threaded_payload_bytes_total", channel)),
              static_cast<long long>(core::kDynamicHeaderBytes));

  // --- timed run: SPI backend vs. the generic MPI baseline -------------
  sim::TimedExecutorOptions options;
  options.iterations = 1000;
  const sim::ExecStats spi_stats = core::run_timed(plan, *plan.make_backend(), options);
  const mpi::MpiBackend mpi_backend;
  const sim::ExecStats mpi_stats = core::run_timed(plan, mpi_backend, options);
  std::printf("timed (1000 iterations @ %.0f MHz):\n", options.clock.mhz);
  std::printf("  SPI : period %8.1f cycles  (%7.3f us/iter), %lld data + %lld sync msgs\n",
              spi_stats.steady_period_cycles,
              options.clock.to_microseconds(
                  static_cast<sim::SimTime>(spi_stats.steady_period_cycles)),
              static_cast<long long>(spi_stats.data_messages),
              static_cast<long long>(spi_stats.sync_messages));
  std::printf("  MPI : period %8.1f cycles  (%7.3f us/iter), %lld data + %lld sync msgs\n",
              mpi_stats.steady_period_cycles,
              options.clock.to_microseconds(
                  static_cast<sim::SimTime>(mpi_stats.steady_period_cycles)),
              static_cast<long long>(mpi_stats.data_messages),
              static_cast<long long>(mpi_stats.sync_messages));
  std::printf("  SPI speedup over generic MPI: %.2fx\n",
              mpi_stats.steady_period_cycles / spi_stats.steady_period_cycles);
  return 0;
}
