/// \file threaded_pipeline.cpp
/// Software SPI on real threads: the same application wired once and
/// run on both execution engines — FunctionalRuntime (sequential
/// interleaving) and ThreadedRuntime (one std::thread per processor,
/// blocking SPI channels). Dataflow determinacy makes the outputs
/// identical; the channel statistics show the real back-pressure the
/// threads exercised.
#include <cstdio>

#include "apps/serialization.hpp"
#include "core/threaded_runtime.hpp"
#include "dsp/fir.hpp"
#include "dsp/rng.hpp"

int main() {
  using namespace spi;
  constexpr std::size_t kBlock = 32;
  constexpr std::int64_t kIterations = 400;

  // 3-stage filter pipeline over 3 processors.
  df::Graph g("threaded-pipeline");
  const df::ActorId src = g.add_actor("Source");
  const df::ActorId flt = g.add_actor("Filter");
  const df::ActorId snk = g.add_actor("Sink");
  const df::EdgeId e_raw = g.connect(src, df::Rate::fixed(kBlock), flt,
                                     df::Rate::fixed(kBlock), 0, sizeof(double));
  const df::EdgeId e_out = g.connect(flt, df::Rate::fixed(kBlock), snk,
                                     df::Rate::fixed(kBlock), 0, sizeof(double));
  sched::Assignment assignment(g.actor_count(), 3);
  assignment.assign(flt, 1);
  assignment.assign(snk, 2);
  const core::SpiSystem system(g, assignment);

  const auto taps = dsp::design_lowpass(21, 0.2);
  auto wire = [&](auto& runtime, std::vector<double>& sink, auto& filter_state) {
    runtime.set_compute(src, [&, e_raw](core::FiringContext& ctx) {
      dsp::Rng rng(static_cast<std::uint64_t>(ctx.invocation) + 1);
      const std::size_t out = ctx.output_index(e_raw);
      for (std::size_t i = 0; i < kBlock; ++i)
        apps::pack_f64_into(ctx.emit(out), rng.uniform(-1, 1));
    });
    runtime.set_compute(flt, [&, e_raw, e_out](core::FiringContext& ctx) {
      std::vector<double> block;
      for (const auto& t : ctx.inputs[ctx.input_index(e_raw)])
        block.push_back(apps::f64_at(t, 0));
      const auto filtered = filter_state.process(block);
      const std::size_t out = ctx.output_index(e_out);
      for (double v : filtered) apps::pack_f64_into(ctx.emit(out), v);
    });
    runtime.set_compute(snk, [&, e_out](core::FiringContext& ctx) {
      for (const auto& t : ctx.inputs[ctx.input_index(e_out)])
        sink.push_back(apps::f64_at(t, 0));
    });
  };

  std::vector<double> sequential, threaded;
  {
    core::FunctionalRuntime runtime(system);
    dsp::FirState state(taps);
    wire(runtime, sequential, state);
    runtime.run(kIterations);
  }
  core::ThreadedRuntime runtime(system);
  dsp::FirState state(taps);
  wire(runtime, threaded, state);
  runtime.run(kIterations);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < sequential.size(); ++i)
    max_diff = std::max(max_diff, std::abs(sequential[i] - threaded[i]));
  std::printf("threaded SPI pipeline: %lld iterations x %zu samples on 3 threads\n",
              static_cast<long long>(kIterations), kBlock);
  std::printf("sequential vs threaded outputs: max |diff| = %.2e (determinate)\n", max_diff);
  std::printf("channel stats: %lld tokens, %lld payload B, producer blocked %lld times, "
              "consumer blocked %lld times\n",
              static_cast<long long>(runtime.stats().messages),
              static_cast<long long>(runtime.stats().payload_bytes),
              static_cast<long long>(runtime.stats().producer_blocks),
              static_cast<long long>(runtime.stats().consumer_blocks));
  return max_diff == 0.0 ? 0 : 1;
}
