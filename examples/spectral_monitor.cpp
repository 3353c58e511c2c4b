/// \file spectral_monitor.cpp
/// A third domain application built on the public API: a two-PE
/// spectral monitor (framer -> FFT -> peak detector), the kind of
/// streaming front end the paper's introduction motivates. All channels
/// are *static* (frame length and spectrum size are compile-time
/// constants), so this exercises SPI_static end to end — complementing
/// the paper's two applications, whose interesting edges are dynamic.
#include <cmath>
#include <cstdio>
#include <numbers>

#include "apps/serialization.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"

int main() {
  using namespace spi;
  constexpr std::size_t kFrame = 256;

  // Graph: Framer (PE0) ships kFrame samples; Analyzer (PE1) returns the
  // dominant bin and its power; Reporter (PE0) logs it.
  df::Graph g("spectral-monitor");
  const df::ActorId framer = g.add_actor("Framer", 64);
  const df::ActorId analyzer = g.add_actor("Analyzer", 2048);
  const df::ActorId reporter = g.add_actor("Reporter", 16);
  const df::EdgeId e_frame = g.connect(framer, df::Rate::fixed(kFrame), analyzer,
                                       df::Rate::fixed(kFrame), 0, sizeof(double));
  const df::EdgeId e_peak = g.connect(analyzer, df::Rate::fixed(1), reporter,
                                      df::Rate::fixed(1), 0, 2 * sizeof(double));

  sched::Assignment assignment(g.actor_count(), 2);
  assignment.assign(analyzer, 1);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  std::printf("%s\n", plan.report().c_str());

  // Input: a tone hopping between bins every frame, in noise.
  dsp::Rng rng(404);
  const std::vector<std::size_t> hop_bins{12, 40, 12, 97, 55, 40, 7, 120};
  core::JobInstance runtime(plan);

  runtime.set_compute(framer, [&](core::FiringContext& ctx) {
    const std::size_t bin = hop_bins[static_cast<std::size_t>(ctx.invocation) % hop_bins.size()];
    const std::size_t out = ctx.output_index(e_frame);
    for (std::size_t n = 0; n < kFrame; ++n) {
      const double tone = std::sin(2.0 * std::numbers::pi * static_cast<double>(bin) *
                                   static_cast<double>(n) / static_cast<double>(kFrame));
      apps::pack_f64_into(ctx.emit(out), tone + rng.gaussian(0.0, 0.2));
    }
  });
  runtime.set_compute(analyzer, [&](core::FiringContext& ctx) {
    std::vector<double> frame;
    frame.reserve(kFrame);
    for (const auto& token : ctx.inputs[ctx.input_index(e_frame)])
      frame.push_back(apps::f64_at(token, 0));
    const std::vector<double> power = dsp::power_spectrum(frame);
    std::size_t peak = 1;
    for (std::size_t k = 2; k < power.size() / 2; ++k)
      if (power[k] > power[peak]) peak = k;
    const double report[2] = {static_cast<double>(peak), power[peak]};
    apps::pack_f64_into(ctx.emit(ctx.output_index(e_peak)), report);
  });
  int correct = 0, total = 0;
  runtime.set_compute(reporter, [&](core::FiringContext& ctx) {
    std::vector<double> report;
    apps::unpack_f64_into(ctx.inputs[ctx.input_index(e_peak)][0], report);
    const auto expected =
        hop_bins[static_cast<std::size_t>(ctx.invocation) % hop_bins.size()];
    const bool hit = static_cast<std::size_t>(report[0]) == expected;
    correct += hit ? 1 : 0;
    ++total;
    std::printf("frame %3lld: peak bin %3.0f (power %8.1f) expected %3zu %s\n",
                static_cast<long long>(ctx.invocation), report[0], report[1], expected,
                hit ? "" : "<-- MISS");
  });

  runtime.run_colocated(16);
  const obs::Labels frames{{"channel", plan.channel_for(e_frame).name}};
  const obs::MetricRegistry& metrics = runtime.metrics();
  std::printf("\ndetected %d/%d hops; frame channel moved %lld B payload in %lld tokens\n",
              correct, total,
              static_cast<long long>(
                  metrics.counter_value("spi_threaded_payload_bytes_total", frames)),
              static_cast<long long>(metrics.counter_value("spi_threaded_messages_total", frames)));
  return correct == total ? 0 : 1;
}
