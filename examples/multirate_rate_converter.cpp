/// \file multirate_rate_converter.cpp
/// A multirate SDF system on SPI: a 4:1 decimator followed by a 1:4
/// interpolator, distributed over four processors. Unlike the paper's
/// two applications (whose edges become rate-1 after VTS conversion),
/// this pipeline has true multirate static edges — the repetitions
/// vector is (1, 4, 4, 1) and the HSDF expansion creates one task per
/// firing — exercising multirate interprocessor channels and schedules.
///
///   Src --64:16--> Dec --4:4--> Interp --16:64--> Snk
///
/// Dataflow determinacy is demonstrated by running the same system on 1
/// and on 4 processors and comparing outputs bit-for-bit.
#include <cmath>
#include <cstdio>
#include <numbers>

#include "apps/serialization.hpp"
#include "core/functional.hpp"
#include "core/spi_system.hpp"
#include "dsp/fir.hpp"

namespace {

using namespace spi;

/// Builds and runs the converter on `procs` processors; returns the
/// reconstructed output signal.
std::vector<double> run_converter(const std::vector<double>& input, std::int32_t procs) {
  constexpr std::size_t kBlock = 64;   // Src production / Snk consumption
  constexpr std::size_t kSub = 16;     // Dec consumption per firing
  constexpr std::size_t kFactor = 4;   // rate-change factor

  df::Graph g("rate-converter");
  const df::ActorId src = g.add_actor("Src", 16);
  const df::ActorId dec = g.add_actor("Dec", 64);
  const df::ActorId itp = g.add_actor("Interp", 64);
  const df::ActorId snk = g.add_actor("Snk", 16);
  const df::EdgeId e_in = g.connect(src, df::Rate::fixed(kBlock), dec, df::Rate::fixed(kSub), 0,
                                    sizeof(double));
  const df::EdgeId e_mid = g.connect(dec, df::Rate::fixed(kSub / kFactor), itp,
                                     df::Rate::fixed(kSub / kFactor), 0, sizeof(double));
  const df::EdgeId e_out = g.connect(itp, df::Rate::fixed(kSub), snk, df::Rate::fixed(kBlock),
                                     0, sizeof(double));

  sched::Assignment assignment(g.actor_count(), procs);
  if (procs >= 4) {
    assignment.assign(dec, 1);
    assignment.assign(itp, 2);
    assignment.assign(snk, 3);
  }
  const core::SpiSystem system(g, assignment);

  core::FunctionalRuntime runtime(system);
  const auto anti_alias = dsp::design_lowpass(31, 0.5 / kFactor * 0.8);
  auto dec_filter = std::make_shared<dsp::FirState>(anti_alias);
  auto itp_filter = std::make_shared<dsp::FirState>(anti_alias);
  auto output = std::make_shared<std::vector<double>>();

  runtime.set_compute(src, [&input, e_in](core::FiringContext& ctx) {
    const std::size_t out = ctx.output_index(e_in);
    for (std::size_t i = 0; i < kBlock; ++i) {
      const std::size_t pos = static_cast<std::size_t>(ctx.invocation) * kBlock + i;
      apps::pack_f64_into(ctx.emit(out), pos < input.size() ? input[pos] : 0.0);
    }
  });
  runtime.set_compute(dec, [dec_filter, e_in, e_mid](core::FiringContext& ctx) {
    std::vector<double> block;
    for (const auto& token : ctx.inputs[ctx.input_index(e_in)])
      block.push_back(apps::f64_at(token, 0));
    const auto filtered = dec_filter->process(block);
    const auto decimated = dsp::downsample(filtered, kFactor);
    const std::size_t out = ctx.output_index(e_mid);
    for (double v : decimated) apps::pack_f64_into(ctx.emit(out), v);
  });
  runtime.set_compute(itp, [itp_filter, e_mid, e_out](core::FiringContext& ctx) {
    std::vector<double> block;
    for (const auto& token : ctx.inputs[ctx.input_index(e_mid)])
      block.push_back(apps::f64_at(token, 0));
    const auto stuffed = dsp::upsample(block, kFactor);
    auto filtered = itp_filter->process(stuffed);
    for (double& v : filtered) v *= static_cast<double>(kFactor);  // interpolation gain
    const std::size_t out = ctx.output_index(e_out);
    for (double v : filtered) apps::pack_f64_into(ctx.emit(out), v);
  });
  runtime.set_compute(snk, [output, e_out](core::FiringContext& ctx) {
    for (const auto& token : ctx.inputs[ctx.input_index(e_out)])
      output->push_back(apps::f64_at(token, 0));
  });

  runtime.run(static_cast<std::int64_t>(input.size() / kBlock));
  return *output;
}

}  // namespace

int main() {
  // Input: a passband tone (survives 4:1 resampling) plus a tone above
  // the decimated Nyquist (must be removed by the anti-alias filter).
  constexpr std::size_t kSamples = 4096;
  std::vector<double> input(kSamples);
  for (std::size_t n = 0; n < kSamples; ++n) {
    input[n] = std::sin(2.0 * std::numbers::pi * 0.02 * static_cast<double>(n)) +
               0.7 * std::sin(2.0 * std::numbers::pi * 0.31 * static_cast<double>(n));
  }

  const std::vector<double> seq = run_converter(input, 1);
  const std::vector<double> par = run_converter(input, 4);

  double max_diff = 0.0;
  for (std::size_t n = 0; n < seq.size(); ++n)
    max_diff = std::max(max_diff, std::abs(seq[n] - par[n]));
  std::printf("multirate 4:1 -> 1:4 rate converter, %zu samples\n", kSamples);
  std::printf("1-proc vs 4-proc outputs: max |diff| = %.3e (dataflow determinacy)\n", max_diff);

  // Energy check: passband tone survives, stopband tone attenuated.
  auto tone_energy = [&](double freq, std::span<const double> x) {
    double re = 0, im = 0;
    for (std::size_t n = 512; n < x.size(); ++n) {  // skip filter transients
      re += x[n] * std::cos(2.0 * std::numbers::pi * freq * static_cast<double>(n));
      im += x[n] * std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(n));
    }
    return std::sqrt(re * re + im * im) / static_cast<double>(x.size() - 512);
  };
  std::printf("passband tone (0.02) amplitude: in %.3f -> out %.3f\n",
              tone_energy(0.02, input), tone_energy(0.02, par));
  std::printf("stopband tone (0.31) amplitude: in %.3f -> out %.3f (aliased band removed)\n",
              tone_energy(0.31, input), tone_energy(0.31, par));
  return max_diff == 0.0 ? 0 : 1;
}
