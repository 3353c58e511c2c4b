/// \file conditional_stream.cpp
/// VTS as an explicit modeling tool for dynamic dataflow (the paper's
/// contribution 1: "a means for applying more efficient and intuitive
/// SDF techniques to certain kinds of dynamic dataflow behaviors").
///
/// Classic dynamic-dataflow constructs like switch/select route each
/// token to ONE of several branches depending on its value — impossible
/// in pure SDF, whose rates are fixed. With VTS, the splitter emits one
/// *packed* token per branch per firing whose SIZE varies (possibly
/// zero raw tokens): rates stay statically 1, the graph stays SDF
/// (schedulable, bounded, resynchronizable), and the data-dependent
/// routing lives in the token sizes. This example routes a sample
/// stream into "low" and "high" branches processed on different
/// processors and checks conservation.
#include <cstdio>

#include "apps/serialization.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"
#include "dsp/rng.hpp"

int main() {
  using namespace spi;
  constexpr std::size_t kBlock = 16;  // samples per splitter firing

  df::Graph g("conditional-stream");
  const df::ActorId src = g.add_actor("Source", 16);
  const df::ActorId split = g.add_actor("Split", 32);
  const df::ActorId low = g.add_actor("LowBand", 64);
  const df::ActorId high = g.add_actor("HighBand", 64);
  const df::ActorId merge = g.add_actor("Merge", 16);

  const df::EdgeId e_in = g.connect(src, df::Rate::fixed(kBlock), split,
                                    df::Rate::fixed(kBlock), 0, sizeof(double));
  // The conditional routes: each firing ships 0..kBlock samples per branch.
  const df::EdgeId e_low = g.connect(split, df::Rate::dynamic(kBlock), low,
                                     df::Rate::dynamic(kBlock), 0, sizeof(double));
  const df::EdgeId e_high = g.connect(split, df::Rate::dynamic(kBlock), high,
                                      df::Rate::dynamic(kBlock), 0, sizeof(double));
  const df::EdgeId e_lo_out = g.connect(low, df::Rate::dynamic(kBlock), merge,
                                        df::Rate::dynamic(kBlock), 0, sizeof(double));
  const df::EdgeId e_hi_out = g.connect(high, df::Rate::dynamic(kBlock), merge,
                                        df::Rate::dynamic(kBlock), 0, sizeof(double));

  sched::Assignment assignment(g.actor_count(), 3);
  assignment.assign(low, 1);
  assignment.assign(high, 2);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  std::printf("%s\n", plan.report().c_str());

  core::JobInstance runtime(plan);
  dsp::Rng rng(99);
  std::int64_t produced = 0, low_count = 0, high_count = 0, merged = 0;
  double low_sum = 0.0, high_sum = 0.0, merged_sum = 0.0, source_sum = 0.0;

  runtime.set_compute(src, [&](core::FiringContext& ctx) {
    const std::size_t out = ctx.output_index(e_in);
    for (std::size_t i = 0; i < kBlock; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      source_sum += v;
      ++produced;
      apps::pack_f64_into(ctx.emit(out), v);
    }
  });
  runtime.set_compute(split, [&](core::FiringContext& ctx) {
    std::vector<double> lo, hi;
    for (const auto& token : ctx.inputs[ctx.input_index(e_in)]) {
      const double v = apps::f64_at(token, 0);
      (std::abs(v) < 0.5 ? lo : hi).push_back(v);  // the data-dependent route
    }
    apps::pack_f64_into(ctx.emit(ctx.output_index(e_low)), lo);
    apps::pack_f64_into(ctx.emit(ctx.output_index(e_high)), hi);
  });
  auto band = [&](df::EdgeId in, df::EdgeId out, std::int64_t& counter, double& sum) {
    return [&, in, out](core::FiringContext& ctx) {
      std::vector<double> values;
      apps::unpack_f64_into(ctx.inputs[ctx.input_index(in)][0], values);
      counter += static_cast<std::int64_t>(values.size());
      for (double v : values) sum += v;
      ctx.outputs[ctx.output_index(out)] = {ctx.inputs[ctx.input_index(in)][0]};  // pass through
    };
  };
  runtime.set_compute(low, band(e_low, e_lo_out, low_count, low_sum));
  runtime.set_compute(high, band(e_high, e_hi_out, high_count, high_sum));
  runtime.set_compute(merge, [&](core::FiringContext& ctx) {
    for (df::EdgeId e : {e_lo_out, e_hi_out}) {
      std::vector<double> values;
      apps::unpack_f64_into(ctx.inputs[ctx.input_index(e)][0], values);
      for (double v : values) {
        merged_sum += v;
        ++merged;
      }
    }
  });

  runtime.run_colocated(256);
  std::printf("routed %lld samples: %lld low-band, %lld high-band, %lld merged\n",
              static_cast<long long>(produced), static_cast<long long>(low_count),
              static_cast<long long>(high_count), static_cast<long long>(merged));
  std::printf("conservation: source sum %.6f == merged sum %.6f (|diff| %.2e)\n", source_sum,
              merged_sum, std::abs(source_sum - merged_sum));
  std::printf("low-band channel avg payload %.1f B/msg (b_max %lld B) — the dynamism\n"
              "lives in token sizes while every rate stayed statically 1.\n",
              static_cast<double>(runtime.metrics().counter_value(
                  "spi_threaded_payload_bytes_total",
                  {{"channel", plan.channel_for(e_low).name}})) /
                  256.0,
              static_cast<long long>(plan.channel_for(e_low).b_max_bytes));
  const bool ok = produced == low_count + high_count && merged == produced &&
                  std::abs(source_sum - merged_sum) < 1e-9;
  return ok ? 0 : 1;
}
