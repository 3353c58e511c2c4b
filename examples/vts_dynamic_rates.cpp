/// \file vts_dynamic_rates.cpp
/// Walkthrough of the paper's Section 3 on the figure-1 example: an edge
/// whose production rate varies with bound 10 and consumption rate with
/// bound 8. Shows the VTS conversion, the equation-1 buffer bound, the
/// memory comparison against worst-case static sizing, and a sequential
/// JobInstance run where the true rates vary every firing.
#include <cstdio>

#include "apps/serialization.hpp"
#include "core/job_instance.hpp"
#include "core/packing.hpp"
#include "core/pipeline.hpp"
#include "dataflow/dot.hpp"
#include "dataflow/vts.hpp"
#include "dsp/rng.hpp"

int main() {
  using namespace spi;

  // The paper's figure 1: A --(dynamic <=10 : dynamic <=8)--> B,
  // 2-byte raw tokens.
  df::Graph g("figure1");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect(a, df::Rate::dynamic(10), b, df::Rate::dynamic(8), 0, 2);

  std::printf("original graph (dynamic rates):\n%s\n", df::to_dot(g).c_str());

  const df::VtsResult vts = df::vts_convert(g);
  std::printf("after VTS conversion (pure SDF, packed tokens):\n%s\n",
              df::to_dot(vts.graph).c_str());
  std::printf("packed-token bound b_max(e) = %lld bytes\n",
              static_cast<long long>(vts.edges[0].b_max_bytes));
  const auto c_bytes = df::packed_buffer_byte_bounds(vts);
  std::printf("equation 1: c(e) = c_sdf(e) x b_max(e) = %lld bytes\n",
              static_cast<long long>(c_bytes[0]));
  const auto cmp = df::compare_vts_memory(g, vts);
  std::printf("buffer memory: VTS %lld B vs worst-case static %lld B\n\n",
              static_cast<long long>(cmp.vts_bytes),
              static_cast<long long>(cmp.worst_case_static_bytes));

  // Sequential run of the two-processor plan: A ships a varying number
  // of 2-byte samples per firing through an SPI_dynamic channel.
  sched::Assignment assignment(g.actor_count(), 2);
  assignment.assign(b, 1);
  const core::ExecutablePlan plan = core::compile_plan(g, assignment);
  std::printf("%s\n", plan.report().c_str());

  core::JobInstance runtime(plan);
  const core::TokenPacker packer(2, 10);
  dsp::Rng rng(1);
  std::int64_t raw_sent = 0, raw_received = 0;
  runtime.set_compute(a, [&](core::FiringContext& ctx) {
    const std::int64_t count = rng.uniform_int(0, 10);  // true dynamic rate
    core::Bytes raw(static_cast<std::size_t>(count * 2));
    for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    raw_sent += count;
    ctx.outputs[ctx.output_index(e)] = {packer.pack(raw, count)};
  });
  runtime.set_compute(b, [&](core::FiringContext& ctx) {
    raw_received += static_cast<std::int64_t>(
        packer.unpack(ctx.inputs[ctx.input_index(e)][0]).size());
  });
  runtime.run_colocated(1000);

  const core::ThreadedRunStats& stats = runtime.stats();
  std::printf("1000 firings: %lld raw tokens sent, %lld received (must match)\n",
              static_cast<long long>(raw_sent), static_cast<long long>(raw_received));
  std::printf("channel: %lld messages, %lld payload B (+%lld B header each on the wire)\n",
              static_cast<long long>(stats.messages),
              static_cast<long long>(stats.payload_bytes),
              static_cast<long long>(core::kDynamicHeaderBytes));
  return raw_sent == raw_received ? 0 : 1;
}
