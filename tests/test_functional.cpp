#include "core/functional.hpp"

#include <gtest/gtest.h>

#include "apps/serialization.hpp"

namespace spi::core {
namespace {

using apps::f64_at;
using apps::pack_f64_into;
using apps::unpack_f64_into;

struct Fixture {
  df::Graph g{"func"};
  df::ActorId src, mid, dst;
  df::EdgeId dyn, stat;
  sched::Assignment assignment{3, 3};

  Fixture() {
    src = g.add_actor("Src");
    mid = g.add_actor("Mid");
    dst = g.add_actor("Dst");
    dyn = g.connect(src, df::Rate::dynamic(8), mid, df::Rate::dynamic(8), 0, sizeof(double));
    stat = g.connect(mid, df::Rate::fixed(1), dst, df::Rate::fixed(1), 0, sizeof(double));
    assignment.assign(src, 0);
    assignment.assign(mid, 1);
    assignment.assign(dst, 2);
  }
};

TEST(Functional, DataFlowsCorrectly) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  std::vector<double> sums;
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    const std::size_t count = static_cast<std::size_t>(ctx.invocation % 8) + 1;
    std::vector<double> values(count, 1.5);
    pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), values);
  });
  runtime.set_compute(f.mid, [&](FiringContext& ctx) {
    std::vector<double> values;
    unpack_f64_into(ctx.inputs[ctx.input_index(f.dyn)][0], values);
    double sum = 0;
    for (double v : values) sum += v;
    pack_f64_into(ctx.emit(ctx.output_index(f.stat)), sum);
  });
  runtime.set_compute(f.dst, [&](FiringContext& ctx) {
    sums.push_back(f64_at(ctx.inputs[ctx.input_index(f.stat)][0], 0));
  });
  runtime.run(10);
  ASSERT_EQ(sums.size(), 10u);
  for (std::size_t k = 0; k < 10; ++k)
    EXPECT_DOUBLE_EQ(sums[k], 1.5 * (static_cast<double>(k % 8) + 1.0));
  EXPECT_EQ(runtime.invocations(f.src), 10);
}

TEST(Functional, ChannelStatsReflectTraffic) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), std::vector<double>{1.0, 2.0});
  });
  runtime.run(5);
  const SpiChannel& dyn = runtime.channel(f.dyn);
  EXPECT_EQ(dyn.stats().messages, 5);
  EXPECT_EQ(dyn.stats().payload_bytes, 5 * 16);
  EXPECT_EQ(dyn.stats().wire_bytes, 5 * (16 + kDynamicHeaderBytes));
}

TEST(FiringContext, EmitRecyclesRoutedBuffers) {
  FiringContext ctx;
  ctx.outputs.resize(2);
  ctx.emit(0).assign(32, 1);
  ctx.emit(1).assign(16, 2);
  ctx.emit(1).assign(16, 3);
  const std::uint8_t* first = ctx.outputs[0][0].data();
  ctx.recycle_outputs();
  ASSERT_TRUE(ctx.outputs[0].empty());
  ASSERT_TRUE(ctx.outputs[1].empty());
  Bytes& again = ctx.emit(0);
  EXPECT_TRUE(again.empty()) << "a recycled token starts empty";
  EXPECT_GE(again.capacity(), 32u);
  again.assign(24, 4);
  EXPECT_EQ(again.data(), first) << "emit must hand back the routed buffer";
  EXPECT_EQ(ctx.spare[1].size(), 2u);
}

TEST(FiringContext, RecycleKeepsAtMostOneFiringOfBuffers) {
  FiringContext ctx;
  ctx.outputs.resize(1);
  for (int firing = 0; firing < 5; ++firing) {
    ctx.outputs[0] = {Bytes(8, 0), Bytes(8, 0)};  // assigned, never emitted
    ctx.recycle_outputs();
  }
  EXPECT_EQ(ctx.spare[0].size(), 2u);
}

TEST(FiringContext, SlotOfResolvesPortOrder) {
  const std::vector<df::EdgeId> edges = {4, 9, 2};
  EXPECT_EQ(slot_of(edges, 9), 1u);
  EXPECT_EQ(slot_of(edges, 2), 2u);
  EXPECT_THROW((void)slot_of(edges, 5), std::out_of_range);
}

TEST(Functional, DefaultComputeProducesZeroTokens) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  EXPECT_NO_THROW(runtime.run(3));  // all defaults: zero-filled full-rate tokens
}

TEST(Functional, BmaxViolationDetected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), std::vector<double>(9, 0.0));  // bound is 8
  });
  EXPECT_THROW(runtime.run(1), std::length_error);
}

TEST(Functional, NonWholeTokenPayloadDetected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  runtime.set_compute(f.src, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.dyn)] = {Bytes(7, 0)};  // not a multiple of 8
  });
  EXPECT_THROW(runtime.run(1), std::logic_error);
}

TEST(Functional, WrongTokenCountDetected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  runtime.set_compute(f.mid, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.stat)] = {};  // must produce exactly 1
  });
  EXPECT_THROW(runtime.run(1), std::logic_error);
}

TEST(Functional, StaticTokenSizeEnforced) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  runtime.set_compute(f.mid, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.stat)] = {Bytes(4, 0)};  // edge carries 8-byte tokens
  });
  EXPECT_THROW(runtime.run(1), std::logic_error);
}

TEST(Functional, InitialDelayTokensAvailable) {
  df::Graph g("delayed");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId fwd = g.connect_simple(a, b, 0, 4);
  const df::EdgeId back = g.connect_simple(b, a, 1, 4);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const SpiSystem system(g, assignment);
  FunctionalRuntime runtime(system);
  std::int64_t a_count = 0;
  runtime.set_compute(a, [&](FiringContext& ctx) {
    // Consumes the (initially zero) feedback token and forwards a signal.
    ++a_count;
    EXPECT_EQ(ctx.inputs[ctx.input_index(back)][0].size(), 4u);
    ctx.outputs[ctx.output_index(fwd)] = {Bytes(4, 1)};
  });
  runtime.run(4);
  EXPECT_EQ(a_count, 4);
}

TEST(Functional, MultirateLocalEdges) {
  df::Graph g("multirate");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect(a, df::Rate::fixed(3), b, df::Rate::fixed(2), 0, 4);
  const SpiSystem system(g, sched::Assignment(2, 1));  // same processor
  FunctionalRuntime runtime(system);
  std::int64_t produced = 0, consumed = 0;
  runtime.set_compute(a, [&](FiringContext& ctx) {
    std::vector<Bytes> tokens(3, Bytes(4, 0));
    produced += 3;
    ctx.outputs[ctx.output_index(e)] = std::move(tokens);
  });
  runtime.set_compute(b, [&](FiringContext& ctx) {
    consumed += static_cast<std::int64_t>(ctx.inputs[ctx.input_index(e)].size());
  });
  runtime.run(4);  // q = (2, 3) per iteration
  EXPECT_EQ(produced, 4 * 2 * 3);
  EXPECT_EQ(consumed, 4 * 3 * 2);
}

TEST(Functional, ChannelLookupValidation) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  EXPECT_THROW((void)runtime.channel(999), std::out_of_range);
}

TEST(Functional, NegativeIterationsRejected) {
  Fixture f;
  const SpiSystem system(f.g, f.assignment);
  FunctionalRuntime runtime(system);
  EXPECT_THROW(runtime.run(-1), std::invalid_argument);
}

}  // namespace
}  // namespace spi::core
