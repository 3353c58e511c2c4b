/// The firing contract of the execution engine: FiringContext's buffer
/// recycling, and the checks JobInstance makes on every firing — token
/// counts and shapes, delay tokens, multirate local edges, the default
/// compute. Each engine-level test runs the plan both ways, colocated on
/// the calling thread and as a gang, and expects the same outcome.
#include <gtest/gtest.h>

#include "apps/serialization.hpp"
#include "core/job_instance.hpp"
#include "core/pipeline.hpp"

namespace spi::core {
namespace {

using apps::f64_at;
using apps::pack_f64_into;
using apps::unpack_f64_into;

enum class Mode { kColocated, kGang };
constexpr Mode kModes[] = {Mode::kColocated, Mode::kGang};

const char* mode_name(Mode mode) { return mode == Mode::kColocated ? "colocated" : "gang"; }

/// Runs `iterations` graph iterations of `job` on the calling thread or
/// on a gang of its own.
void run(JobInstance& job, Mode mode, std::int64_t iterations) {
  RunOptions options;
  options.iterations = iterations;
  if (mode == Mode::kColocated) {
    job.run_colocated(options);
    return;
  }
  job.run(options);
}

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
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    std::vector<double> sums;
    job.set_compute(f.src, [&](FiringContext& ctx) {
      const std::size_t count = static_cast<std::size_t>(ctx.invocation % 8) + 1;
      std::vector<double> values(count, 1.5);
      pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), values);
    });
    job.set_compute(f.mid, [&](FiringContext& ctx) {
      std::vector<double> values;
      unpack_f64_into(ctx.inputs[ctx.input_index(f.dyn)][0], values);
      double sum = 0;
      for (double v : values) sum += v;
      pack_f64_into(ctx.emit(ctx.output_index(f.stat)), sum);
    });
    job.set_compute(f.dst, [&](FiringContext& ctx) {
      sums.push_back(f64_at(ctx.inputs[ctx.input_index(f.stat)][0], 0));
    });
    run(job, mode, 10);
    ASSERT_EQ(sums.size(), 10u);
    for (std::size_t k = 0; k < 10; ++k)
      EXPECT_EQ(sums[k], 1.5 * (static_cast<double>(k % 8) + 1.0));
  }
}

TEST(Functional, ChannelStatsReflectTraffic) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  const obs::Labels dyn{{"channel", plan.channel_for(f.dyn).name}};
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    job.set_compute(f.src, [&](FiringContext& ctx) {
      pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), std::vector<double>{1.0, 2.0});
    });
    run(job, mode, 5);
    EXPECT_EQ(job.metrics().counter_value("spi_threaded_messages_total", dyn), 5);
    EXPECT_EQ(job.metrics().counter_value("spi_threaded_payload_bytes_total", dyn), 5 * 16);
    // Both channels: 5 packed tokens of 16 bytes, 5 static 8-byte tokens.
    EXPECT_EQ(job.stats().messages, 10);
    EXPECT_EQ(job.stats().payload_bytes, 5 * 16 + 5 * 8);
  }
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
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    // Only the sink is wired: Src and Mid emit full-rate zero tokens.
    std::vector<double> seen;
    job.set_compute(f.dst, [&](FiringContext& ctx) {
      seen.push_back(f64_at(ctx.in(ctx.input_index(f.stat)), 0));
    });
    EXPECT_NO_THROW(run(job, mode, 3));
    EXPECT_EQ(seen, std::vector<double>(3, 0.0));
  }
}

/// Runs a plan whose `actor` computes with `compute` and expects the run
/// to fail with exactly `Expected` (not a subclass of it) in both modes.
template <class Expected>
void expect_rejected(const ExecutablePlan& plan, df::ActorId actor, const ComputeFn& compute) {
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    job.set_compute(actor, compute);
    try {
      run(job, mode, 1);
      ADD_FAILURE() << "the run accepted a malformed token";
    } catch (const std::exception& e) {
      EXPECT_EQ(typeid(e), typeid(Expected)) << e.what();
    }
  }
}

TEST(Functional, BmaxViolationDetected) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  expect_rejected<std::length_error>(plan, f.src, [&](FiringContext& ctx) {
    pack_f64_into(ctx.emit(ctx.output_index(f.dyn)), std::vector<double>(9, 0.0));  // bound is 8
  });
}

TEST(Functional, NonWholeTokenPayloadDetected) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  expect_rejected<std::logic_error>(plan, f.src, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.dyn)] = {Bytes(7, 0)};  // not a multiple of 8
  });
}

TEST(Functional, WrongTokenCountDetected) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  expect_rejected<std::logic_error>(plan, f.mid, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.stat)] = {};  // must produce exactly 1
  });
}

TEST(Functional, StaticTokenSizeEnforced) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  // Mid -> Dst crosses processors; a short and a long token both fail.
  for (const std::size_t size : {4u, 12u}) {
    SCOPED_TRACE(size);
    expect_rejected<std::logic_error>(plan, f.mid, [&](FiringContext& ctx) {
      ctx.outputs[ctx.output_index(f.stat)] = {Bytes(size, 0)};  // edge carries 8-byte tokens
    });
  }
  // The same edge on one processor is a local ring: still checked.
  sched::Assignment local(3, 2);
  local.assign(f.src, 1);  // Mid and Dst share processor 0
  const ExecutablePlan colocated = compile_plan(f.g, local);
  ASSERT_THROW((void)colocated.channel_for(f.stat), std::out_of_range);
  expect_rejected<std::logic_error>(colocated, f.mid, [&](FiringContext& ctx) {
    ctx.outputs[ctx.output_index(f.stat)] = {Bytes(4, 0)};
  });
}

TEST(Functional, InitialDelayTokensAvailable) {
  df::Graph g("delayed");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId fwd = g.connect_simple(a, b, 0, 4);
  const df::EdgeId back = g.connect_simple(b, a, 1, 4);
  sched::Assignment assignment(2, 2);
  assignment.assign(b, 1);
  const ExecutablePlan plan = compile_plan(g, assignment);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    std::int64_t a_count = 0;
    std::vector<std::uint8_t> feedback;
    job.set_compute(a, [&](FiringContext& ctx) {
      // Consumes the (initially zero) feedback token and forwards a signal.
      ++a_count;
      const auto token = ctx.in(ctx.input_index(back));
      EXPECT_EQ(token.size(), 4u);
      feedback.push_back(token.empty() ? 0xFF : token[0]);
      ctx.outputs[ctx.output_index(fwd)] = {Bytes(4, 1)};
    });
    job.set_compute(b, [&](FiringContext& ctx) {
      ctx.emit(ctx.output_index(back)).assign(4, ctx.in(ctx.input_index(fwd))[0] + 1);
    });
    run(job, mode, 4);
    EXPECT_EQ(a_count, 4);
    // The delay token first, then B's replies.
    EXPECT_EQ(feedback, (std::vector<std::uint8_t>{0, 2, 2, 2}));
  }
}

TEST(Functional, MultirateLocalEdges) {
  df::Graph g("multirate");
  const df::ActorId a = g.add_actor("A");
  const df::ActorId b = g.add_actor("B");
  const df::EdgeId e = g.connect(a, df::Rate::fixed(3), b, df::Rate::fixed(2), 0, 4);
  const ExecutablePlan plan = compile_plan(g, sched::Assignment(2, 1));  // same processor
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    std::int64_t produced = 0, consumed = 0;
    std::vector<std::uint8_t> order;
    job.set_compute(a, [&](FiringContext& ctx) {
      const std::size_t out = ctx.output_index(e);
      for (int t = 0; t < 3; ++t) ctx.emit(out).assign(4, static_cast<std::uint8_t>(produced++));
    });
    job.set_compute(b, [&](FiringContext& ctx) {
      for (const Bytes& token : ctx.inputs[ctx.input_index(e)]) {
        order.push_back(token[0]);
        ++consumed;
      }
    });
    run(job, mode, 4);  // q = (2, 3) per iteration
    EXPECT_EQ(produced, 4 * 2 * 3);
    EXPECT_EQ(consumed, 4 * 3 * 2);
    for (std::size_t t = 0; t < order.size(); ++t)
      EXPECT_EQ(order[t], static_cast<std::uint8_t>(t)) << "tokens arrive in FIFO order";
  }
}

TEST(Functional, ChannelLookupValidation) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  EXPECT_EQ(plan.channel_for(f.dyn).edge, f.dyn);
  EXPECT_THROW((void)plan.channel_for(999), std::out_of_range);
}

TEST(Functional, NegativeIterationsRejected) {
  Fixture f;
  const ExecutablePlan plan = compile_plan(f.g, f.assignment);
  for (const Mode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    JobInstance job(plan);
    EXPECT_THROW(run(job, mode, -1), std::invalid_argument);
  }
}

}  // namespace
}  // namespace spi::core
