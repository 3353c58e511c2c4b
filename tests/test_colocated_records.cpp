/// Tests of the resolved firing records that gang and colocated runs of
/// a JobInstance share. A colocated run carries every plain
/// interprocessor edge on a local ring: it moves no token through an
/// SPSC channel, yet counts the same channel traffic and records the
/// same flight events as a gang run. The edge's delay tokens move
/// between the two stores at run entry and exit, so gang and colocated
/// runs of one instance compose, also after a failed run of either kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/serialization.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"
#include "dsp/rng.hpp"
#include "serve/plan_server.hpp"

namespace spi::core {
namespace {

RunOptions iterations(std::int64_t n) {
  RunOptions options;
  options.iterations = n;
  return options;
}

obs::Labels channel_labels(const ChannelSpec& spec, const std::string& job) {
  return {{"channel", spec.name}, {"job", job}};
}

/// Per channel: (messages, payload bytes) an instance's registry holds.
std::vector<std::pair<std::int64_t, std::int64_t>> traffic(obs::MetricRegistry& registry,
                                                           const ExecutablePlan& plan,
                                                           const std::string& job) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const ChannelSpec& spec : plan.channels)
    out.emplace_back(
        registry.counter("spi_threaded_messages_total", channel_labels(spec, job)).value(),
        registry.counter("spi_threaded_payload_bytes_total", channel_labels(spec, job)).value());
  return out;
}

/// Runs `iters` colocated iterations on one instance and the same
/// iterations as a gang on another, both wired by `bind`, and checks
/// that the colocated run left every plain ring at its delay tokens
/// (its high watermark never passed them) while counting exactly the
/// gang's per-channel messages and bytes.
template <class Bind>
void expect_counted_like_a_gang(const ExecutablePlan& plan, std::int64_t iters,
                                const Bind& bind) {
  obs::MetricRegistry colocated_registry, gang_registry;
  JobInstance colocated(plan, JobInstanceOptions{{}, &colocated_registry, "m"});
  JobInstance gang(plan, JobInstanceOptions{{}, &gang_registry, "m"});
  bind(colocated);
  colocated.run_colocated(iters);
  bind(gang);
  gang.run(iterations(iters));

  colocated.refresh_channel_gauges();
  ASSERT_FALSE(plan.channels.empty());
  for (const ChannelSpec& spec : plan.channels) {
    SCOPED_TRACE(spec.name);
    const double delay = static_cast<double>(plan.vts.graph.edge(spec.edge).delay);
    const obs::Labels labels = channel_labels(spec, "m");
    EXPECT_EQ(colocated_registry.gauge("spi_channel_high_watermark_tokens", labels).value(),
              delay);
    EXPECT_EQ(colocated_registry.gauge("spi_channel_depth_tokens", labels).value(), delay);
  }
  const auto counted = traffic(colocated_registry, plan, "m");
  EXPECT_EQ(counted, traffic(gang_registry, plan, "m"));
  std::int64_t messages = 0;
  for (const auto& [m, bytes] : counted) messages += m;
  EXPECT_GT(messages, iters) << "the plan must move interprocessor tokens";
  EXPECT_EQ(colocated.stats().messages, gang.stats().messages);
  EXPECT_EQ(colocated.stats().payload_bytes, gang.stats().payload_bytes);
}

TEST(ColocatedRecords, ServedSpeechPlanMovesNoRingTokenAndCountsLikeAGang) {
  const serve::PlanServerOptions served;
  const apps::ErrorGenApp app(served.speech_pes, served.speech_params);
  dsp::Rng rng(3);
  std::vector<apps::ErrorGenApp::SpeechJobSpec> jobs(8);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].frame = dsp::synthetic_speech(20 + 29 * k, rng);
    jobs[k].coeffs.assign(1 + k % served.speech_params.max_order, 0.25);
  }
  std::vector<std::vector<double>> results;
  for (const auto& job : jobs) results.emplace_back(job.frame.size(), 0.0);
  expect_counted_like_a_gang(app.system().plan(), static_cast<std::int64_t>(jobs.size()),
                             [&](JobInstance& instance) { app.bind_batch(jobs, instance, results); });
}

TEST(ColocatedRecords, ServedParticlePlanMovesNoRingTokenAndCountsLikeAGang) {
  const serve::PlanServerOptions served;
  const apps::ParticleFilterApp app(served.particle_pes, served.particle_params);
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs(1);
  jobs[0].seed = 9;
  jobs[0].synthetic_steps = 48;
  expect_counted_like_a_gang(app.system().plan(), 48,
                             [&](JobInstance& instance) { app.bind_batch(jobs, instance); });
}

/// A on processor 0 feeds B on processor 1; B feeds A back over an
/// interprocessor edge holding two delay tokens, so every value depends
/// on the delay tokens being where the next run expects them.
struct FeedbackFixture {
  df::Graph g{"feedback"};
  df::ActorId a, b;
  df::EdgeId forward, back;
  sched::Assignment assignment{2, 2};
  ExecutablePlan plan;

  FeedbackFixture() {
    a = g.add_actor("A");
    b = g.add_actor("B");
    forward = g.connect_simple(a, b, 0, sizeof(double));
    back = g.connect_simple(b, a, 2, sizeof(double));
    assignment.assign(b, 1);
    plan = compile_plan(g, assignment);
  }

  /// B throws on its `poison_at`-th firing (-1 = never).
  void wire(JobInstance& instance, std::vector<double>& sink,
            std::int64_t poison_at = -1) const {
    instance.set_compute(a, [this](FiringContext& ctx) {
      const double fed = apps::f64_at(ctx.in(ctx.input_index(back)), 0);
      apps::pack_f64_into(ctx.emit(ctx.output_index(forward)),
                          fed * 0.5 + static_cast<double>(ctx.invocation) + 0.25);
    });
    instance.set_compute(b, [this, &sink, poison_at](FiringContext& ctx) {
      if (ctx.invocation == poison_at) throw std::runtime_error("poisoned B");
      const double y = apps::f64_at(ctx.in(ctx.input_index(forward)), 0) * 3.0 - 1.0;
      sink.push_back(y);
      apps::pack_f64_into(ctx.emit(ctx.output_index(back)), y);
    });
  }
};

TEST(ColocatedRecords, DelayTokensMoveBetweenGangAndColocatedRuns) {
  FeedbackFixture f;
  const ExecutablePlan& plan = f.plan;
  const ChannelSpec* back = plan.find_channel(f.back);
  ASSERT_NE(back, nullptr) << "the delayed edge must be interprocessor";
  // A gang run that finds no delay token would wait forever: the
  // watchdog turns that into a StallError.
  RunOptions guarded = iterations(10);
  guarded.watchdog.enabled = true;
  guarded.watchdog.window_ms = 2000;
  guarded.watchdog.dump_dir = ::testing::TempDir();

  std::vector<double> reference;
  JobInstance gang_only(plan);
  f.wire(gang_only, reference);
  gang_only.run(iterations(30));

  // Colocated runs alone hand the delay tokens back and forth without
  // the ring ever holding more than them.
  obs::MetricRegistry registry;
  std::vector<double> colocated_only;
  JobInstance colocated(plan, JobInstanceOptions{{}, &registry, "c"});
  f.wire(colocated, colocated_only);
  for (int k = 0; k < 3; ++k) colocated.run_colocated(10);
  EXPECT_EQ(colocated_only, reference);
  colocated.refresh_channel_gauges();
  EXPECT_EQ(registry.gauge("spi_channel_high_watermark_tokens", channel_labels(*back, "c")).value(),
            2.0);

  std::vector<double> mixed;
  JobInstance instance(plan);
  f.wire(instance, mixed);
  instance.run(guarded);
  instance.run_colocated(10);
  EXPECT_NO_THROW(instance.run(guarded));
  EXPECT_EQ(mixed, reference);

  // A failed run of either kind leaves an instance that the other kind
  // runs cleanly from the delay tokens.
  const auto recovers = [&](bool colocated_fails) {
    JobInstance broken(plan);
    std::vector<double> scratch, after;
    f.wire(broken, scratch, /*poison_at=*/4);
    if (colocated_fails) {
      EXPECT_THROW(broken.run_colocated(10), std::runtime_error);
    } else {
      EXPECT_THROW(broken.run(iterations(10)), std::runtime_error);
    }
    f.wire(broken, after);
    broken.reset_invocations();
    if (colocated_fails) {
      guarded.iterations = 30;
      EXPECT_NO_THROW(broken.run(guarded));
    } else {
      broken.run_colocated(30);
    }
    EXPECT_EQ(after, reference);
  };
  recovers(true);
  recovers(false);
}

using EventKey = std::tuple<obs::FlightEventKind, std::int32_t, std::int32_t>;

/// The (kind, actor, edge) multiset of one run's firing and token events.
std::vector<EventKey> token_events(obs::FlightRecorder& recorder) {
  std::vector<EventKey> keys;
  for (const obs::FlightEvent& e : recorder.collect().events)
    if (e.kind == obs::FlightEventKind::kFireBegin || e.kind == obs::FlightEventKind::kFireEnd ||
        e.kind == obs::FlightEventKind::kSend || e.kind == obs::FlightEventKind::kReceive)
      keys.emplace_back(e.kind, e.actor, e.edge);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ColocatedRecords, ArmedColocatedIterationRecordsWhatAGangIterationRecords) {
  const serve::PlanServerOptions served;
  const apps::ParticleFilterApp app(served.particle_pes, served.particle_params);
  const ExecutablePlan& plan = app.system().plan();
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs(1);
  jobs[0].synthetic_steps = 4;
  obs::FlightRecorder recorder(plan.proc_count);
  JobInstance instance(plan);
  instance.set_flight_recorder(&recorder);
  app.bind_batch(jobs, instance);

  instance.run(iterations(1));
  const std::vector<EventKey> gang = token_events(recorder);
  instance.run_colocated(1);
  const std::vector<EventKey> colocated = token_events(recorder);
  EXPECT_EQ(colocated, gang);
  const auto count = [&](obs::FlightEventKind kind) {
    return std::count_if(gang.begin(), gang.end(),
                         [&](const EventKey& key) { return std::get<0>(key) == kind; });
  };
  EXPECT_EQ(count(obs::FlightEventKind::kFireBegin),
            static_cast<std::ptrdiff_t>(plan.pass.firings.size()));
  EXPECT_GT(count(obs::FlightEventKind::kSend), 0);
  EXPECT_EQ(count(obs::FlightEventKind::kSend), count(obs::FlightEventKind::kReceive));

  // Disarmed, neither run kind records anything.
  recorder.set_armed(false);
  instance.run_colocated(1);
  instance.run(iterations(1));
  EXPECT_TRUE(token_events(recorder).empty());
}

TEST(ColocatedRecords, FlightSequencesContinueAcrossRunKinds) {
  // Every receive of a token sent within the log matches its send by
  // (edge, seq), however the runs alternate; only the two delay tokens,
  // placed before recording started, have no send.
  FeedbackFixture f;
  const ExecutablePlan& plan = f.plan;
  obs::FlightRecorder recorder(plan.proc_count);
  std::vector<double> sink;
  JobInstance instance(plan);
  instance.set_flight_recorder(&recorder);
  f.wire(instance, sink);
  instance.run(iterations(3));
  instance.run_colocated(4);
  instance.run(iterations(2));
  instance.run_colocated(1);

  std::vector<std::pair<std::int32_t, std::int64_t>> sends, receives;
  for (const obs::FlightEvent& e : recorder.collect().events) {
    if (e.kind == obs::FlightEventKind::kSend) sends.emplace_back(e.edge, e.seq);
    if (e.kind == obs::FlightEventKind::kReceive) receives.emplace_back(e.edge, e.seq);
  }
  std::sort(sends.begin(), sends.end());
  std::sort(receives.begin(), receives.end());
  ASSERT_EQ(sends.size(), 20u);
  ASSERT_EQ(receives.size(), 20u);
  std::vector<std::pair<std::int32_t, std::int64_t>> unmatched;
  std::set_difference(receives.begin(), receives.end(), sends.begin(), sends.end(),
                      std::back_inserter(unmatched));
  const std::vector<std::pair<std::int32_t, std::int64_t>> delay_tokens{{f.back, 0}, {f.back, 1}};
  EXPECT_EQ(unmatched, delay_tokens);
}

}  // namespace
}  // namespace spi::core
