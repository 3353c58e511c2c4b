#include "core/spsc_channel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/particle_filter.hpp"
#include "obs/flight_recorder.hpp"

namespace spi::core {
namespace {

Bytes make_token(std::size_t size, std::uint8_t tag) {
  Bytes token(size);
  for (std::size_t i = 0; i < size; ++i)
    token[i] = static_cast<std::uint8_t>(tag + i);
  return token;
}

TEST(SpscChannel, CapacityBoundsAcceptedTokens) {
  SpscChannel channel(/*edge=*/0, /*capacity=*/4, /*frame_bound=*/16);
  EXPECT_EQ(channel.capacity(), 4u);
  EXPECT_EQ(channel.frame_bound(), 16u);

  std::span<std::uint8_t> slot;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(channel.try_acquire(slot)) << "slot " << i;
    ASSERT_EQ(slot.size(), 16u);
    slot[0] = static_cast<std::uint8_t>(i);
    channel.publish(1);
  }
  // Full: the producer's fast path must fail, not overwrite.
  EXPECT_FALSE(channel.try_acquire(slot));
  EXPECT_EQ(channel.size(), 4u);

  std::span<const std::uint8_t> token;
  ASSERT_TRUE(channel.try_front(token));
  EXPECT_EQ(token.size(), 1u);
  EXPECT_EQ(token[0], 0);
  channel.pop();
  // One slot freed: exactly one more acquire succeeds.
  EXPECT_TRUE(channel.try_acquire(slot));
  channel.publish(0);
  EXPECT_FALSE(channel.try_acquire(slot));
}

TEST(SpscChannel, WraparoundPreservesFifoOrderAndBytes) {
  SpscChannel channel(/*edge=*/1, /*capacity=*/3, /*frame_bound=*/64);
  // Many times the capacity, with varying sizes, so head/tail wrap the
  // slab repeatedly and the sizes_ ring is exercised.
  Bytes out;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::size_t size = 1 + (i * 7) % 64;
    const Bytes token = make_token(size, static_cast<std::uint8_t>(i));
    channel.push({token.data(), token.size()});
    channel.pop_into(out);
    ASSERT_EQ(out, token) << "token " << i;
  }
  EXPECT_EQ(channel.size(), 0u);
}

TEST(SpscChannel, FrameBoundViolationsThrow) {
  SpscChannel channel(/*edge=*/2, /*capacity=*/2, /*frame_bound=*/8);
  const Bytes big(9, 0xAB);
  EXPECT_THROW(channel.push({big.data(), big.size()}), std::length_error);
  const std::span<std::uint8_t> slot = channel.acquire();
  EXPECT_EQ(slot.size(), 8u);
  EXPECT_THROW(channel.publish(9), std::length_error);
  channel.publish(8);  // the slot is still valid after the failed publish
  EXPECT_EQ(channel.size(), 1u);
}

TEST(SpscChannel, InterruptUnparksBlockedConsumer) {
  std::atomic<bool> abort{false};
  SpscChannel channel(/*edge=*/3, /*capacity=*/2, /*frame_bound=*/8, &abort);

  std::atomic<bool> threw{false};
  std::thread consumer([&] {
    try {
      Bytes out;
      channel.pop_into(out);  // empty channel: parks
    } catch (const ChannelInterrupted&) {
      threw.store(true);
    }
  });
  // Give the consumer time to pass the spin/yield phases and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  abort.store(true);
  channel.interrupt();
  consumer.join();
  EXPECT_TRUE(threw.load());
}

TEST(SpscChannel, DeadlineWaitReturnsNoEarlierThanTheDeadline) {
  SpscChannel channel(/*edge=*/5, /*capacity=*/2, /*frame_bound=*/8);
  for (const auto wait : {std::chrono::milliseconds(0), std::chrono::milliseconds(30)}) {
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + wait;
    std::span<const std::uint8_t> token;
    EXPECT_FALSE(channel.front_until(deadline, token));
    EXPECT_GE(std::chrono::steady_clock::now(), deadline);
    // Timed out, but not stuck: the next wait is its own.
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  }
  // A published token is returned at once, whatever the deadline.
  const Bytes token = make_token(8, 0x21);
  channel.push({token.data(), token.size()});
  std::span<const std::uint8_t> front;
  ASSERT_TRUE(channel.front_until(std::chrono::steady_clock::now(), front));
  EXPECT_EQ(Bytes(front.begin(), front.end()), token);
}

TEST(SpscChannel, PublishWakesAParkedDeadlineWaiter) {
  // No lost wakeup: a consumer parked on a distant deadline is woken by
  // the publish, many times over, each well before the deadline.
  SpscChannel channel(/*edge=*/6, /*capacity=*/1, /*frame_bound=*/8);
  constexpr int kRounds = 20;
  std::thread producer([&] {
    for (int i = 0; i < kRounds; ++i) {
      // Long enough for the consumer to pass spin and yield and park.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const Bytes token = make_token(8, static_cast<std::uint8_t>(i));
      channel.push({token.data(), token.size()});
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::span<const std::uint8_t> token;
    ASSERT_TRUE(channel.front_until(start + std::chrono::seconds(30), token)) << "round " << i;
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
    EXPECT_EQ(token[0], static_cast<std::uint8_t>(i));
    channel.pop();
  }
  producer.join();
}

TEST(SpscChannel, AbortWinsOverTheDeadline) {
  std::atomic<bool> abort{false};
  SpscChannel channel(/*edge=*/7, /*capacity=*/2, /*frame_bound=*/8, &abort);
  std::atomic<bool> threw{false};
  const auto start = std::chrono::steady_clock::now();
  std::thread consumer([&] {
    try {
      std::span<const std::uint8_t> token;
      (void)channel.front_until(start + std::chrono::seconds(30), token);
    } catch (const ChannelInterrupted&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  abort.store(true);
  channel.interrupt();
  consumer.join();
  EXPECT_TRUE(threw.load());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  // Aborted with the deadline already past: still the abort, not a
  // timeout.
  std::span<const std::uint8_t> token;
  EXPECT_THROW((void)channel.front_until(std::chrono::steady_clock::now(), token),
               ChannelInterrupted);
}

TEST(SpscChannel, InterruptUnparksBlockedProducer) {
  std::atomic<bool> abort{false};
  SpscChannel channel(/*edge=*/4, /*capacity=*/1, /*frame_bound=*/8, &abort);
  const Bytes token(8, 0x11);
  channel.push({token.data(), token.size()});  // channel now full

  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      channel.push({token.data(), token.size()});  // parks on full channel
    } catch (const ChannelInterrupted&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  abort.store(true);
  channel.interrupt();
  producer.join();
  EXPECT_TRUE(threw.load());
}

TEST(SpscChannel, AbortLeavesPublishedTokensReadable) {
  std::atomic<bool> abort{false};
  SpscChannel channel(/*edge=*/5, /*capacity=*/4, /*frame_bound=*/8);
  const Bytes token(8, 0x22);
  channel.push({token.data(), token.size()});
  abort.store(true);
  // A non-empty channel still serves its tokens after the abort flag is
  // raised — the consumer drains before unwinding.
  Bytes out;
  channel.pop_into(out);
  EXPECT_EQ(out, token);
}

/// Two-thread soak: every byte of every token crosses the channel intact
/// and in order, under enough volume to wrap the slab thousands of
/// times. This is the test the TSan CI job leans on.
TEST(SpscChannel, TwoThreadSoakDeliversEverythingInOrder) {
  constexpr std::uint32_t kTokens = 100000;
  constexpr std::size_t kFrameBound = 32;
  std::atomic<bool> abort{false};
  SpscChannel channel(/*edge=*/6, /*capacity=*/8, /*frame_bound=*/kFrameBound, &abort);

  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kTokens; ++i) {
      const std::span<std::uint8_t> slot = channel.acquire();
      const std::size_t size = 4 + (i % (kFrameBound - 4));
      std::memcpy(slot.data(), &i, sizeof(i));
      for (std::size_t b = sizeof(i); b < size; ++b)
        slot[b] = static_cast<std::uint8_t>(i + b);
      channel.publish(size);
    }
  });

  std::uint64_t mismatches = 0;
  for (std::uint32_t i = 0; i < kTokens; ++i) {
    const std::span<const std::uint8_t> token = channel.front();
    std::uint32_t seq = 0;
    std::memcpy(&seq, token.data(), sizeof(seq));
    if (seq != i || token.size() != 4 + (i % (kFrameBound - 4))) ++mismatches;
    for (std::size_t b = sizeof(seq); b < token.size(); ++b)
      if (token[b] != static_cast<std::uint8_t>(i + b)) ++mismatches;
    channel.pop();
  }
  producer.join();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(channel.size(), 0u);
}

TEST(SpscChannel, CountersTrackBlocksOnBothSides) {
  obs::MetricRegistry registry;
  SpscCounters counters;
  counters.producer_blocks = &registry.counter("p_blocks", {}, "");
  counters.consumer_blocks = &registry.counter("c_blocks", {}, "");
  counters.producer_block_micros = &registry.counter("p_micros", {}, "");
  counters.consumer_block_micros = &registry.counter("c_micros", {}, "");

  std::atomic<bool> abort{false};
  SpscChannel channel(/*edge=*/7, /*capacity=*/1, /*frame_bound=*/8, &abort);
  channel.set_counters(counters);

  const Bytes token(8, 0x33);
  std::thread consumer([&] {
    Bytes out;
    for (int i = 0; i < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      channel.pop_into(out);
    }
  });
  channel.push({token.data(), token.size()});
  channel.push({token.data(), token.size()});  // full until the consumer drains
  consumer.join();

  // The consumer slept before each pop while the producer raced ahead,
  // so at least one side must have registered a wait.
  EXPECT_GT(counters.producer_blocks->value() + counters.consumer_blocks->value(), 0);
}

TEST(SpscChannel, FlightEventsRecordSendReceiveAndParkOnlyBlocks) {
  obs::FlightRecorder recorder(/*proc_count=*/2);
  ChannelFlightCtx producer_ctx{&recorder, /*proc=*/0, /*actor=*/10, /*iteration=*/0};
  ChannelFlightCtx consumer_ctx{&recorder, /*proc=*/1, /*actor=*/11, /*iteration=*/0};

  SpscChannel channel(/*edge=*/9, /*capacity=*/4, /*frame_bound=*/8);
  const Bytes token(8, 0x44);
  // Uncontended transfers: sends and receives must appear, block events
  // must not — the fast path and even a spin wait are not "blocked".
  for (int i = 0; i < 3; ++i) channel.push({token.data(), token.size()}, &producer_ctx);
  Bytes out;
  for (int i = 0; i < 3; ++i) channel.pop_into(out, &consumer_ctx);

  const obs::FlightLog log = recorder.collect();
  int sends = 0, receives = 0, blocks = 0;
  for (const obs::FlightEvent& e : log.events) {
    if (e.kind == obs::FlightEventKind::kSend) {
      EXPECT_EQ(e.proc, 0);
      EXPECT_EQ(e.edge, 9);
      EXPECT_EQ(e.seq, sends);
      ++sends;
    } else if (e.kind == obs::FlightEventKind::kReceive) {
      EXPECT_EQ(e.proc, 1);
      EXPECT_EQ(e.seq, receives);
      ++receives;
    } else if (e.kind == obs::FlightEventKind::kBlockBegin ||
               e.kind == obs::FlightEventKind::kBlockEnd) {
      ++blocks;
    }
  }
  EXPECT_EQ(sends, 3);
  EXPECT_EQ(receives, 3);
  EXPECT_EQ(blocks, 0);
}

TEST(ThreadedRuntimeChannels, RuntimeListsEveryPlanChannelWithItsReliability) {
  apps::SpeechParams params;
  params.frame_size = 64;
  params.max_frame_size = 256;
  const apps::ErrorGenApp app(2, params);
  const ExecutablePlan& plan = app.system().plan();
  ASSERT_FALSE(plan.channels.empty());

  // Each plan channel's /runtime entry, by edge id.
  const auto entry = [](const std::string& status, const ChannelSpec& spec) {
    const std::size_t at = status.find("{\"edge\":" + std::to_string(spec.edge) + ",");
    if (at == std::string::npos) return std::string();
    return status.substr(at, status.find('}', at) - at + 1);
  };
  for (const bool enabled : {false, true}) {
    ReliabilityOptions reliability;
    reliability.enabled = enabled;
    JobInstance runtime(plan, {reliability, nullptr, {}});
    runtime.run(3);
    const std::string status = runtime.runtime_status_json();
    for (const ChannelSpec& spec : plan.channels) {
      const std::string channel = entry(status, spec);
      ASSERT_FALSE(channel.empty()) << spec.name << " missing from " << status;
      EXPECT_NE(channel.find("\"name\":\"" + spec.name + "\""), std::string::npos) << channel;
      EXPECT_NE(channel.find("\"capacity_tokens\":" + std::to_string(spec.capacity_tokens()) + ","),
                std::string::npos)
          << channel;
      EXPECT_NE(channel.find(std::string("\"reliable\":") + (enabled ? "true" : "false")),
                std::string::npos)
          << channel;
    }
    EXPECT_GT(runtime.stats().messages, 0);
  }
}

/// Plan-parity: the speech app produces bit-identical error values on
/// the SPSC path and the sequential reference.
TEST(ThreadedRuntimeChannels, SpeechAppBitIdenticalAcrossChannelPolicies) {
  apps::SpeechParams params;
  params.frame_size = 128;
  params.max_frame_size = 512;
  const apps::ErrorGenApp app(3, params);
  const apps::SpeechCompressor reference(params);

  std::vector<double> frame(params.frame_size);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame[i] = std::sin(0.07 * static_cast<double>(i)) + 0.25 * std::sin(0.31 * static_cast<double>(i));
  const std::vector<double> coeffs = reference.frame_coefficients(frame);

  const std::vector<double> parallel = app.compute_errors_parallel(frame, coeffs);
  const std::vector<double> spsc = app.compute_errors_threaded(frame, coeffs);

  ASSERT_EQ(spsc.size(), parallel.size());
  for (std::size_t i = 0; i < parallel.size(); ++i)
    EXPECT_EQ(spsc[i], parallel[i]) << "sample " << i;
}

/// Plan-parity on the second application: distributed particle tracking
/// produces bit-identical estimates on the SPSC path and in the sequential
/// colocated run of track().
TEST(ThreadedRuntimeChannels, ParticleAppBitIdenticalAcrossChannelPolicies) {
  apps::ParticleParams params;
  params.particles = 64;
  params.max_particles = 128;
  const apps::ParticleFilterApp app(2, params);
  dsp::Rng rng(7);
  const dsp::CrackTrajectory trajectory = dsp::simulate_crack(params.model, /*steps=*/25, rng);

  const apps::TrackResult functional = app.track(trajectory);
  const apps::TrackResult spsc = app.track_threaded(trajectory);

  ASSERT_EQ(spsc.estimates.size(), functional.estimates.size());
  for (std::size_t i = 0; i < functional.estimates.size(); ++i)
    EXPECT_EQ(spsc.estimates[i], functional.estimates[i]) << "step " << i;
  EXPECT_EQ(spsc.resample_steps, functional.resample_steps);
  EXPECT_EQ(spsc.particles_exchanged, functional.particles_exchanged);
}

}  // namespace
}  // namespace spi::core
