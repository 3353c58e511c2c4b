/// \file micro_channel.cpp
/// google-benchmark microbenchmarks of the threaded runtime's channels:
/// the lock-free slab-backed SpscChannel against the mutex+condvar
/// BlockingChannel it replaced on plain edges.
///
/// Two shapes per payload size (8 B / 256 B / 4 KiB):
///  * PingPong — request/response across two channels; measures one
///    round-trip of latency including the wakeup path.
///  * Stream — producer pushes flat out while a drain thread consumes;
///    measures sustained throughput under contention (bytes/s reported).
///
/// BM_SpscSteadyStateAllocs additionally *asserts* the tentpole claim:
/// this translation unit replaces global operator new/delete with
/// counting versions, and the benchmark fails (SkipWithError) if a
/// steady-state send/receive cycle performs any heap allocation.
/// BM_ColocatedAppSteadyStateAllocs asserts the same one layer up: a
/// warm colocated iteration of either served model, real computes
/// included, allocates nothing.
///
/// bench/perf_smoke.sh gates CI on the Stream pair: SPSC throughput
/// regressing below the BlockingChannel baseline fails the build.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/blocking_channel.hpp"
#include "core/job_instance.hpp"
#include "core/spsc_channel.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
#include "serve/plan_server.hpp"

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

// Counting global allocator (TU-wide): lets BM_SpscSteadyStateAllocs
// assert zero allocations on the hot path instead of trusting a code
// read. Counting is relaxed — the assertion runs single-threaded.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace spi;
using core::Bytes;

constexpr std::size_t kQueueDepth = 64;

void BM_SpscPingPong(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  core::SpscChannel fwd(/*edge=*/0, kQueueDepth, size);
  core::SpscChannel rev(/*edge=*/1, kQueueDepth, size);

  std::thread echo([&] {
    for (;;) {
      const std::span<const std::uint8_t> token = fwd.front();
      const bool stop = token.empty();  // 0-byte frame = shutdown sentinel
      if (!stop) {
        const std::span<std::uint8_t> slot = rev.acquire();
        std::memcpy(slot.data(), token.data(), token.size());
        fwd.pop();
        rev.publish(size);
      } else {
        fwd.pop();
        break;
      }
    }
  });

  Bytes token(size, 0xA5);
  for (auto _ : state) {
    fwd.push({token.data(), token.size()});
    rev.pop_into(token);
  }
  (void)fwd.acquire();
  fwd.publish(0);
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size) * 2);
}
BENCHMARK(BM_SpscPingPong)->Arg(8)->Arg(256)->Arg(4096)->UseRealTime();

void BM_BlockingPingPong(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::atomic<bool> abort{false};
  core::BlockingChannel fwd(/*edge=*/0, kQueueDepth, abort);
  core::BlockingChannel rev(/*edge=*/1, kQueueDepth, abort);

  std::thread echo([&] {
    for (;;) {
      Bytes token = fwd.pop();
      if (token.empty()) break;  // empty token = shutdown sentinel
      rev.push(std::move(token));
    }
  });

  Bytes token(size, 0xA5);
  for (auto _ : state) {
    fwd.push(std::move(token));
    token = rev.pop();
  }
  fwd.push(Bytes{});
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size) * 2);
}
BENCHMARK(BM_BlockingPingPong)->Arg(8)->Arg(256)->Arg(4096)->UseRealTime();

void BM_SpscStream(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  core::SpscChannel channel(/*edge=*/0, kQueueDepth, size);

  std::thread drain([&] {
    for (;;) {
      const bool stop = channel.front().empty();
      channel.pop();
      if (stop) break;
    }
  });

  const Bytes token(size, 0x5A);
  for (auto _ : state) channel.push({token.data(), token.size()});
  (void)channel.acquire();
  channel.publish(0);
  drain.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_SpscStream)->Arg(8)->Arg(256)->Arg(4096)->UseRealTime();

void BM_BlockingStream(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::atomic<bool> abort{false};
  core::BlockingChannel channel(/*edge=*/0, kQueueDepth, abort);

  std::thread drain([&] {
    for (;;)
      if (channel.pop().empty()) break;
  });

  const Bytes token(size, 0x5A);
  // One Bytes copy per send — exactly what the pre-slab runtime paid to
  // hand a token to the channel.
  for (auto _ : state) channel.push(Bytes(token));
  channel.push(Bytes{});
  drain.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BlockingStream)->Arg(8)->Arg(256)->Arg(4096)->UseRealTime();

/// The zero-allocation claim, enforced: a warmed-up send/receive cycle
/// on the SPSC path must never touch the heap.
void BM_SpscSteadyStateAllocs(benchmark::State& state) {
  const std::size_t size = 256;
  core::SpscChannel channel(/*edge=*/0, /*capacity=*/8, size);
  const Bytes token(size, 0x77);
  Bytes out;
  out.reserve(size);  // pop_into reuses this capacity from then on
  for (int i = 0; i < 16; ++i) {
    channel.push({token.data(), token.size()});
    channel.pop_into(out);
  }

  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    channel.push({token.data(), token.size()});
    channel.pop_into(out);
  }
  const std::int64_t delta = g_alloc_count.load(std::memory_order_relaxed) - before;
  state.counters["allocs"] = static_cast<double>(delta);
  if (delta != 0)
    state.SkipWithError("steady-state SPSC send/receive allocated on the heap");
}
BENCHMARK(BM_SpscSteadyStateAllocs);

/// Fails the benchmark when the measured window allocated at all.
void report_allocs(benchmark::State& state, std::int64_t delta, std::int64_t graph_iterations,
                   const char* error) {
  state.counters["allocs"] = static_cast<double>(delta);
  state.counters["allocs_per_iter"] =
      static_cast<double>(delta) / static_cast<double>(std::max<std::int64_t>(1, graph_iterations));
  if (delta != 0) state.SkipWithError(error);
}

/// The allocation-free colocated firing path, enforced on both served
/// models (PlanServer's built-in shapes) with their real computes:
/// once the instance's token buffers are warm, run_colocated must not
/// touch the heap. Arg 0 = speech (one batch of mixed frame sizes,
/// re-run), 1 = particle (one long batch stepped an iteration at a
/// time, since job state advances).
void BM_ColocatedAppSteadyStateAllocs(benchmark::State& state) {
  const serve::PlanServerOptions served;
  if (state.range(0) == 0) {
    const apps::ErrorGenApp app(served.speech_pes, served.speech_params);
    core::JobInstance instance(app.system().plan());
    dsp::Rng rng(9);
    std::vector<apps::ErrorGenApp::SpeechJobSpec> jobs;
    for (const std::size_t size : {64, 256, 17, 200}) {
      apps::ErrorGenApp::SpeechJobSpec job;
      job.frame = dsp::synthetic_speech(size, rng);
      job.coeffs.assign(served.speech_params.max_order - size % 5, 0.125);
      jobs.push_back(std::move(job));
    }
    std::vector<std::vector<double>> results;
    for (const auto& job : jobs) results.emplace_back(job.frame.size(), 0.0);
    app.bind_batch(jobs, instance, results);
    const auto batch = static_cast<std::int64_t>(jobs.size());
    for (int warm = 0; warm < 4; ++warm) {
      instance.reset_invocations();
      instance.run_colocated(batch);
    }

    std::int64_t graph_iterations = 0;
    const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (auto _ : state) {
      instance.reset_invocations();
      instance.run_colocated(batch);
      graph_iterations += batch;
    }
    report_allocs(state, g_alloc_count.load(std::memory_order_relaxed) - before, graph_iterations,
                  "warm colocated speech iteration allocated on the heap");
    return;
  }

  const apps::ParticleFilterApp app(served.particle_pes, served.particle_params);
  core::JobInstance instance(app.system().plan());
  // Jobs of the serve-heavy lengths, enough of them for the warm-up job
  // plus every measured iteration.
  constexpr std::int64_t kSteps = 320;
  const std::int64_t needed = kSteps + static_cast<std::int64_t>(state.max_iterations);
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs;
  for (std::int64_t j = 0; j * kSteps < needed; ++j) {
    apps::ParticleFilterApp::ParticleJobSpec job;
    job.seed = 100 + static_cast<std::uint64_t>(j);
    dsp::Rng rng(job.seed + 1);
    job.trajectory = dsp::simulate_crack(served.particle_params.model, kSteps, rng);
    jobs.push_back(std::move(job));
  }
  app.bind_batch(jobs, instance);
  instance.run_colocated(kSteps);  // the whole first job warms the buffers

  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) instance.run_colocated(1);
  report_allocs(state, g_alloc_count.load(std::memory_order_relaxed) - before,
                static_cast<std::int64_t>(state.iterations()),
                "warm colocated particle iteration allocated on the heap");
}
BENCHMARK(BM_ColocatedAppSteadyStateAllocs)->Arg(0)->Arg(1)->Iterations(4000);

}  // namespace

BENCHMARK_MAIN();
