/// \file micro_channel.cpp
/// google-benchmark microbenchmarks of the threaded runtime's channel:
/// the lock-free slab-backed SpscChannel against a bounded mutex+condvar
/// deque of Bytes defined here (MutexQueue) — the structure the runtime's
/// channels used before the slab ring, kept as the Blocking* baseline.
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
/// included, allocates nothing. BM_ColocatedBatchWatchdog times a served
/// speech batch with the progress watchdog off and on, and
/// BM_ServedColocatedIteration one graph iteration of either served
/// model built exactly as spi_served builds it. BM_JsonArrayField and
/// BM_AppendJsonNumber time the serve layer's request scanner and reply
/// renderer on 64 numbers, each next to a std::from_chars /
/// std::to_chars baseline timed in the same run (`vs_baseline` is their
/// ratio; no gate reads it).
///
/// bench/perf_smoke.sh gates CI on the Stream pair (SPSC throughput
/// regressing below the MutexQueue baseline fails the build) and on
/// the watchdog pair (a watched batch costing over 1.2x an unwatched one).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <new>
#include <thread>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "core/spsc_channel.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
#include "serve/plan_server.hpp"
#include "serve/request.hpp"

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

// Counting global allocator (TU-wide): lets BM_SpscSteadyStateAllocs
// assert zero allocations on the hot path instead of trusting a code
// read. Counting is relaxed — the assertion runs single-threaded. None
// of them is inlined: GCC would otherwise see malloc'd memory from an
// inlined operator new reach operator delete (or free) and flag it as
// mismatched (-Wmismatched-new-delete), failing -Werror builds.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace spi;
using core::Bytes;

constexpr std::size_t kQueueDepth = 64;

/// The baseline: a bounded FIFO of Bytes behind one mutex and two
/// condition variables, plain push/pop only.
class MutexQueue {
 public:
  explicit MutexQueue(std::size_t capacity) : capacity_(capacity) {}

  void push(Bytes token) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return queue_.size() < capacity_; });
    queue_.push_back(std::move(token));
    not_empty_.notify_one();
  }

  Bytes pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !queue_.empty(); });
    Bytes token = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return token;
  }

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Bytes> queue_;
};

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
  MutexQueue fwd(kQueueDepth);
  MutexQueue rev(kQueueDepth);

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
  MutexQueue channel(kQueueDepth);

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

/// A 4-job speech batch of mixed frame sizes within the served speech
/// model's bounds.
std::vector<apps::ErrorGenApp::SpeechJobSpec> speech_batch(const serve::PlanServerOptions& served) {
  dsp::Rng rng(9);
  std::vector<apps::ErrorGenApp::SpeechJobSpec> jobs;
  for (const std::size_t size : {64, 256, 17, 200}) {
    apps::ErrorGenApp::SpeechJobSpec job;
    job.frame = dsp::synthetic_speech(size, rng);
    job.coeffs.assign(served.speech_params.max_order - size % 5, 0.125);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The allocation-free colocated firing path, enforced on both served
/// models (PlanServer's built-in shapes) with their real computes:
/// once the instance's token buffers are warm, run_colocated must not
/// touch the heap. Arg 0 = speech (one batch of mixed frame sizes,
/// re-run), 1 = particle (one long batch of mixed trajectory lengths
/// stepped an iteration at a time, since job state advances).
void BM_ColocatedAppSteadyStateAllocs(benchmark::State& state) {
  const serve::PlanServerOptions served;
  if (state.range(0) == 0) {
    const apps::ErrorGenApp app(served.speech_pes, served.speech_params);
    core::JobInstance instance(app.system().plan());
    const auto jobs = speech_batch(served);
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
  // Jobs of mixed lengths, as the server runs them in arrival order:
  // a warm-up job, then enough jobs for every measured iteration, so the
  // window crosses job boundaries of differing lengths.
  constexpr std::int64_t kWarmSteps = 320;
  constexpr std::int64_t kLengths[] = {64, 320, 1, 128, 256, 17};
  const std::int64_t needed = kWarmSteps + static_cast<std::int64_t>(state.max_iterations);
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs;
  for (std::int64_t steps = 0, j = 0; steps < needed; ++j) {
    const std::int64_t length = j == 0 ? kWarmSteps : kLengths[static_cast<std::size_t>(j - 1) % std::size(kLengths)];
    apps::ParticleFilterApp::ParticleJobSpec job;
    job.seed = 100 + static_cast<std::uint64_t>(j);
    dsp::Rng rng(job.seed + 1);
    job.trajectory = dsp::simulate_crack(served.particle_params.model,
                                         static_cast<std::size_t>(length), rng);
    jobs.push_back(std::move(job));
    steps += length;
  }
  app.bind_batch(jobs, instance);
  instance.run_colocated(kWarmSteps);  // the whole first job warms the buffers

  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) instance.run_colocated(1);
  report_allocs(state, g_alloc_count.load(std::memory_order_relaxed) - before,
                static_cast<std::int64_t>(state.iterations()),
                "warm colocated particle iteration allocated on the heap");
}
BENCHMARK(BM_ColocatedAppSteadyStateAllocs)->Arg(0)->Arg(1)->Iterations(4000);

/// What the progress watchdog adds to one served batch: the 4-job speech
/// batch wired by bind_batch and run by run_colocated, with the watchdog
/// off (Arg 0) and on (Arg 1, with spi_served's settings: a 2 s window
/// that never aborts). bench/perf_smoke.sh gates watched <= 1.2x
/// unwatched: arming must cost a batch next to nothing.
void BM_ColocatedBatchWatchdog(benchmark::State& state) {
  const serve::PlanServerOptions served;
  const apps::ErrorGenApp app(served.speech_pes, served.speech_params);
  core::JobInstance instance(app.system().plan());
  const auto jobs = speech_batch(served);
  std::vector<std::vector<double>> results;
  for (const auto& job : jobs) results.emplace_back(job.frame.size(), 0.0);
  core::RunOptions options;
  options.iterations = static_cast<std::int64_t>(jobs.size());
  options.watchdog.enabled = state.range(0) == 1;
  options.watchdog.window_ms = 2000;
  options.watchdog.abort_on_stall = false;
  for (auto _ : state) {
    app.bind_batch(jobs, instance, results);
    instance.run_colocated(options);
    benchmark::DoNotOptimize(results.front().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ColocatedBatchWatchdog)->Arg(0)->Arg(1)->UseRealTime();

/// One served graph iteration as spi_served runs it: the instance is
/// built like PlanServer's model (shared registry, model label, flight
/// recorder attached but disarmed) and every run arms the watchdog at
/// spi_served's 2 s window. Arg 0 = speech, a 16-job batch per run;
/// Arg 1 = particle, one synthetic 128-step job per run through
/// track_batch. `per_graph_iter` is the wall time of one graph iteration.
void BM_ServedColocatedIteration(benchmark::State& state) {
  const serve::PlanServerOptions served;
  obs::MetricRegistry metrics;
  core::RunOptions options;
  options.watchdog.enabled = true;
  options.watchdog.window_ms = 2000;
  options.watchdog.abort_on_stall = false;
  const auto run_served = [&](const core::ExecutablePlan& plan, const char* label,
                              std::int64_t iterations_per_run, const auto& run) {
    obs::FlightRecorder flight(plan.proc_count);
    core::JobInstance instance(plan, core::JobInstanceOptions{{}, &metrics, label});
    instance.set_flight_recorder(&flight);
    flight.set_armed(false);
    run(instance);  // warm the token buffers
    for (auto _ : state) run(instance);
    state.counters["per_graph_iter"] = benchmark::Counter(
        static_cast<double>(state.iterations() * iterations_per_run),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  };

  if (state.range(0) == 0) {
    const apps::ErrorGenApp app(served.speech_pes, served.speech_params);
    dsp::Rng rng(11);
    std::vector<apps::ErrorGenApp::SpeechJobSpec> jobs(16);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      jobs[k].frame = dsp::synthetic_speech(16 + 15 * k, rng);
      jobs[k].coeffs.assign(1 + k % served.speech_params.max_order, 0.125);
    }
    options.iterations = static_cast<std::int64_t>(jobs.size());
    run_served(app.system().plan(), "speech", options.iterations,
               [&](core::JobInstance& instance) {
                 const auto errors = app.compute_errors_batch(jobs, instance, &options);
                 benchmark::DoNotOptimize(errors.data());
               });
    return;
  }

  const apps::ParticleFilterApp app(served.particle_pes, served.particle_params);
  constexpr std::int64_t kSteps = 128;
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs(1);
  jobs[0].seed = 5;
  jobs[0].synthetic_steps = kSteps;
  run_served(app.system().plan(), "particle", kSteps, [&](core::JobInstance& instance) {
    const auto results = app.track_batch(jobs, instance, &options);
    benchmark::DoNotOptimize(results.data());
  });
}
BENCHMARK(BM_ServedColocatedIteration)->Arg(0)->Arg(1)->UseRealTime();

/// 64 numbers as a speech job's frame carries them ("%.5f" in [-1, 1)).
std::vector<double> frame_values() {
  dsp::Rng rng(64);
  std::vector<double> values(64);
  for (double& v : values) v = rng.uniform(-1.0, 1.0);
  return values;
}

/// Wall ns since `start`.
double ns_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
}

/// Times `baseline` over as many calls as the state loop made, then
/// reports ns per number of both (`elapsed_ns` is the state loop's wall
/// time) and `vs_baseline`, their ratio.
template <class Baseline>
void report_against_baseline(benchmark::State& state, std::size_t numbers, double elapsed_ns,
                             const Baseline& baseline) {
  const std::int64_t calls = std::max<std::int64_t>(1, state.iterations());
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < calls; ++i) baseline();
  const double baseline_ns = ns_since(start) / static_cast<double>(calls);
  const double per_call = elapsed_ns / static_cast<double>(calls);
  state.counters["ns_per_number"] = per_call / static_cast<double>(numbers);
  state.counters["baseline_ns_per_number"] = baseline_ns / static_cast<double>(numbers);
  state.counters["vs_baseline"] = per_call / baseline_ns;
}

/// The request scanner on one 64-number "%.5f" frame field, against a
/// bare std::from_chars loop over the same text (no grammar check).
void BM_JsonArrayField(benchmark::State& state) {
  const std::vector<double> values = frame_values();
  std::string body = "{\"app\":\"speech\",\"frame\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, i == 0 ? "%.5f" : ",%.5f", values[i]);
    body += buf;
  }
  body += "]}";
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto parsed = serve::json_array_field(body, "frame");
    benchmark::DoNotOptimize(parsed->data());
  }
  report_against_baseline(state, values.size(), ns_since(start), [&] {
    std::vector<double> parsed;
    parsed.reserve(values.size());
    const char* p = body.data() + body.find('[') + 1;
    const char* end = body.data() + body.size();
    for (double v = 0.0; p < end && *p != ']'; p += *p == ',') {
      p = std::from_chars(p, end, v).ptr;
      parsed.push_back(v);
    }
    benchmark::DoNotOptimize(parsed.data());
  });
}
BENCHMARK(BM_JsonArrayField);

/// The reply renderer on 64 error-sized values, against
/// std::to_chars(general, 17) on the same values.
void BM_AppendJsonNumber(benchmark::State& state) {
  std::vector<double> values = frame_values();
  for (std::size_t i = 0; i < values.size(); i += 4) values[i] *= 1e-3;  // some below 0.1
  std::string out;
  out.reserve(64 * 25);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    out.clear();
    for (const double v : values) serve::append_json_number(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  report_against_baseline(state, values.size(), ns_since(start), [&] {
    out.clear();
    for (const double v : values) {
      char buf[32];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  });
}
BENCHMARK(BM_AppendJsonNumber);

}  // namespace

BENCHMARK_MAIN();
