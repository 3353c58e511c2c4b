/// \file workload.hpp
/// The two workloads (perfbench/README.md says why each exists), the
/// request pools generated from a seed, and the reference answers every
/// response is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "openloop.hpp"
#include "serve/plan_server.hpp"

namespace perfbench {

namespace apps = spi::apps;
namespace core = spi::core;
namespace df = spi::df;
namespace dsp = spi::dsp;
namespace obs = spi::obs;
namespace sched = spi::sched;
namespace serve = spi::serve;

/// Keep-alive connections of every open loop; bursts go to them in turn.
inline constexpr int kConnections = 4;
/// Requests per burst on one connection, every workload.
inline constexpr int kBurst = 16;

struct WorkloadSpec {
  std::string name;

  // Traffic: the open loop of the end-to-end run and of the traced serve
  // probe.
  int tenants = 1;                 ///< round robin t0..t{n-1}
  bool particle_majority = false;  ///< particle jobs with a speech trickle
  /// Trajectory lengths. Pool entry k of tenant k % tenants gets length
  /// (k / tenants) % size, so a burst whose size is a multiple of
  /// tenants * size holds every length equally often for every tenant.
  std::vector<std::int64_t> particle_steps;
  double nominal_rps = 0.0;   ///< latency is reported at this offered rate
  double limit_us = 0.0;      ///< p99 limit of the sustained-rate rule
  double grid_lo = 0.0;       ///< fixed geometric rate grid of the rule
  double grid_hi = 0.0;
  double step_seconds = 1.0;  ///< judged part of one grid step

  /// The models the server hosts: spi_served's shipped defaults.
  serve::PlanServerOptions server;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const WorkloadSpec& workload(const std::string& name);

/// A workload's request pool and the reference answer of every entry.
struct JobSet {
  std::vector<Request> pool;
  std::vector<std::string> expected_body;  ///< the server's rendering of the reference
  /// Per pool entry: index into speech_* (speech) or particle_* (particle).
  std::vector<std::size_t> ref;
  std::vector<apps::ErrorGenApp::SpeechJobSpec> speech_jobs;
  std::vector<std::vector<double>> speech_errors;  ///< SpeechCompressor::frame_errors
  std::vector<apps::ParticleFilterApp::ParticleJobSpec> particle_jobs;
  std::vector<double> particle_estimate;  ///< ParticleFilterApp::track, last estimate
  std::vector<double> particle_rmse;
};

[[nodiscard]] JobSet make_jobs(const WorkloadSpec& spec, std::uint64_t seed);

/// 200 with the reference output bit for bit = kOk; 429 = kRefused;
/// 200 with another output = kWrong; anything else = kFailed.
[[nodiscard]] Outcome check_response(const JobSet& jobs, std::size_t index, int status,
                                     std::string_view body);

/// Bitwise equality of two double sequences.
[[nodiscard]] bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench
