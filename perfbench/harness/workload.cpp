#include "workload.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
#include "net.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPoolSize = 2000;  ///< a multiple of every workload's burst
constexpr std::size_t kTrickleEvery = 50;  ///< every 50th request is the minority app
constexpr std::size_t kParticleSeeds = 4;  ///< distinct particle job seeds per length

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  // serve-small: front-end bound. A few us of exec per job, so parse,
  // routing, queueing, reply rendering and the socket dominate; 4 tenants
  // expose the tenant-by-tenant drain.
  WorkloadSpec small;
  small.name = "serve-small";
  small.tenants = 4;
  small.particle_steps = {8};
  small.nominal_rps = 4000;
  small.limit_us = 20000;
  small.grid_lo = 1000;
  small.grid_hi = 24000;
  small.step_seconds = 1.5;
  small.server.watchdog_ms = 2000;  // spi_served's default
  specs.push_back(small);

  // serve-heavy: exec bound. Long particle trajectories from a small set
  // of lengths, 2 tenants, a speech trickle. A burst of 16 carries two
  // jobs of every length for each tenant, so the server drains it as
  // length-split batches of two, and every burst costs about the same
  // (a burst of one length would make latency a mix of four modes).
  WorkloadSpec heavy;
  heavy.name = "serve-heavy";
  heavy.tenants = 2;
  heavy.particle_majority = true;
  heavy.particle_steps = {128, 192, 256, 320};
  heavy.nominal_rps = 150;
  heavy.limit_us = 100000;
  heavy.grid_lo = 100;
  heavy.grid_hi = 1600;
  heavy.step_seconds = 2.0;
  heavy.server.watchdog_ms = 2000;
  specs.push_back(heavy);
  return specs;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// The numbers of the JSON array following `"key":`.
std::optional<std::vector<double>> number_array(std::string_view body, std::string_view key) {
  const std::size_t at = body.find("\"" + std::string(key) + "\"");
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t open = body.find('[', at);
  const std::size_t close = body.find(']', open);
  if (open == std::string_view::npos || close == std::string_view::npos) return std::nullopt;
  const std::string text(body.substr(open + 1, close - open - 1));
  std::vector<double> values;
  const char* cursor = text.c_str();
  while (*cursor != '\0') {
    while (*cursor == ' ' || *cursor == ',') ++cursor;
    if (*cursor == '\0') break;
    char* next = nullptr;
    values.push_back(std::strtod(cursor, &next));
    if (next == cursor) return std::nullopt;
    cursor = next;
  }
  return values;
}

}  // namespace

const WorkloadSpec& workload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = make_specs();
  for (const WorkloadSpec& spec : specs)
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

JobSet make_jobs(const WorkloadSpec& spec, std::uint64_t seed) {
  JobSet jobs;
  dsp::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const apps::SpeechParams& lpc = spec.server.speech_params;
  const apps::SpeechCompressor compressor(lpc);

  // Particle references: one per (length, job seed) pair, from the
  // functional reference with the server's model parameters.
  const std::size_t lengths = spec.particle_steps.size();
  const auto tenants = static_cast<std::size_t>(spec.tenants);
  const std::size_t combos = lengths * kParticleSeeds;
  for (std::size_t c = 0; c < combos; ++c) {
    const std::int64_t steps = spec.particle_steps[c % lengths];
    apps::ParticleParams params = spec.server.particle_params;
    params.seed = 1000 + seed * 64 + c / lengths;
    const apps::ParticleFilterApp app(spec.server.particle_pes, params);
    dsp::Rng trajectory_rng(params.seed + 1);  // the server's trajectory stream
    apps::ParticleFilterApp::ParticleJobSpec job;
    job.seed = params.seed;
    job.trajectory =
        dsp::simulate_crack(params.model, static_cast<std::size_t>(steps), trajectory_rng);
    const apps::TrackResult result = app.track(job.trajectory);
    jobs.particle_jobs.push_back(std::move(job));
    jobs.particle_estimate.push_back(result.estimates.back());
    jobs.particle_rmse.push_back(result.rmse_vs_truth);
  }

  for (std::size_t k = 0; k < kPoolSize; ++k) {
    Request request;
    request.tenant = static_cast<int>(k % tenants);
    request.particle = spec.particle_majority != (k % kTrickleEvery == kTrickleEvery - 1);
    const std::string tenant = "\"tenant\":\"t" + std::to_string(request.tenant) + "\"";
    std::string expected;
    if (request.particle) {
      const std::size_t slot = k / tenants;
      const std::size_t c = slot % lengths + lengths * (slot / lengths % kParticleSeeds);
      const auto& job = jobs.particle_jobs[c];
      request.steps = static_cast<std::int64_t>(job.trajectory.observations.size());
      request.body = "{\"app\":\"particle\"," + tenant + ",\"steps\":" +
                     std::to_string(request.steps) + ",\"seed\":" + std::to_string(job.seed) + "}";
      expected = "{\"app\": \"particle\", \"steps\": " + std::to_string(request.steps) +
                 ", \"estimate\": ";
      append_double(expected, jobs.particle_estimate[c]);
      expected += ", \"rmse\": ";
      append_double(expected, jobs.particle_rmse[c]);
      jobs.ref.push_back(c);
    } else {
      // Samples travel as short decimals; the reference uses exactly the
      // doubles the server parses back out of the body.
      const std::vector<double> signal = dsp::synthetic_speech(lpc.frame_size, rng);
      apps::ErrorGenApp::SpeechJobSpec job;
      std::string frame_text;
      for (std::size_t i = 0; i < signal.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.5f", signal[i]);
        if (i != 0) frame_text += ',';
        frame_text += buf;
        job.frame.push_back(std::strtod(buf, nullptr));
      }
      job.coeffs = compressor.frame_coefficients(job.frame);
      std::string coeff_text;
      for (std::size_t i = 0; i < job.coeffs.size(); ++i) {
        if (i != 0) coeff_text += ',';
        append_double(coeff_text, job.coeffs[i]);
      }
      request.body = "{\"app\":\"speech\"," + tenant + ",\"frame\":[" + frame_text +
                     "],\"coeffs\":[" + coeff_text + "]}";
      std::vector<double> errors = compressor.frame_errors(job.frame, job.coeffs);
      expected = "{\"app\": \"speech\", \"errors\": [";
      for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i != 0) expected += ',';
        append_double(expected, errors[i]);
      }
      expected += ']';
      jobs.ref.push_back(jobs.speech_jobs.size());
      jobs.speech_jobs.push_back(std::move(job));
      jobs.speech_errors.push_back(std::move(errors));
    }
    expected += "}\n";
    jobs.expected_body.push_back(std::move(expected));
    jobs.pool.push_back(std::move(request));
  }
  return jobs;
}

Outcome check_response(const JobSet& jobs, std::size_t index, int status, std::string_view body) {
  if (status == 429) return Outcome::kRefused;
  if (status != 200) return Outcome::kFailed;
  if (body == jobs.expected_body[index]) return Outcome::kOk;
  // Slow path: the rendering may differ, the numbers may not.
  const std::size_t ref = jobs.ref[index];
  if (jobs.pool[index].particle) {
    const auto estimate = find_number(body, "estimate");
    const auto rmse = find_number(body, "rmse");
    const bool same = estimate && rmse &&
                      same_bits({*estimate, *rmse},
                                {jobs.particle_estimate[ref], jobs.particle_rmse[ref]});
    return same ? Outcome::kOk : Outcome::kWrong;
  }
  const auto errors = number_array(body, "errors");
  return errors && same_bits(*errors, jobs.speech_errors[ref]) ? Outcome::kOk : Outcome::kWrong;
}

}  // namespace perfbench
