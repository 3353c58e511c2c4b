/// Golden-bits regression of the served models' answers.
///
/// tools/golden/served_answers.txt pins, as hex bit patterns, what the
/// plan server's built-in models answer: the particle tracker's
/// estimates, RMSE, particles_exchanged and resample_steps for a few
/// seeds at lengths 8/128/320, and one explicit-I/O speech errors array.
/// The batched-vs-single-job suites compare new code with new code, so a
/// change that alters both paths the same way passes them; this file
/// was generated once and only changes on purpose.
///
/// Regenerate (only when an answer change is intended and explained):
///   SPI_GOLDEN_WRITE=tools/golden/served_answers.txt build/tests/test_golden_answers
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/particle_app.hpp"
#include "apps/speech_app.hpp"
#include "core/job_instance.hpp"
#include "dsp/lpc.hpp"
#include "dsp/particle_filter.hpp"
#include "dsp/rng.hpp"
#include "serve/plan_server.hpp"

namespace spi {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 11, 42};
constexpr std::size_t kLengths[] = {8, 128, 320};

std::string hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, std::bit_cast<std::uint64_t>(v));
  return buf;
}

double from_hex(const std::string& s) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(std::stoull(s, nullptr, 16)));
}

/// The served particle job of `seed` with `steps` observations, built
/// exactly as PlanServer builds an implicit-I/O particle job.
apps::ParticleFilterApp::ParticleJobSpec particle_job(const apps::ParticleParams& params,
                                                      std::uint64_t seed, std::size_t steps) {
  apps::ParticleFilterApp::ParticleJobSpec spec;
  spec.seed = seed;
  dsp::Rng rng(seed + 1);
  spec.trajectory = dsp::simulate_crack(params.model, steps, rng);
  return spec;
}

/// The explicit-I/O speech job: a synthetic frame and its LPC predictor.
apps::ErrorGenApp::SpeechJobSpec speech_job(const apps::SpeechParams& served) {
  apps::SpeechParams params = served;
  params.frame_size = 200;
  params.order = 6;
  dsp::Rng rng(5);
  apps::ErrorGenApp::SpeechJobSpec job;
  job.frame = dsp::synthetic_speech(params.frame_size, rng);
  job.coeffs = apps::SpeechCompressor(params).frame_coefficients(job.frame);
  return job;
}

std::string particle_line(std::uint64_t seed, std::size_t steps, const apps::TrackResult& r) {
  std::string line = "particle " + std::to_string(seed) + " " + std::to_string(steps) + " " +
                     std::to_string(r.resample_steps) + " " +
                     std::to_string(r.particles_exchanged) + " " + hex(r.rmse_vs_truth);
  for (const double e : r.estimates) line += " " + hex(e);
  return line;
}

std::string speech_line(const std::vector<double>& errors) {
  std::string line = "speech " + std::to_string(errors.size());
  for (const double e : errors) line += " " + hex(e);
  return line;
}

struct Golden {
  std::vector<std::string> particle;  ///< one line per (length, seed), kLengths-major
  std::string speech;
};

Golden load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Golden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("particle ", 0) == 0) golden.particle.push_back(line);
    else if (line.rfind("speech ", 0) == 0) golden.speech = line;
  }
  return golden;
}

/// Decodes the estimates of a golden particle line (everything after
/// "particle" and its five header fields) for a readable per-element
/// diff.
std::vector<double> golden_estimates(const std::string& line) {
  std::istringstream fields(line);
  std::string token;
  for (int k = 0; k < 6 && fields >> token; ++k) {}
  std::vector<double> out;
  while (fields >> token) out.push_back(from_hex(token));
  return out;
}

TEST(GoldenAnswers, ServedModelsMatchThePinnedBits) {
  const serve::PlanServerOptions served;
  const apps::ParticleFilterApp particle(served.particle_pes, served.particle_params);
  const apps::ErrorGenApp speech(served.speech_pes, served.speech_params);

  // Batched (served) answers: one batch per length holding every seed,
  // the grouping PlanServer's drain uses.
  core::JobInstance particle_instance(particle.system().plan());
  std::vector<std::string> lines;
  for (const std::size_t steps : kLengths) {
    std::vector<apps::ParticleFilterApp::ParticleJobSpec> jobs;
    for (const std::uint64_t seed : kSeeds)
      jobs.push_back(particle_job(served.particle_params, seed, steps));
    const auto results = particle.track_batch(jobs, particle_instance);
    for (std::size_t k = 0; k < jobs.size(); ++k)
      lines.push_back(particle_line(kSeeds[k], steps, results[k]));
  }

  // Speech: the explicit-I/O job batched behind a differently sized one,
  // so the variable-size dynamic tokens are exercised in both directions.
  const apps::ErrorGenApp::SpeechJobSpec job = speech_job(served.speech_params);
  apps::ErrorGenApp::SpeechJobSpec lead;
  lead.frame.assign(job.frame.begin(), job.frame.begin() + 96);
  lead.coeffs.assign(job.coeffs.begin(), job.coeffs.begin() + 3);
  core::JobInstance speech_instance(speech.system().plan());
  const std::vector<apps::ErrorGenApp::SpeechJobSpec> speech_jobs = {lead, job};
  const auto speech_results = speech.compute_errors_batch(speech_jobs, speech_instance);
  const std::string speech_text = speech_line(speech_results[1]);

  const std::string golden_path = std::string(SPI_GOLDEN_DIR) + "/served_answers.txt";
  if (const char* out = std::getenv("SPI_GOLDEN_WRITE")) {
    std::ofstream file(out);
    file << "# Served answers of the built-in models (PlanServerOptions defaults).\n"
            "# particle <seed> <steps> <resample_steps> <particles_exchanged> <rmse> "
            "<estimates...>\n"
            "# speech <count> <errors...>   (doubles as IEEE-754 hex bit patterns)\n";
    for (const std::string& line : lines) file << line << "\n";
    file << speech_text << "\n";
    GTEST_SKIP() << "wrote " << out;
  }

  const Golden golden = load_golden(golden_path);
  ASSERT_EQ(golden.particle.size(), lines.size()) << golden_path;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == golden.particle[i]) continue;
    const auto got = golden_estimates(lines[i]);
    const auto want = golden_estimates(golden.particle[i]);
    ADD_FAILURE() << "batched particle answer " << i << " drifted from the golden bits";
    for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k)
      if (std::bit_cast<std::uint64_t>(got[k]) != std::bit_cast<std::uint64_t>(want[k])) {
        ADD_FAILURE() << "  first differing estimate " << k << ": " << got[k] << " vs "
                      << want[k];
        break;
      }
  }
  EXPECT_EQ(speech_text, golden.speech) << "batched speech errors drifted from the golden bits";

  // The single-job functional engine must produce the same pinned bits
  // (track() seeds its particles from ParticleParams::seed).
  for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
    apps::ParticleParams params = served.particle_params;
    params.seed = kSeeds[s];
    const apps::ParticleFilterApp seeded(served.particle_pes, params);
    for (std::size_t l = 0; l < std::size(kLengths); ++l) {
      const apps::TrackResult r = seeded.track(
          particle_job(served.particle_params, kSeeds[s], kLengths[l]).trajectory);
      EXPECT_EQ(particle_line(kSeeds[s], kLengths[l], r),
                golden.particle[l * std::size(kSeeds) + s])
          << "track() seed " << kSeeds[s] << " steps " << kLengths[l];
    }
  }
  EXPECT_EQ(speech_line(speech.compute_errors_parallel(job.frame, job.coeffs)), golden.speech)
      << "compute_errors_parallel drifted from the golden bits";
}

}  // namespace
}  // namespace spi
