/// \file particle_filter.hpp
/// Particle filtering for crack-failure prognosis — the mathematics of
/// the paper's Application 2 (tracking crack length in turbine-engine
/// blades, after Orchard/Wu/Vachtsevanos). The filter's E (estimate),
/// U (update) and S (select/resample) steps parallelize over PEs except
/// resampling, which the paper splits into three phases: exchange of
/// partial (local) weight statistics, local resampling, and
/// intra-resampling — the communication of excess particles so every PE
/// re-enters the next iteration with the same particle count.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dsp/rng.hpp"

namespace spi::dsp {

/// Paris-law crack growth with Gaussian process/observation noise:
///   L_{k+1} = L_k + C (beta * dsigma * sqrt(pi * L_k))^m + w_k
///   y_k     = L_k + v_k
struct CrackModel {
  double c = 0.005;
  double m = 1.3;
  double beta = 1.0;
  double dsigma = 1.0;
  double process_noise = 0.01;
  double obs_noise = 0.05;
  double initial_length = 1.0;

  /// Deterministic growth increment at crack length `length`.
  [[nodiscard]] double growth(double length) const;
  /// One stochastic state transition.
  [[nodiscard]] double step(double length, Rng& rng) const;
  /// One noisy observation of the true length.
  [[nodiscard]] double observe(double length, Rng& rng) const;
  /// Likelihood p(obs | length) under the Gaussian observation model.
  [[nodiscard]] double likelihood(double obs, double length) const;
};

/// Generates a ground-truth crack trajectory and its noisy observations.
struct CrackTrajectory {
  std::vector<double> truth;
  std::vector<double> observations;
};
[[nodiscard]] CrackTrajectory simulate_crack(const CrackModel& model, std::size_t steps,
                                             Rng& rng);

/// Systematic resampling: draws `count` particles with multiplicities
/// proportional to `weights`, using the single uniform offset `u0` in
/// [0,1) (deterministic given u0 — the property tests rely on it).
[[nodiscard]] std::vector<double> systematic_resample(std::span<const double> particles,
                                                      std::span<const double> weights,
                                                      std::int64_t count, double u0);
/// systematic_resample writing into `out` (replaced; a warm vector keeps
/// its capacity, so the call allocates nothing).
void systematic_resample_into(std::span<const double> particles, std::span<const double> weights,
                              std::int64_t count, double u0, std::vector<double>& out);

/// Largest-remainder apportionment of `total` particles across PEs
/// proportionally to their local weight sums; the result sums to exactly
/// `total` (phase 1+2 arithmetic of the distributed resampling scheme).
[[nodiscard]] std::vector<std::int64_t> proportional_targets(
    std::span<const double> local_weight_sums, std::int64_t total);
/// Working storage of proportional_targets_into: the (-remainder, PE)
/// pairs it sorts.
using ApportionScratch = std::vector<std::pair<double, std::size_t>>;
/// proportional_targets writing into `targets`, with `scratch` as
/// reusable working storage (warm vectors: no allocation).
void proportional_targets_into(std::span<const double> local_weight_sums, std::int64_t total,
                               std::vector<std::int64_t>& targets, ApportionScratch& scratch);

/// Sequential (single-processor) bootstrap particle filter — the
/// reference implementation and the n=1 configuration of Figure 7.
class ParticleFilter {
 public:
  ParticleFilter(std::size_t particle_count, CrackModel model, std::uint64_t seed);

  [[nodiscard]] std::span<const double> particles() const { return particles_; }
  [[nodiscard]] std::span<const double> weights() const { return weights_; }
  [[nodiscard]] const CrackModel& model() const { return model_; }

  /// E step: propagate every particle through the state model.
  void predict();
  /// U step: reweight by the likelihood of `observation`; weights are
  /// normalized afterwards.
  void update(double observation);
  /// Posterior mean estimate of the crack length.
  [[nodiscard]] double estimate() const;
  /// Effective sample size (resampling trigger diagnostics).
  [[nodiscard]] double effective_sample_size() const;
  /// S step: systematic resampling back to uniform weights.
  void resample();

  /// Convenience: one full E-U-S iteration; returns the estimate.
  double step(double observation);

 private:
  CrackModel model_;
  Rng rng_;
  std::vector<double> particles_;
  std::vector<double> weights_;
};

/// Root-mean-square error between two equal-length series.
[[nodiscard]] double rmse(std::span<const double> a, std::span<const double> b);

}  // namespace spi::dsp
