#include "dsp/particle_filter.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace spi::dsp {

double CrackModel::growth(double length) const {
  const double delta_k = beta * dsigma * std::sqrt(std::numbers::pi * std::max(length, 1e-9));
  return c * std::pow(delta_k, m);
}

double CrackModel::step(double length, Rng& rng) const {
  const double next = length + growth(length) + rng.gaussian(0.0, process_noise);
  return std::max(next, 1e-6);  // crack length stays physical
}

double CrackModel::observe(double length, Rng& rng) const {
  return length + rng.gaussian(0.0, obs_noise);
}

double CrackModel::likelihood(double obs, double length) const {
  const double d = (obs - length) / obs_noise;
  return std::exp(-0.5 * d * d) / (obs_noise * std::sqrt(2.0 * std::numbers::pi));
}

CrackTrajectory simulate_crack(const CrackModel& model, std::size_t steps, Rng& rng) {
  CrackTrajectory t;
  t.truth.reserve(steps);
  t.observations.reserve(steps);
  double length = model.initial_length;
  for (std::size_t k = 0; k < steps; ++k) {
    length = model.step(length, rng);
    t.truth.push_back(length);
    t.observations.push_back(model.observe(length, rng));
  }
  return t;
}

std::vector<double> systematic_resample(std::span<const double> particles,
                                        std::span<const double> weights, std::int64_t count,
                                        double u0) {
  std::vector<double> out;
  systematic_resample_into(particles, weights, count, u0, out);
  return out;
}

void systematic_resample_into(std::span<const double> particles, std::span<const double> weights,
                              std::int64_t count, double u0, std::vector<double>& out) {
  if (particles.size() != weights.size())
    throw std::invalid_argument("systematic_resample: size mismatch");
  if (count < 0) throw std::invalid_argument("systematic_resample: negative count");
  if (u0 < 0.0 || u0 >= 1.0) throw std::invalid_argument("systematic_resample: u0 not in [0,1)");
  out.clear();
  if (count == 0) return;
  if (particles.empty()) throw std::invalid_argument("systematic_resample: empty input");

  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::domain_error("systematic_resample: non-positive weight sum");

  out.reserve(static_cast<std::size_t>(count));
  const double stride = total / static_cast<double>(count);
  double pointer = u0 * stride;
  double cumulative = weights[0];
  std::size_t index = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    while (cumulative < pointer && index + 1 < particles.size()) {
      ++index;
      cumulative += weights[index];
    }
    out.push_back(particles[index]);
    pointer += stride;
  }
}

std::vector<std::int64_t> proportional_targets(std::span<const double> local_weight_sums,
                                               std::int64_t total) {
  std::vector<std::int64_t> targets;
  ApportionScratch scratch;
  proportional_targets_into(local_weight_sums, total, targets, scratch);
  return targets;
}

void proportional_targets_into(std::span<const double> local_weight_sums, std::int64_t total,
                               std::vector<std::int64_t>& targets, ApportionScratch& scratch) {
  if (local_weight_sums.empty())
    throw std::invalid_argument("proportional_targets: no processors");
  const double sum = std::accumulate(local_weight_sums.begin(), local_weight_sums.end(), 0.0);
  if (sum <= 0.0) throw std::domain_error("proportional_targets: non-positive weight sum");

  const std::size_t p = local_weight_sums.size();
  targets.assign(p, 0);
  scratch.clear();  // (-remainder, pe) for sorting
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const double exact = static_cast<double>(total) * local_weight_sums[i] / sum;
    targets[i] = static_cast<std::int64_t>(std::floor(exact));
    assigned += targets[i];
    scratch.emplace_back(-(exact - std::floor(exact)), i);
  }
  std::sort(scratch.begin(), scratch.end());  // largest remainder first, pe id tie-break
  for (std::int64_t extra = total - assigned; extra > 0; --extra)
    targets[scratch[static_cast<std::size_t>(total - assigned - extra)].second] += 1;
}

ParticleFilter::ParticleFilter(std::size_t particle_count, CrackModel model, std::uint64_t seed)
    : model_(model), rng_(seed) {
  if (particle_count == 0) throw std::invalid_argument("ParticleFilter: need >= 1 particle");
  particles_.reserve(particle_count);
  for (std::size_t i = 0; i < particle_count; ++i)
    particles_.push_back(std::max(1e-6, model_.initial_length +
                                            rng_.gaussian(0.0, 5.0 * model_.process_noise)));
  weights_.assign(particle_count, 1.0 / static_cast<double>(particle_count));
}

void ParticleFilter::predict() {
  for (double& p : particles_) p = model_.step(p, rng_);
}

void ParticleFilter::update(double observation) {
  double total = 0.0;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    weights_[i] *= model_.likelihood(observation, particles_[i]);
    total += weights_[i];
  }
  if (total <= 0.0) {
    // Degenerate update (all particles far from the observation): reset
    // to uniform rather than dividing by zero.
    std::fill(weights_.begin(), weights_.end(), 1.0 / static_cast<double>(weights_.size()));
    return;
  }
  for (double& w : weights_) w /= total;
}

double ParticleFilter::estimate() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < particles_.size(); ++i) acc += weights_[i] * particles_[i];
  return acc;
}

double ParticleFilter::effective_sample_size() const {
  double sq = 0.0;
  for (double w : weights_) sq += w * w;
  return sq > 0.0 ? 1.0 / sq : 0.0;
}

void ParticleFilter::resample() {
  particles_ = systematic_resample(particles_, weights_,
                                   static_cast<std::int64_t>(particles_.size()), rng_.uniform());
  std::fill(weights_.begin(), weights_.end(), 1.0 / static_cast<double>(weights_.size()));
}

double ParticleFilter::step(double observation) {
  predict();
  update(observation);
  const double est = estimate();
  resample();
  return est;
}

double rmse(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("rmse: size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

}  // namespace spi::dsp
