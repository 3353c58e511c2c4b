#include "apps/particle_app.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "apps/serialization.hpp"

namespace spi::apps {

namespace {

/// Phase 3's deterministic transfer plan, one row of it: donors
/// (targets above quota) ship their excess to receivers (below quota),
/// both walked in PE order. Every PE walks the identical plan from the
/// shared weight sums and keeps only its own row: row[j] = particles PE
/// `donor_pe` sends to PE j. `surplus` is scratch.
void transfer_row(std::span<const std::int64_t> targets, std::int64_t quota,
                  std::size_t donor_pe, std::vector<std::int64_t>& row,
                  std::vector<std::int64_t>& surplus) {
  const std::size_t n = targets.size();
  row.assign(n, 0);
  surplus.resize(n);
  for (std::size_t i = 0; i < n; ++i) surplus[i] = targets[i] - quota;
  std::size_t donor = 0, receiver = 0;
  while (true) {
    while (donor < n && surplus[donor] <= 0) ++donor;
    while (receiver < n && surplus[receiver] >= 0) ++receiver;
    if (donor >= n || receiver >= n) break;
    const std::int64_t amount = std::min(surplus[donor], -surplus[receiver]);
    if (donor == donor_pe) row[receiver] += amount;
    surplus[donor] -= amount;
    surplus[receiver] += amount;
  }
}

/// Appends a token's doubles to `out` (capacity permitting, in place).
void append_f64(std::span<const std::uint8_t> bytes, std::vector<double>& out) {
  const std::size_t old = out.size();
  out.resize(old + f64_count(bytes));
  if (!bytes.empty()) std::memcpy(out.data() + old, bytes.data(), bytes.size());
}

/// Deterministic per-iteration exchange volume for the timed model:
/// mean_fraction scaled by a hash-derived factor in [0.5, 1.5).
std::int64_t modeled_exchange(std::size_t per_pe, double mean_fraction, std::int64_t iter) {
  const auto h = static_cast<std::uint64_t>(iter + 1) * 2654435761ULL;
  const double factor = 0.5 + static_cast<double>(h % 1000) / 1000.0;
  return static_cast<std::int64_t>(mean_fraction * factor * static_cast<double>(per_pe));
}

}  // namespace

ParticleFilterApp::ParticleFilterApp(std::int32_t pe_count, ParticleParams params,
                                     core::SpiSystemOptions options)
    : pe_count_(pe_count), params_(params) {
  if (pe_count <= 0) throw std::invalid_argument("ParticleFilterApp: pe_count must be positive");
  if (params_.particles == 0 || params_.particles > params_.max_particles)
    throw std::invalid_argument("ParticleFilterApp: particle count out of range");
  if (params_.particles % static_cast<std::size_t>(pe_count) != 0)
    throw std::invalid_argument(
        "ParticleFilterApp: particles must divide evenly across PEs (paper: each PE handles N/n)");

  df::Graph graph("particle-filter-" + std::to_string(pe_count) + "pe");
  const auto n = static_cast<std::size_t>(pe_count);
  const auto particle_bound = static_cast<std::int64_t>(params_.max_particles);

  obs_ = graph.add_actor("Obs");
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = std::to_string(i);
    est_.push_back(graph.add_actor("Est" + s));
    upd_.push_back(graph.add_actor("Upd" + s));
    lws_.push_back(graph.add_actor("Lws" + s));
    res_.push_back(graph.add_actor("Res" + s));
    xch_.push_back(graph.add_actor("Xch" + s));
  }

  lws_edge_.assign(n, std::vector<df::EdgeId>(n, df::kInvalidEdge));
  particle_edge_.assign(n, std::vector<df::EdgeId>(n, df::kInvalidEdge));
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = std::to_string(i);
    chain_eu_.push_back(graph.connect_simple(est_[i], upd_[i], 0, 4));
    obs_edge_.push_back(graph.connect_simple(obs_, upd_[i], 0, sizeof(double)));
    chain_ul_.push_back(graph.connect_simple(upd_[i], lws_[i], 0, 4));
    // Phase 1: partial weight statistics to every PE (SPI_static when
    // interprocessor; 3 doubles: weight sum, weighted-particle sum and
    // squared-weight sum — the latter for the global ESS).
    for (std::size_t j = 0; j < n; ++j)
      lws_edge_[i][j] =
          graph.connect_simple(lws_[i], res_[j], 0, 3 * sizeof(double));
    chain_rx_.push_back(graph.connect_simple(res_[i], xch_[i], 0, 4));
    // Phase 3: excess particles to every other PE (SPI_dynamic — the
    // count varies at run time; paper Section 5.3).
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      particle_edge_[i][j] = graph.connect(
          res_[i], df::Rate::dynamic(particle_bound), xch_[j],
          df::Rate::dynamic(particle_bound), 0, sizeof(double),
          "particles" + s + "->" + std::to_string(j));
    }
    // Next-iteration loop (the unit delay makes the schedule admissible).
    loop_xe_.push_back(graph.connect_simple(xch_[i], est_[i], 1, 4));
  }

  sched::Assignment assignment(graph.actor_count(), pe_count);
  assignment.assign(obs_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<sched::Proc>(i);
    assignment.assign(est_[i], p);
    assignment.assign(upd_[i], p);
    assignment.assign(lws_[i], p);
    assignment.assign(res_[i], p);
    assignment.assign(xch_[i], p);
  }

  system_ = std::make_unique<core::SpiSystem>(graph, std::move(assignment), options);
}

/// Per-PE mutable tracking state. Each instance is touched only by its
/// PE's actors — in a gang run, only by that PE's thread. The
/// scratch vectors are reserved to their bounds up front, so a firing
/// never grows them.
struct ParticleFilterApp::TrackState {
  struct PeState {
    std::vector<double> particles;
    std::vector<double> weights;
    std::vector<double> kept;      // phase-2 survivors (swaps with particles in Xch)
    std::int64_t exported = 0;     // phase-3 particles shipped out
    dsp::Rng rng;
    // Res scratch: global sums, apportionment, transfer row, resampled set.
    std::vector<double> w_sums;
    std::vector<std::int64_t> targets;
    dsp::ApportionScratch apportion;
    std::vector<std::int64_t> row;
    std::vector<std::int64_t> surplus;
    std::vector<double> resampled;
    explicit PeState(std::uint64_t seed) : rng(seed) {}
  };
  std::vector<PeState> pe;
  const dsp::CrackTrajectory* traj = nullptr;
  dsp::CrackTrajectory synthesized;  ///< what `traj` points at for a synthetic job
  std::vector<double> estimates;  ///< appended only by Res0
  std::int64_t resample_steps = 0;
};

/// The job states of one batch in queue order. Every actor of the graph
/// fires exactly once per iteration (q == 1 throughout), so an actor's
/// cumulative invocation count *is* the merged-PASS iteration index: job
/// k runs iterations [ends[k - 1], ends[k]) (ends[-1] = 0), one per step
/// of its trajectory, so the ends are the prefix sums of the lengths.
struct ParticleFilterApp::BatchTrackState {
  std::vector<std::shared_ptr<TrackState>> jobs;
  std::vector<std::int64_t> ends;

  [[nodiscard]] std::size_t job_of(std::int64_t invocation) const {
    return static_cast<std::size_t>(std::upper_bound(ends.begin(), ends.end(), invocation) -
                                    ends.begin());
  }
  [[nodiscard]] TrackState& at(std::int64_t invocation) const {
    return *jobs[job_of(invocation)];
  }
  [[nodiscard]] std::int64_t local_step(std::int64_t invocation) const {
    const std::size_t k = job_of(invocation);
    return k == 0 ? invocation : invocation - ends[k - 1];
  }
};

std::shared_ptr<ParticleFilterApp::TrackState> ParticleFilterApp::make_track_state(
    const ParticleParams& params, std::size_t n, std::size_t steps) {
  const std::size_t quota = params.particles / n;
  auto shared = std::make_shared<ParticleFilterApp::TrackState>();
  shared->estimates.reserve(steps);
  shared->pe.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& st = shared->pe.emplace_back(params.seed + 1000 * i);
    st.particles.reserve(quota);
    for (std::size_t p = 0; p < quota; ++p)
      st.particles.push_back(std::max(
          1e-6, params.model.initial_length +
                    st.rng.gaussian(0.0, 5.0 * params.model.process_noise)));
    st.weights.assign(quota, 1.0 / static_cast<double>(params.particles));
    st.kept.reserve(quota);
    st.w_sums.reserve(n);
    st.targets.reserve(n);
    st.apportion.reserve(n);
    st.row.reserve(n);
    st.surplus.reserve(n);
    st.resampled.reserve(params.particles);  // a PE's target never exceeds N
  }
  return shared;
}

TrackResult ParticleFilterApp::take_result(TrackState& state) {
  TrackResult result;
  result.estimates = std::move(state.estimates);
  result.resample_steps = state.resample_steps;
  result.rmse_vs_truth = dsp::rmse(state.traj->truth, result.estimates);
  for (const auto& pe : state.pe) result.particles_exchanged += pe.exported;
  return result;
}

void ParticleFilterApp::wire_tracking(core::JobInstance& instance,
                                      const std::shared_ptr<BatchTrackState>& batch) const {
  const auto n = static_cast<std::size_t>(pe_count_);
  const std::size_t quota = params_.particles / n;
  const dsp::CrackModel model = params_.model;
  const auto total = static_cast<std::int64_t>(params_.particles);
  const double ess_fraction = params_.resample_ess_fraction;

  // Port slots resolved once here: both run kinds present an actor's edges
  // in graph order, so a firing indexes its tokens directly.
  const df::Graph& graph = system_->plan().vts.graph;
  const auto in_slot = [&graph](df::ActorId a, df::EdgeId e) {
    return core::slot_of(graph.in_edges(a), e);
  };
  const auto out_slot = [&graph](df::ActorId a, df::EdgeId e) {
    return core::slot_of(graph.out_edges(a), e);
  };

  std::vector<std::size_t> obs_out(n);
  for (std::size_t i = 0; i < n; ++i) obs_out[i] = out_slot(obs_, obs_edge_[i]);
  instance.set_compute(obs_, [batch, obs_out](core::FiringContext& ctx) {
    const TrackState& shared = batch->at(ctx.invocation);
    const double obs =
        shared.traj->observations.at(static_cast<std::size_t>(batch->local_step(ctx.invocation)));
    for (const std::size_t slot : obs_out) pack_f64_into(ctx.emit(slot), obs);
  });

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t eu_out = out_slot(est_[i], chain_eu_[i]);
    instance.set_compute(est_[i], [batch, i, model, eu_out](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      for (double& p : st.particles) p = model.step(p, st.rng);
      ctx.emit(eu_out).assign(4, 0);
    });

    const std::size_t upd_obs_in = in_slot(upd_[i], obs_edge_[i]);
    const std::size_t ul_out = out_slot(upd_[i], chain_ul_[i]);
    instance.set_compute(upd_[i], [batch, i, model, upd_obs_in, ul_out](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      const double obs = f64_at(ctx.in(upd_obs_in), 0);
      // Weight accumulation (weights are globally normalized after every
      // iteration, so this composes across skipped resampling steps).
      for (std::size_t p = 0; p < st.particles.size(); ++p)
        st.weights[p] *= model.likelihood(obs, st.particles[p]);
      ctx.emit(ul_out).assign(4, 0);
    });

    std::vector<std::size_t> lws_out(n);
    for (std::size_t j = 0; j < n; ++j) lws_out[j] = out_slot(lws_[i], lws_edge_[i][j]);
    instance.set_compute(lws_[i], [batch, i, lws_out](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      double sums[3] = {0.0, 0.0, 0.0};  // weight, weighted-particle, squared-weight
      for (std::size_t p = 0; p < st.particles.size(); ++p) {
        sums[0] += st.weights[p];
        sums[1] += st.weights[p] * st.particles[p];
        sums[2] += st.weights[p] * st.weights[p];
      }
      for (const std::size_t slot : lws_out) pack_f64_into(ctx.emit(slot), sums);
    });

    std::vector<std::size_t> res_lws_in(n);
    for (std::size_t j = 0; j < n; ++j) res_lws_in[j] = in_slot(res_[i], lws_edge_[j][i]);
    std::vector<std::size_t> res_particle_out(n, 0);  // [j], j != i
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) res_particle_out[j] = out_slot(res_[i], particle_edge_[i][j]);
    const std::size_t rx_out = out_slot(res_[i], chain_rx_[i]);
    instance.set_compute(res_[i], [batch, i, n, quota, total, ess_fraction, res_lws_in,
                                   res_particle_out, rx_out](core::FiringContext& ctx) {
      TrackState& shared = batch->at(ctx.invocation);
      auto& st = shared.pe[i];
      st.w_sums.resize(n);
      double w_total = 0.0, wp_acc = 0.0, w2_acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const std::span<const std::uint8_t> sums = ctx.in(res_lws_in[j]);
        st.w_sums[j] = f64_at(sums, 0);
        w_total += f64_at(sums, 0);
        wp_acc += f64_at(sums, 1);
        w2_acc += f64_at(sums, 2);
      }
      if (i == 0)  // the global posterior-mean estimate (identical on all PEs)
        shared.estimates.push_back(w_total > 0.0 ? wp_acc / w_total : 0.0);

      // Adaptive trigger: global ESS from the shared sums — every PE
      // reaches the same decision with no extra communication.
      const double ess = w2_acc > 0.0 ? (w_total * w_total) / w2_acc : 0.0;
      const bool do_resample =
          w_total > 0.0 && ess <= ess_fraction * static_cast<double>(total);
      if (i == 0 && do_resample) ++shared.resample_steps;

      if (do_resample) {
        dsp::proportional_targets_into(st.w_sums, total, st.targets, st.apportion);
        transfer_row(st.targets, static_cast<std::int64_t>(quota), i, st.row, st.surplus);

        // Phase 2: local resampling to this PE's target count.
        const auto t_i = static_cast<std::size_t>(st.targets[i]);
        if (t_i > 0 && st.w_sums[i] > 0.0) {
          dsp::systematic_resample_into(st.particles, st.weights, st.targets[i],
                                        st.rng.uniform(), st.resampled);
        } else {
          st.resampled.assign(t_i, st.particles.empty() ? 1e-6 : st.particles[0]);
        }
        const std::size_t keep = std::min(t_i, quota);
        st.kept.assign(st.resampled.begin(),
                       st.resampled.begin() + static_cast<std::ptrdiff_t>(keep));
        // Phase 3 exports: slices of the excess, walked in receiver order
        // (row[i] is always 0 — a donor never receives).
        const std::span<const double> excess(st.resampled);
        std::size_t cursor = keep;
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          const auto amount = static_cast<std::size_t>(st.row[j]);
          pack_f64_into(ctx.emit(res_particle_out[j]), excess.subspan(cursor, amount));
          cursor += amount;
          st.exported += static_cast<std::int64_t>(amount);
        }
      } else {
        // Skip: keep the particle set, normalize weights globally (the
        // degenerate w_total <= 0 case resets to uniform instead), and
        // ship empty packed tokens.
        st.kept.assign(st.particles.begin(), st.particles.end());
        if (w_total > 0.0) {
          for (double& w : st.weights) w /= w_total;
        } else {
          st.weights.assign(quota, 1.0 / static_cast<double>(total));
        }
        for (std::size_t j = 0; j < n; ++j)
          if (j != i) ctx.emit(res_particle_out[j]).clear();
      }
      ctx.emit(rx_out).assign(4, do_resample ? 1 : 0);  // flag for Xch
    });

    const std::size_t xch_rx_in = in_slot(xch_[i], chain_rx_[i]);
    std::vector<std::size_t> xch_particle_in(n, 0);  // [j], j != i
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) xch_particle_in[j] = in_slot(xch_[i], particle_edge_[j][i]);
    const std::size_t xe_out = out_slot(xch_[i], loop_xe_[i]);
    instance.set_compute(xch_[i], [batch, i, n, quota, total, xch_rx_in, xch_particle_in,
                                   xe_out](core::FiringContext& ctx) {
      auto& st = batch->at(ctx.invocation).pe[i];
      const bool resampled = ctx.in(xch_rx_in)[0] != 0;
      // The survivors become the particle set; the old set's buffer is
      // next iteration's survivor scratch.
      st.particles.swap(st.kept);
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) append_f64(ctx.in(xch_particle_in[j]), st.particles);
      if (st.particles.size() != quota)
        throw std::logic_error("ParticleFilterApp: intra-resampling did not rebalance to N/n");
      if (resampled) st.weights.assign(quota, 1.0 / static_cast<double>(total));
      ctx.emit(xe_out).assign(4, 0);
    });
  }
}

TrackResult ParticleFilterApp::track(const dsp::CrackTrajectory& trajectory) const {
  const core::ExecutablePlan& plan = system_->plan();
  core::JobInstance instance(plan);
  // Messages per wire format: the run's growth of each channel's counter
  // (construction already counted the delay tokens).
  const auto messages = [&](const core::ChannelSpec& spec) {
    return instance.metrics().counter_value("spi_threaded_messages_total",
                                            {{"channel", spec.name}});
  };
  std::vector<std::int64_t> before;
  for (const core::ChannelSpec& spec : plan.channels) before.push_back(messages(spec));

  const ParticleJobSpec job{trajectory, params_.seed};
  TrackResult result = std::move(track_batch(std::span(&job, 1), instance).front());
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    const std::int64_t sent = messages(plan.channels[c]) - before[c];
    if (plan.channels[c].mode == core::SpiMode::kDynamic)
      result.dynamic_messages += sent;
    else
      result.static_messages += sent;
  }
  return result;
}

TrackResult ParticleFilterApp::track_threaded(const dsp::CrackTrajectory& trajectory) const {
  return track_threaded(trajectory, core::RunOptions{});
}

TrackResult ParticleFilterApp::track_threaded(const dsp::CrackTrajectory& trajectory,
                                              const core::RunOptions& run_options) const {
  // A single-trajectory run is a batch of one job.
  const auto steps = static_cast<std::int64_t>(trajectory.observations.size());
  auto batch = std::make_shared<BatchTrackState>();
  batch->ends.push_back(steps);
  batch->jobs.push_back(make_track_state(params_, static_cast<std::size_t>(pe_count_),
                                         trajectory.observations.size()));
  batch->jobs.front()->traj = &trajectory;

  core::JobInstance instance(system_->plan());
  wire_tracking(instance, batch);
  core::RunOptions options = run_options;
  options.iterations = steps;
  instance.run(options);
  return take_result(*batch->jobs.front());
}

std::shared_ptr<ParticleFilterApp::BatchTrackState> ParticleFilterApp::make_batch(
    std::span<const ParticleJobSpec> jobs) const {
  auto batch = std::make_shared<BatchTrackState>();
  batch->jobs.resize(jobs.size());
  batch->ends.reserve(jobs.size());
  std::int64_t end = 0;
  for (const ParticleJobSpec& job : jobs) {
    if (job.steps() == 0)
      throw std::invalid_argument("ParticleFilterApp: empty trajectory in a batch");
    end += static_cast<std::int64_t>(job.steps());
    batch->ends.push_back(end);
  }
  return batch;
}

void ParticleFilterApp::start_job(BatchTrackState& batch, std::span<const ParticleJobSpec> jobs,
                                  std::size_t k) const {
  const ParticleJobSpec& job = jobs[k];
  ParticleParams params = params_;
  params.seed = job.seed;
  batch.jobs[k] = make_track_state(params, static_cast<std::size_t>(pe_count_), job.steps());
  TrackState& state = *batch.jobs[k];
  if (job.synthetic_steps == 0) {
    state.traj = &job.trajectory;
    return;
  }
  dsp::Rng rng(job.seed + 1);
  state.synthesized = dsp::simulate_crack(params_.model, job.synthetic_steps, rng);
  state.traj = &state.synthesized;
}

void ParticleFilterApp::bind_batch(std::span<const ParticleJobSpec> jobs,
                                   core::JobInstance& instance) const {
  if (jobs.empty()) throw std::invalid_argument("ParticleFilterApp::bind_batch: no jobs");
  const std::shared_ptr<BatchTrackState> batch = make_batch(jobs);
  for (std::size_t k = 0; k < jobs.size(); ++k) start_job(*batch, jobs, k);
  wire_tracking(instance, batch);
  instance.reset_invocations();
}

std::vector<TrackResult> ParticleFilterApp::track_batch(std::span<const ParticleJobSpec> jobs,
                                                        core::JobInstance& instance,
                                                        const core::RunOptions* run_options,
                                                        const JobDoneFn& on_job) const {
  if (jobs.empty()) return {};
  const std::shared_ptr<BatchTrackState> batch = make_batch(jobs);
  wire_tracking(instance, batch);
  instance.reset_invocations();

  // One run, one segment per job, as long as the job's trajectory: job
  // k is done when segment k ends, and job k + 1's state is built only
  // then, so job 0 never waits for a later job's set-up.
  std::vector<TrackResult> results;
  results.reserve(jobs.size());
  start_job(*batch, jobs, 0);
  const core::JobInstance::SegmentFn job_done = [&](std::int64_t segment) {
    const auto k = static_cast<std::size_t>(segment);
    results.push_back(take_result(*batch->jobs[k]));
    batch->jobs[k].reset();
    if (on_job) on_job(k, results.back());
    if (k + 1 < jobs.size()) start_job(*batch, jobs, k + 1);
  };
  core::RunOptions options = run_options ? *run_options : core::RunOptions{};
  options.iterations = batch->ends.back();
  instance.run_colocated(options, batch->ends, job_done);
  return results;
}

sim::ExecStats ParticleFilterApp::run_timed(std::size_t particles,
                                            const ParticleTimingModel& timing,
                                            std::int64_t iterations,
                                            const sim::CommBackend* backend) const {
  if (particles > params_.max_particles)
    throw std::length_error("ParticleFilterApp::run_timed: particles exceed declared bound");
  const auto n = static_cast<std::size_t>(pe_count_);
  const std::size_t per_pe = particles / n;

  enum class Role { kObs, kEst, kUpd, kLws, kRes, kXch };
  std::vector<Role> role(system_->application().actor_count(), Role::kObs);
  for (std::size_t i = 0; i < n; ++i) {
    role[static_cast<std::size_t>(est_[i])] = Role::kEst;
    role[static_cast<std::size_t>(upd_[i])] = Role::kUpd;
    role[static_cast<std::size_t>(lws_[i])] = Role::kLws;
    role[static_cast<std::size_t>(res_[i])] = Role::kRes;
    role[static_cast<std::size_t>(xch_[i])] = Role::kXch;
  }

  sim::WorkloadModel workload;
  workload.exec_cycles = [this, per_pe, timing, role](std::int32_t task,
                                                      std::int64_t iter) -> std::int64_t {
    const df::ActorId actor = system_->plan().sync_graph.task(task).actor;
    const auto count = static_cast<std::int64_t>(per_pe);
    switch (role[static_cast<std::size_t>(actor)]) {
      case Role::kObs: return timing.phase_setup_cycles;
      case Role::kEst: return timing.phase_setup_cycles + count * timing.est_cycles_per_particle;
      case Role::kUpd: return timing.phase_setup_cycles + count * timing.upd_cycles_per_particle;
      case Role::kLws: return timing.phase_setup_cycles + count * timing.sum_cycles_per_particle;
      case Role::kRes: return timing.phase_setup_cycles + count * timing.res_cycles_per_particle;
      case Role::kXch:
        return timing.phase_setup_cycles +
               modeled_exchange(per_pe, timing.mean_exchange_fraction, iter) *
                   timing.xch_cycles_per_particle;
    }
    return 1;
  };
  workload.payload_bytes = [this, per_pe, timing, n](const sched::SyncEdge& e,
                                                     std::int64_t iter) -> std::int64_t {
    for (std::size_t i = 0; i < n; ++i) {
      if (e.dataflow_edge == obs_edge_[i]) return timing.obs_wire_bytes;
      for (std::size_t j = 0; j < n; ++j) {
        if (e.dataflow_edge == lws_edge_[i][j]) return timing.weight_wire_bytes;
        if (j != i && e.dataflow_edge == particle_edge_[i][j])
          return modeled_exchange(per_pe, timing.mean_exchange_fraction, iter) *
                 timing.particle_wire_bytes;
      }
    }
    return 4;
  };

  sim::TimedExecutorOptions options;
  options.iterations = iterations;
  options.clock.mhz = timing.clock_mhz;
  options.link = timing.link;
  const core::ExecutablePlan& plan = system_->plan();
  return core::run_timed(plan, backend ? *backend : *plan.make_backend(), options,
                         std::move(workload));
}

sim::AreaReport ParticleFilterApp::area_report() const {
  // Component areas calibrated against the paper's Table 2 (2-PE system;
  // see EXPERIMENTS.md for the calibration note). The particle-filter PE
  // is computationally heavy — the paper could only fit 2 PEs.
  sim::AreaReport report(sim::virtex4_sx35());
  report.add("Observation host", sim::ResourceVector{60, 60, 80, 1, 0});
  const auto n = static_cast<std::size_t>(pe_count_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string s = std::to_string(i);
    report.add("PF PE " + s, sim::ResourceVector{3400, 3050, 9990, 15, 54});
    if (i > 0)  // obs channel to every non-host PE
      report.add("SPI obs channel " + s, sim::ResourceVector{2, 1, 8, 0, 0}, /*is_spi=*/true);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      report.add("SPI weight channel " + s + "->" + std::to_string(j),
                 sim::ResourceVector{2, 1, 10, 0, 0}, /*is_spi=*/true);
      report.add("SPI particle channel " + s + "->" + std::to_string(j),
                 sim::ResourceVector{4, 2, 14, 2, 0}, /*is_spi=*/true);
    }
  }
  return report;
}

}  // namespace spi::apps
