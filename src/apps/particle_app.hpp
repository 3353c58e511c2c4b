/// \file particle_app.hpp
/// Application 2 of the paper: particle-filter-based tracking of crack
/// failure length in turbine-engine blades (Section 5.3).
///
/// Per figure 4, E estimates the current state, U updates it against the
/// external observation, and S selects particles for the next iteration.
/// Particles are distributed equally across PEs; every step parallelizes
/// except resampling, which is split into three phases (figure 5):
///   1. each PE computes a partial (local) weight statistic and
///      communicates it to the other PEs — known length -> SPI_static;
///   2. local resampling against the globally apportioned target counts;
///   3. intra-resampling: excess particles move between PEs so all PEs
///      re-enter the next iteration with N/n particles — run-time-varying
///      length -> SPI_dynamic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/spi_system.hpp"
#include "core/threaded_runtime.hpp"
#include "dsp/particle_filter.hpp"
#include "sim/fpga_area.hpp"

namespace spi::apps {

struct ParticleParams {
  std::size_t particles = 100;      ///< N (the paper sweeps 50..300)
  std::size_t max_particles = 512;  ///< compile-time bound (VTS requirement)
  dsp::CrackModel model;
  std::uint64_t seed = 42;
  /// Adaptive resampling (extension): the 3-phase resampling runs only
  /// when the global effective sample size falls below this fraction of
  /// N. 1.0 = resample every iteration (the paper's scheme). Skipped
  /// iterations ship *empty* packed tokens on the SPI_dynamic channels —
  /// VTS handles zero-size payloads natively.
  double resample_ess_fraction = 1.0;
};

/// Cycle-cost calibration of the FPGA particle-filter PEs.
struct ParticleTimingModel {
  double clock_mhz = 100.0;
  std::int64_t est_cycles_per_particle = 12;  ///< Paris-law propagation pipeline
  std::int64_t upd_cycles_per_particle = 18;  ///< Gaussian likelihood (exp unit)
  std::int64_t sum_cycles_per_particle = 2;   ///< local weight accumulation
  std::int64_t res_cycles_per_particle = 6;   ///< systematic resampling walk
  std::int64_t xch_cycles_per_particle = 3;   ///< excess particle copy in/out
  std::int64_t phase_setup_cycles = 16;
  std::int64_t particle_wire_bytes = 4;       ///< 32-bit fixed-point particle values
  std::int64_t weight_wire_bytes = 8;         ///< two 32-bit partial sums
  std::int64_t obs_wire_bytes = 4;
  /// Mean fraction of a PE's particles exchanged during intra-resampling
  /// (drives the dynamic message sizes of the timed model; the functional
  /// run measures the real value).
  double mean_exchange_fraction = 0.15;
  sim::LinkParams link;  ///< interconnect model (topology, width)
};

/// Result of functionally tracking a crack trajectory.
struct TrackResult {
  std::vector<double> estimates;       ///< per-step posterior-mean crack length
  double rmse_vs_truth = 0.0;
  std::int64_t particles_exchanged = 0;  ///< raw particles moved in phase 3
  std::int64_t static_messages = 0;      ///< SPI_static messages (weight sums, obs)
  std::int64_t dynamic_messages = 0;     ///< SPI_dynamic messages (particles)
  std::int64_t resample_steps = 0;       ///< iterations that ran phases 2+3
};

/// The distributed particle-filter system (figures 5 and 7, table 2).
class ParticleFilterApp {
 public:
  ParticleFilterApp(std::int32_t pe_count, ParticleParams params,
                    core::SpiSystemOptions options = {});

  [[nodiscard]] std::int32_t pe_count() const { return pe_count_; }
  [[nodiscard]] const ParticleParams& params() const { return params_; }
  [[nodiscard]] const core::SpiSystem& system() const { return *system_; }

  /// Functional distributed tracking of a trajectory through the SPI
  /// fabric (real packed particles, real headers, real resampling).
  [[nodiscard]] TrackResult track(const dsp::CrackTrajectory& trajectory) const;

  /// Same tracking on real host threads — one per PE, with the phases
  /// communicating through runtime channels. Dataflow determinacy makes
  /// the estimates bit-identical to track() whatever the thread schedule
  /// (the parity tests assert it). `policy` selects the channel
  /// implementation: lock-free SPSC (default) or the blocking fallback.
  /// static_messages/dynamic_messages are zero here — the threaded
  /// engine aggregates per-channel counters in its MetricRegistry
  /// instead of per wire format.
  [[nodiscard]] TrackResult track_threaded(
      const dsp::CrackTrajectory& trajectory,
      core::ChannelPolicy policy = core::ChannelPolicy::kAuto) const;

  /// track_threaded with full control of the run — watchdog, flight
  /// recorder, telemetry and the cross-iteration pipelining window
  /// (`max_inflight_iterations`). The iteration count is overridden by
  /// the trajectory length. Estimates stay bit-identical to track()
  /// at every in-flight cap (the pipelined-runtime tests assert it).
  [[nodiscard]] TrackResult track_threaded(
      const dsp::CrackTrajectory& trajectory, const core::RunOptions& run_options,
      core::ChannelPolicy policy = core::ChannelPolicy::kAuto) const;

  /// One queued tracking job: a trajectory to filter and the RNG seed of
  /// its particle population (the default matches ParticleParams::seed,
  /// so a default-seeded job reproduces track() bit for bit).
  struct ParticleJobSpec {
    dsp::CrackTrajectory trajectory;
    std::uint64_t seed = 42;
    /// > 0: a synthetic job. `trajectory` stays empty; the batch builds
    /// it just before the job runs, as this many steps of the app's
    /// crack model simulated from dsp::Rng(seed + 1).
    std::size_t synthetic_steps = 0;

    /// The job's trajectory length T.
    [[nodiscard]] std::size_t steps() const {
      return synthetic_steps > 0 ? synthetic_steps : trajectory.observations.size();
    }
  };

  /// Told that job `job` of a batch has finished, with its final result.
  using JobDoneFn = std::function<void(std::size_t job, const TrackResult& result)>;

  /// Batched firing (docs/serving.md): tracks jobs.size() independent
  /// trajectories colocated on the calling thread through `instance`
  /// (built from this app's system().plan()). Every actor of this graph
  /// fires once per iteration, so iteration k of the merged PASS is step
  /// k % T of job k / T — one program traversal amortized over the whole
  /// batch. Jobs must share one trajectory length T. Dataflow
  /// determinacy makes each result bit-identical to a one-job
  /// track()/track_threaded() run with that job's seed (the serve tests
  /// assert it). Wires the instance's computes and resets its invocation
  /// counters once per call; call again to reuse the instance.
  /// Jobs run one after another, and job k's result is final as soon as
  /// its T iterations end: `on_job` (optional) receives it right then,
  /// before job k + 1 starts, and a synthetic job's trajectory is built
  /// only just before the job's own iterations. The returned vector
  /// holds every result again, in job order.
  /// `run_options` (optional) configures the batch run — watchdog,
  /// flight recorder dump directory — its iteration count is overridden
  /// by the batch size. If job k fails, jobs before it have reached
  /// `on_job` and the call throws.
  [[nodiscard]] std::vector<TrackResult> track_batch(
      std::span<const ParticleJobSpec> jobs, core::JobInstance& instance,
      const core::RunOptions* run_options = nullptr, const JobDoneFn& on_job = {}) const;

  /// The wiring half of track_batch: registers the batch's computes on
  /// `instance`, builds every synthetic trajectory and resets the
  /// invocation counters without running, so the caller drives
  /// instance.run_colocated(...) itself — iteration k is step k % T of
  /// job k / T, for up to jobs.size() * T iterations. The answers are
  /// not collected. `jobs` must outlive those runs. The allocation gate
  /// (bench/micro_channel.cpp) times warm iterations through it.
  void bind_batch(std::span<const ParticleJobSpec> jobs, core::JobInstance& instance) const;

  /// Figure 7: timed execution at a given run-time particle count.
  [[nodiscard]] sim::ExecStats run_timed(std::size_t particles,
                                         const ParticleTimingModel& timing,
                                         std::int64_t iterations,
                                         const sim::CommBackend* backend = nullptr) const;

  /// Table 2: component-wise FPGA area of the n-PE system.
  [[nodiscard]] sim::AreaReport area_report() const;

 private:
  struct TrackState;       // per-job mutable state shared by the compute fns
  struct BatchTrackState;  // ordered job states + the invocation->job mapping
  /// A job's initial particle state; its trajectory is bound separately
  /// (`steps` sizes the estimates).
  [[nodiscard]] static std::shared_ptr<TrackState> make_track_state(
      const ParticleParams& params, std::size_t n, std::size_t steps);
  /// The job's answer, moved out of its finished state.
  [[nodiscard]] static TrackResult take_result(TrackState& state);
  /// Fresh job states for a non-empty batch sharing one trajectory
  /// length; a job's trajectory is bound by bind_trajectory.
  [[nodiscard]] std::shared_ptr<BatchTrackState> make_batch(
      std::span<const ParticleJobSpec> jobs) const;
  /// Points job `k`'s state at its trajectory, building a synthetic one.
  void bind_trajectory(BatchTrackState& batch, std::span<const ParticleJobSpec> jobs,
                       std::size_t k) const;
  /// Registers all compute functions on either execution engine
  /// (FunctionalRuntime, ThreadedRuntime or JobInstance — same ComputeFn
  /// contract). Each firing resolves its job's TrackState from
  /// ctx.invocation (a single-trajectory run is a batch of one). Each
  /// PE's state is touched only by that PE's actors (all mapped to the
  /// same processor), and the shared estimate is appended only by Res0 —
  /// so the wiring is thread-safe on the threaded engine without extra
  /// locks.
  template <class Runtime>
  void wire_tracking(Runtime& runtime, const std::shared_ptr<BatchTrackState>& batch) const;

  std::int32_t pe_count_;
  ParticleParams params_;
  // Per-PE actors (phase pipeline) and the shared observation source.
  df::ActorId obs_ = df::kInvalidActor;
  std::vector<df::ActorId> est_, upd_, lws_, res_, xch_;
  std::vector<df::EdgeId> obs_edge_;                   ///< obs -> upd_i
  std::vector<std::vector<df::EdgeId>> lws_edge_;      ///< lws_i -> res_j (all j)
  std::vector<std::vector<df::EdgeId>> particle_edge_; ///< res_i -> xch_j (j != i; [i][j])
  std::vector<df::EdgeId> chain_eu_, chain_ul_, chain_rx_, loop_xe_;
  std::unique_ptr<core::SpiSystem> system_;
};

}  // namespace spi::apps
