/// \file beamformer_app.hpp
/// A delay-and-sum beamformer on SPI — the third domain application
/// (the signal-processing literature the paper builds on uses hard
/// real-time beamformers as the canonical massively parallel workload).
///
/// An M-sensor uniform linear array listens to a plane wave from angle
/// theta. Per block of B samples, each sensor channel applies its
/// steering delay (integer + linear-interpolated fractional part) and
/// apodization weight; channels are distributed across n PEs, each PE
/// reduces its local channels to one partial block, and a combiner on
/// the host PE sums the n partials — a hierarchical reduction whose
/// traffic is n blocks per iteration instead of M.
///
/// Channels: steering updates host->PE (SPI_static, tiny), partial
/// blocks PE->host (SPI_static, B samples) — an all-static system that
/// complements the paper's dynamic applications.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "dsp/rng.hpp"
#include "sim/fpga_area.hpp"

namespace spi::apps {

struct BeamformerParams {
  std::size_t sensors = 8;        ///< M: array elements
  std::size_t block = 64;         ///< B: samples per block (per iteration)
  double spacing_wavelengths = 0.5;  ///< element pitch / wavelength (d/lambda)
  double noise_stddev = 1.0;      ///< per-sensor white noise
  std::uint64_t seed = 17;
};

/// Sequential reference: steer the array to `steer_rad` and process one
/// block of the scene (a unit-amplitude plane wave from `source_rad` in
/// per-sensor noise). Returns the beamformed block.
class BeamformerReference {
 public:
  explicit BeamformerReference(BeamformerParams params);

  [[nodiscard]] const BeamformerParams& params() const { return params_; }

  /// Per-sensor steering delay in samples for a far-field source at
  /// `angle_rad` (4 samples per wavelength of travel; always >= 0).
  [[nodiscard]] double delay_samples(std::size_t sensor, double angle_rad) const;

  /// Synthesizes one block of sensor data for a source at `source_rad`
  /// (deterministic given the params seed and block index).
  [[nodiscard]] std::vector<std::vector<double>> sensor_block(double source_rad,
                                                              std::int64_t block_index) const;

  /// One channel advanced by `advance_samples` (linear interpolation,
  /// clamped at the block edges) — the per-sensor steering primitive the
  /// distributed implementation shares with the reference.
  [[nodiscard]] static std::vector<double> steer_channel(std::span<const double> x,
                                                         double advance_samples);

  /// Delay-and-sum over one multi-sensor block steered to `steer_rad`.
  [[nodiscard]] std::vector<double> beamform(
      const std::vector<std::vector<double>>& sensors, double steer_rad) const;

  /// Mean output power of `blocks` blocks with the beam at `steer_rad`
  /// and the source at `source_rad` — the beam-pattern probe.
  [[nodiscard]] double steered_power(double steer_rad, double source_rad,
                                     std::int64_t blocks) const;

 private:
  BeamformerParams params_;
};

struct BeamformerTimingModel {
  double clock_mhz = 100.0;
  std::int64_t sensor_cycles_per_sample = 3;  ///< delay interpolation + weight
  std::int64_t sum_cycles_per_sample = 1;     ///< one accumulate per sample
  std::int64_t setup_cycles = 16;
  std::int64_t sample_wire_bytes = 4;
  sim::LinkParams link;
};

/// The distributed beamformer system.
class BeamformerApp {
 public:
  BeamformerApp(std::int32_t pe_count, BeamformerParams params,
                core::SpiSystemOptions options = {});

  [[nodiscard]] std::int32_t pe_count() const { return pe_count_; }
  [[nodiscard]] const core::SpiSystem& system() const { return *system_; }
  [[nodiscard]] const BeamformerParams& params() const { return params_; }

  /// Sensors handled by PE p (round-robin distribution).
  [[nodiscard]] std::vector<std::size_t> sensors_on(std::int32_t pe) const;

  /// Distributed run, executed sequentially by a local colocated
  /// JobInstance: beamform `blocks` blocks of the scene; output is
  /// bit-identical to the sequential reference (tests assert).
  [[nodiscard]] std::vector<double> run_functional(double steer_rad, double source_rad,
                                                   std::int64_t blocks) const;

  /// Timed run for the throughput experiment.
  [[nodiscard]] sim::ExecStats run_timed(const BeamformerTimingModel& timing,
                                         std::int64_t iterations,
                                         const sim::CommBackend* backend = nullptr) const;

  /// Component-wise FPGA area of the n-PE array processor.
  [[nodiscard]] sim::AreaReport area_report() const;

 private:
  std::int32_t pe_count_;
  BeamformerParams params_;
  df::ActorId steer_ = df::kInvalidActor;  ///< steering source (host)
  df::ActorId sum_ = df::kInvalidActor;    ///< final combiner (host)
  std::vector<df::ActorId> dist_;          ///< per-PE steering distributor
  std::vector<df::ActorId> psum_;          ///< per-PE partial reducers
  std::vector<std::vector<df::ActorId>> sensor_actor_;  ///< [pe][local index]
  std::vector<df::EdgeId> steer_edge_;     ///< steer -> dist_p
  std::vector<std::vector<df::EdgeId>> feed_edge_;      ///< dist_p -> sensor (local)
  std::vector<std::vector<df::EdgeId>> sensor_edge_;    ///< sensor -> psum (local)
  std::vector<df::EdgeId> partial_edge_;   ///< psum_p -> sum
  std::unique_ptr<core::SpiSystem> system_;
};

}  // namespace spi::apps
