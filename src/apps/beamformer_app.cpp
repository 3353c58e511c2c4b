#include "apps/beamformer_app.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "apps/serialization.hpp"
#include "core/job_instance.hpp"

namespace spi::apps {

namespace {

/// The carrier is sampled at 4 samples per wavelength; steering delays
/// are expressed on the same scale.
constexpr double kSamplesPerWavelength = 4.0;
constexpr double kCarrier = 1.0 / kSamplesPerWavelength;  // normalized frequency

}  // namespace

// ---------------------------------------------------------------------------
// BeamformerReference
// ---------------------------------------------------------------------------

BeamformerReference::BeamformerReference(BeamformerParams params) : params_(params) {
  if (params_.sensors == 0) throw std::invalid_argument("Beamformer: need >= 1 sensor");
  if (params_.block < 8) throw std::invalid_argument("Beamformer: block must be >= 8");
  if (params_.spacing_wavelengths <= 0.0)
    throw std::invalid_argument("Beamformer: spacing must be positive");
}

double BeamformerReference::delay_samples(std::size_t sensor, double angle_rad) const {
  const double per_element =
      params_.spacing_wavelengths * kSamplesPerWavelength * std::sin(angle_rad);
  const double raw = static_cast<double>(sensor) * per_element;
  const double last = static_cast<double>(params_.sensors - 1) * per_element;
  return raw - std::min(0.0, last);  // shifted so every delay is >= 0
}

std::vector<std::vector<double>> BeamformerReference::sensor_block(
    double source_rad, std::int64_t block_index) const {
  std::vector<std::vector<double>> block(params_.sensors,
                                         std::vector<double>(params_.block, 0.0));
  for (std::size_t m = 0; m < params_.sensors; ++m) {
    // Per-(sensor, block) deterministic noise stream, independent of how
    // many PEs regenerate it.
    dsp::Rng rng(params_.seed ^ (0x9E3779B9ULL * (m + 1)) ^
                 (0xC2B2AE35ULL * static_cast<std::uint64_t>(block_index + 1)));
    const double tau = delay_samples(m, source_rad);
    for (std::size_t n = 0; n < params_.block; ++n) {
      const double t =
          static_cast<double>(block_index) * static_cast<double>(params_.block) +
          static_cast<double>(n) - tau;
      block[m][n] = std::sin(2.0 * std::numbers::pi * kCarrier * t) +
                    rng.gaussian(0.0, params_.noise_stddev);
    }
  }
  return block;
}

std::vector<double> BeamformerReference::steer_channel(std::span<const double> x,
                                                       double advance_samples) {
  std::vector<double> y(x.size(), 0.0);
  const auto last = static_cast<double>(x.size() - 1);
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double pos = std::min(static_cast<double>(n) + advance_samples, last);
    const auto i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    const double a = x[i];
    const double b = i + 1 < x.size() ? x[i + 1] : x[i];
    y[n] = a + frac * (b - a);  // linear interpolation
  }
  return y;
}

std::vector<double> BeamformerReference::beamform(
    const std::vector<std::vector<double>>& sensors, double steer_rad) const {
  if (sensors.size() != params_.sensors)
    throw std::invalid_argument("beamform: sensor count mismatch");
  std::vector<double> y(params_.block, 0.0);
  const double weight = 1.0 / static_cast<double>(params_.sensors);
  for (std::size_t m = 0; m < params_.sensors; ++m) {
    const std::vector<double> aligned =
        steer_channel(sensors[m], delay_samples(m, steer_rad));
    for (std::size_t n = 0; n < params_.block; ++n) y[n] += weight * aligned[n];
  }
  return y;
}

double BeamformerReference::steered_power(double steer_rad, double source_rad,
                                          std::int64_t blocks) const {
  double acc = 0.0;
  std::int64_t samples = 0;
  for (std::int64_t k = 0; k < blocks; ++k) {
    const std::vector<double> y = beamform(sensor_block(source_rad, k), steer_rad);
    for (double v : y) acc += v * v;
    samples += static_cast<std::int64_t>(y.size());
  }
  return acc / static_cast<double>(samples);
}

// ---------------------------------------------------------------------------
// BeamformerApp
// ---------------------------------------------------------------------------

BeamformerApp::BeamformerApp(std::int32_t pe_count, BeamformerParams params,
                             core::SpiSystemOptions options)
    : pe_count_(pe_count), params_(params) {
  if (pe_count <= 0) throw std::invalid_argument("BeamformerApp: pe_count must be positive");
  if (params_.sensors < static_cast<std::size_t>(pe_count))
    throw std::invalid_argument("BeamformerApp: need at least one sensor per PE");

  df::Graph graph("beamformer-" + std::to_string(pe_count) + "pe-" +
                  std::to_string(params_.sensors) + "sensors");
  const auto n = static_cast<std::size_t>(pe_count);
  const auto block_bytes = static_cast<std::int64_t>(sizeof(double));

  steer_ = graph.add_actor("Steer", 8);
  dist_.reserve(n);
  psum_.reserve(n);
  sensor_actor_.resize(n);
  feed_edge_.resize(n);
  sensor_edge_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::string s = std::to_string(p);
    dist_.push_back(graph.add_actor("Dist" + s, 4));
    for (std::size_t m = p; m < params_.sensors; m += n)
      sensor_actor_[p].push_back(graph.add_actor("Sensor" + std::to_string(m), 32));
    psum_.push_back(graph.add_actor("Psum" + s, 16));
  }
  sum_ = graph.add_actor("Sum", 16);

  for (std::size_t p = 0; p < n; ++p) {
    steer_edge_.push_back(graph.connect_simple(steer_, dist_[p], 0, sizeof(double)));
    for (df::ActorId sensor : sensor_actor_[p]) {
      feed_edge_[p].push_back(graph.connect_simple(dist_[p], sensor, 0, sizeof(double)));
      // One block token per firing (the block is one packed static token).
      sensor_edge_[p].push_back(graph.connect(
          sensor, df::Rate::fixed(static_cast<std::int64_t>(params_.block)), psum_[p],
          df::Rate::fixed(static_cast<std::int64_t>(params_.block)), 0, block_bytes));
    }
    partial_edge_.push_back(graph.connect(
        psum_[p], df::Rate::fixed(static_cast<std::int64_t>(params_.block)), sum_,
        df::Rate::fixed(static_cast<std::int64_t>(params_.block)), 0, block_bytes));
  }

  sched::Assignment assignment(graph.actor_count(), pe_count);
  assignment.assign(steer_, 0);
  assignment.assign(sum_, 0);
  for (std::size_t p = 0; p < n; ++p) {
    assignment.assign(dist_[p], static_cast<sched::Proc>(p));
    assignment.assign(psum_[p], static_cast<sched::Proc>(p));
    for (df::ActorId sensor : sensor_actor_[p])
      assignment.assign(sensor, static_cast<sched::Proc>(p));
  }

  options.pass_policy = df::SchedulePolicy::kFirstFireable;
  system_ = std::make_unique<core::SpiSystem>(graph, std::move(assignment), options);
}

std::vector<std::size_t> BeamformerApp::sensors_on(std::int32_t pe) const {
  if (pe < 0 || pe >= pe_count_) throw std::out_of_range("BeamformerApp::sensors_on: bad PE");
  std::vector<std::size_t> result;
  for (std::size_t m = static_cast<std::size_t>(pe); m < params_.sensors;
       m += static_cast<std::size_t>(pe_count_))
    result.push_back(m);
  return result;
}

std::vector<double> BeamformerApp::run_functional(double steer_rad, double source_rad,
                                                  std::int64_t blocks) const {
  const BeamformerReference reference(params_);
  core::JobInstance runtime(system_->plan());
  auto output = std::make_shared<std::vector<double>>();
  const auto n = static_cast<std::size_t>(pe_count_);
  const double weight = 1.0 / static_cast<double>(params_.sensors);

  runtime.set_compute(steer_, [this, steer_rad](core::FiringContext& ctx) {
    for (df::EdgeId e : steer_edge_)
      pack_f64_into(ctx.emit(ctx.output_index(e)), steer_rad);
  });
  for (std::size_t p = 0; p < n; ++p) {
    runtime.set_compute(dist_[p], [this, p](core::FiringContext& ctx) {
      const core::Bytes& token = ctx.inputs[ctx.input_index(steer_edge_[p])][0];
      for (df::EdgeId e : feed_edge_[p]) ctx.outputs[ctx.output_index(e)] = {token};
    });
    const std::vector<std::size_t> locals = sensors_on(static_cast<std::int32_t>(p));
    for (std::size_t li = 0; li < locals.size(); ++li) {
      const std::size_t m = locals[li];
      runtime.set_compute(
          sensor_actor_[p][li],
          [this, p, li, m, source_rad, weight, reference](core::FiringContext& ctx) {
            const double steer = f64_at(ctx.in(ctx.input_index(feed_edge_[p][li])), 0);
            // Regenerate this sensor's channel of the shared scene.
            const auto scene = reference.sensor_block(source_rad, ctx.invocation);
            const std::vector<double> aligned = BeamformerReference::steer_channel(
                scene[m], reference.delay_samples(m, steer));
            const std::size_t out = ctx.output_index(sensor_edge_[p][li]);
            for (const double v : aligned) pack_f64_into(ctx.emit(out), v * weight);
          });
    }
    runtime.set_compute(psum_[p], [this, p](core::FiringContext& ctx) {
      std::vector<double> partial(params_.block, 0.0);
      for (df::EdgeId e : sensor_edge_[p]) {
        const auto& tokens = ctx.inputs[ctx.input_index(e)];
        for (std::size_t i = 0; i < tokens.size(); ++i)
          partial[i] += f64_at(tokens[i], 0);
      }
      const std::size_t out = ctx.output_index(partial_edge_[p]);
      for (const double v : partial) pack_f64_into(ctx.emit(out), v);
    });
  }
  runtime.set_compute(sum_, [this, output, n](core::FiringContext& ctx) {
    std::vector<double> block(params_.block, 0.0);
    for (df::EdgeId e : partial_edge_) {
      const auto& tokens = ctx.inputs[ctx.input_index(e)];
      for (std::size_t i = 0; i < tokens.size(); ++i) block[i] += f64_at(tokens[i], 0);
    }
    output->insert(output->end(), block.begin(), block.end());
  });

  runtime.run_colocated(blocks);
  return *output;
}

sim::ExecStats BeamformerApp::run_timed(const BeamformerTimingModel& timing,
                                        std::int64_t iterations,
                                        const sim::CommBackend* backend) const {
  const auto block = static_cast<std::int64_t>(params_.block);
  sim::WorkloadModel workload;
  workload.exec_cycles = [this, block, timing](std::int32_t task, std::int64_t) -> std::int64_t {
    const df::ActorId actor = system_->plan().sync_graph.task(task).actor;
    const std::string& name = system_->application().actor(actor).name;
    if (name.starts_with("Sensor"))
      return timing.setup_cycles + block * timing.sensor_cycles_per_sample;
    if (name.starts_with("Psum")) {
      // Per-PE sensor counts differ by at most one; charge the maximum.
      const std::int64_t max_locals =
          (static_cast<std::int64_t>(params_.sensors) + pe_count_ - 1) / pe_count_;
      return timing.setup_cycles + max_locals * block * timing.sum_cycles_per_sample;
    }
    if (name.starts_with("Sum"))
      return timing.setup_cycles + pe_count_ * block * timing.sum_cycles_per_sample;
    return timing.setup_cycles;  // Steer / Dist
  };
  workload.payload_bytes = [this, block, timing](const sched::SyncEdge& e,
                                                 std::int64_t) -> std::int64_t {
    for (df::EdgeId steer : steer_edge_)
      if (e.dataflow_edge == steer) return 8;
    return block * timing.sample_wire_bytes;  // partial blocks
  };

  sim::TimedExecutorOptions options;
  options.iterations = iterations;
  options.clock.mhz = timing.clock_mhz;
  options.link = timing.link;
  const core::ExecutablePlan& plan = system_->plan();
  return core::run_timed(plan, backend ? *backend : *plan.make_backend(), options,
                         std::move(workload));
}

sim::AreaReport BeamformerApp::area_report() const {
  sim::AreaReport report(sim::virtex4_sx35());
  report.add("Steering host", sim::ResourceVector{30, 40, 50, 0, 0});
  report.add("Final combiner", sim::ResourceVector{80, 100, 120, 0, 1});
  for (std::int32_t p = 0; p < pe_count_; ++p) {
    const std::string s = std::to_string(p);
    report.add("Distributor " + s, sim::ResourceVector{12, 16, 20, 0, 0});
    report.add("Partial sum " + s, sim::ResourceVector{60, 80, 100, 0, 1});
    for (std::size_t m : sensors_on(p))
      report.add("Sensor channel " + std::to_string(m),
                 sim::ResourceVector{180, 240, 300, 1, 2});
    if (p > 0)
      report.add("SPI steer channel " + s, sim::ResourceVector{2, 1, 8, 0, 0}, /*is_spi=*/true);
    report.add("SPI partial channel " + s, sim::ResourceVector{4, 2, 14, 1, 0},
               /*is_spi=*/true);
  }
  return report;
}

}  // namespace spi::apps
