#include "core/job_instance.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/worker_pool.hpp"
#include "obs/obs_server.hpp"
#include "obs/text_escape.hpp"

namespace spi::core {

JobInstance::JobInstance(const ExecutablePlan& plan, JobInstanceOptions options)
    : plan_(plan),
      graph_(plan.vts.graph),
      reliability_(options.reliability),
      policy_(options.policy),
      label_(std::move(options.label)),
      owned_registry_(options.metrics ? nullptr : std::make_unique<obs::MetricRegistry>()),
      registry_(options.metrics ? options.metrics : owned_registry_.get()),
      compute_(graph_.actor_count()),
      local_(graph_.edge_count()),
      spsc_(graph_.edge_count()),
      blocking_(graph_.edge_count()),
      edge_messages_(graph_.edge_count(), nullptr),
      edge_payload_bytes_(graph_.edge_count(), nullptr),
      fired_(graph_.actor_count(), 0) {
  if (reliability_.enabled) reliability_.policy().validate();
  init();
}

void JobInstance::init() {
  // Bounded channels for every interprocessor edge. Capacity: the BBS
  // bound (equation 2, converted to tokens) or the UBS credit window,
  // plus the edge's initial tokens.
  for (const ChannelSpec& spec : plan_.channels) {
    const std::int64_t per_iter = spec.prod_tokens * spec.src_firings_per_iteration;
    const std::int64_t window = spec.bbs_capacity_tokens.value_or(1);
    const std::int64_t capacity = window * per_iter + spec.delay_tokens;
    const auto ei = static_cast<std::size_t>(spec.edge);
    const bool reliable = reliability_.enabled && spec.reliable;

    obs::Labels labels{{"channel", spec.name}};
    // The job label keeps concurrent instances' series apart when they
    // share one registry (the serving daemon's /metrics).
    if (!label_.empty()) labels.emplace_back("job", label_);
    ChannelCounters counters;
    counters.messages = &registry_->counter(
        "spi_threaded_messages_total", labels,
        "Interprocessor tokens moved through one SPI channel");
    counters.payload_bytes = &registry_->counter(
        "spi_threaded_payload_bytes_total", labels,
        "Payload bytes moved through one SPI channel");
    counters.producer_blocks =
        &registry_->counter("spi_threaded_producer_blocks_total", labels,
                            "Times a sender hit the channel's capacity and waited");
    counters.consumer_blocks =
        &registry_->counter("spi_threaded_consumer_blocks_total", labels,
                            "Times a receiver found the channel empty and waited");
    counters.producer_block_micros =
        &registry_->counter("spi_threaded_producer_block_micros_total", labels,
                            "Wall-clock microseconds senders spent blocked on the channel");
    counters.consumer_block_micros =
        &registry_->counter("spi_threaded_consumer_block_micros_total", labels,
                            "Wall-clock microseconds receivers spent blocked on the channel");
    if (reliability_.enabled) {
      counters.retries = &registry_->counter(
          "spi_reliable_retries_total", labels,
          "Retransmissions after a dropped or corrupted attempt");
      counters.dropped_frames = &registry_->counter(
          "spi_reliable_dropped_frames_total", labels,
          "Transmission attempts the faulty wire swallowed");
      counters.crc_failures = &registry_->counter(
          "spi_reliable_crc_failures_total", labels,
          "Frames the receiver rejected on CRC or framing");
      counters.duplicates = &registry_->counter(
          "spi_reliable_duplicates_total", labels,
          "Stale-sequence frames the receiver discarded");
      counters.timeouts = &registry_->counter(
          "spi_reliable_timeouts_total", labels,
          "Receive deadlines that expired on an empty channel");
      counters.send_failures = &registry_->counter(
          "spi_reliable_send_failures_total", labels,
          "Messages whose retry budget was exhausted (typed failure)");
      counters.backoff_micros = &registry_->counter(
          "spi_reliable_backoff_micros_total", labels,
          "Wall-clock microseconds senders spent in retry backoff");
      counters.backoff_histogram = &registry_->histogram(
          "spi_reliable_backoff_micros", obs::Histogram::exponential_bounds(50.0, 2.0, 10),
          labels, "Distribution of individual retry backoff pauses (microseconds)");
    }
    channel_counters_.push_back(counters);

    // Live occupancy gauges (refreshed on scrape, never on the hot
    // path): depth right now, the high watermark so far, and the static
    // capacity the channel was built with — watermark vs. capacity is
    // the "is the eq.-2 bound tight?" signal /runtime serves.
    depth_gauges_.push_back(&registry_->gauge(
        "spi_channel_depth_tokens", labels,
        "Tokens currently queued in one SPI channel (scrape-time sample)"));
    watermark_gauges_.push_back(&registry_->gauge(
        "spi_channel_high_watermark_tokens", labels,
        "Highest occupancy one SPI channel ever reached this process"));
    registry_
        ->gauge("spi_channel_capacity_tokens", labels,
                "Configured token capacity of one SPI channel (eq.-2 bound + delays)")
        .set(static_cast<double>(std::max<std::int64_t>(1, capacity)));

    if (!reliable) {
      // Plain edges batch message/byte accounting per firing in fire();
      // reliable channels count per attempt inside the protocol.
      edge_messages_[ei] = counters.messages;
      edge_payload_bytes_[ei] = counters.payload_bytes;
    }

    // Channel selection (docs/architecture.md): the lock-free slab
    // channel wherever the plan's static knowledge allows it; the
    // mutex-based fallback where the reliable protocol needs requeue and
    // deadline waits, or when the policy forces it.
    if (reliable || policy_ == ChannelPolicy::kBlockingOnly) {
      auto channel = std::make_unique<BlockingChannel>(
          spec.edge, static_cast<std::size_t>(std::max<std::int64_t>(1, capacity)), abort_,
          counters);
      if (reliable) channel->enable_reliability(reliability_.faults, reliability_.policy());
      blocking_[ei] = std::move(channel);
    } else {
      const df::VtsEdgeInfo& info = plan_.vts.edges[ei];
      const std::int64_t frame_bound =
          info.converted ? info.b_max_bytes : spec.token_bytes;
      auto channel = std::make_unique<SpscChannel>(
          spec.edge, static_cast<std::size_t>(std::max<std::int64_t>(1, capacity)),
          static_cast<std::size_t>(std::max<std::int64_t>(1, frame_bound)), &abort_);
      channel->set_counters(counters.spsc());
      spsc_[ei] = std::move(channel);
      ++spsc_count_;
    }
  }

  // Every token buffer the firing path circulates (context input slots,
  // emit() spares, local ring slots) is reserved to its edge's token
  // bound up front: a packed token never exceeds b_max, so no buffer
  // ever grows and even the first firing allocates nothing.
  std::vector<std::size_t> token_bound(graph_.edge_count());
  for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
    const df::VtsEdgeInfo& info = plan_.vts.edges[i];
    token_bound[i] = static_cast<std::size_t>(
        info.converted ? info.b_max_bytes : graph_.edge(static_cast<df::EdgeId>(i)).token_bytes);
  }
  const auto reserved_tokens = [&token_bound](std::size_t count, df::EdgeId edge) {
    std::vector<Bytes> tokens(count);
    for (Bytes& token : tokens) token.reserve(token_bound[static_cast<std::size_t>(edge)]);
    return tokens;
  };

  // Local rings hold at most one iteration's tokens plus the delays: a
  // processor runs its program sequentially, so every local edge is
  // back to its delay count at each iteration boundary.
  std::vector<std::int64_t> firings(graph_.actor_count(), 0);
  for (const df::ActorId actor : plan_.pass.firings) ++firings[static_cast<std::size_t>(actor)];
  for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
    if (spsc_[i] || blocking_[i]) continue;
    const df::Edge& e = graph_.edge(static_cast<df::EdgeId>(i));
    const std::int64_t tokens =
        e.delay + e.prod.value() * firings[static_cast<std::size_t>(e.src)];
    local_[i].slots = reserved_tokens(static_cast<std::size_t>(std::max<std::int64_t>(1, tokens)),
                                      static_cast<df::EdgeId>(i));
  }

  reset_tokens();

  // One published heartbeat/wait-state slot per worker, cache-line
  // aligned so the per-firing stores stay worker-private.
  worker_count_ = plan_.programs.size();
  worker_state_ = std::make_unique<WorkerState[]>(worker_count_);
  colocated_epochs_.assign(worker_count_, 0);

  // Persistent per-(proc, step) firing contexts: the outer vectors, the
  // input slots and one firing's worth of emit() spares per output are
  // built once and keep their capacity across iterations.
  contexts_.resize(plan_.programs.size());
  for (std::size_t p = 0; p < plan_.programs.size(); ++p) {
    const std::vector<FiringStep>& program = plan_.programs[p];
    contexts_[p].resize(program.size());
    for (std::size_t s = 0; s < program.size(); ++s) {
      FiringContext& ctx = contexts_[p][s];
      const FiringStep& step = program[s];
      ctx.actor = step.actor;
      ctx.in_edges = step.in_edges;
      ctx.out_edges = step.out_edges;
      ctx.inputs.resize(ctx.in_edges.size());
      for (std::size_t i = 0; i < ctx.in_edges.size(); ++i) {
        const df::Edge& e = graph_.edge(ctx.in_edges[i]);
        ctx.inputs[i] = reserved_tokens(static_cast<std::size_t>(e.cons.value()), ctx.in_edges[i]);
      }
      ctx.outputs.resize(ctx.out_edges.size());
      ctx.spare.resize(ctx.out_edges.size());
      for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
        const df::Edge& e = graph_.edge(ctx.out_edges[i]);
        const auto prod = static_cast<std::size_t>(e.prod.value());
        ctx.outputs[i].reserve(prod);
        ctx.spare[i] = reserved_tokens(prod, ctx.out_edges[i]);
      }
    }
  }

  // The colocated traversal order: every per-processor program is a
  // subsequence of the plan's PASS (pipeline.cpp builds them by slicing
  // it), so replaying the PASS with one cursor per processor recovers
  // the admissible merged order — the order in which one thread can walk
  // every processor's work without a single channel wait.
  std::vector<std::int32_t> proc_of(graph_.actor_count(), -1);
  for (std::size_t p = 0; p < plan_.programs.size(); ++p)
    for (const FiringStep& step : plan_.programs[p])
      proc_of[static_cast<std::size_t>(step.actor)] = static_cast<std::int32_t>(p);
  std::vector<std::size_t> cursor(plan_.programs.size(), 0);
  colocated_order_.reserve(plan_.pass.firings.size());
  for (const df::ActorId actor : plan_.pass.firings) {
    const std::int32_t p = proc_of[static_cast<std::size_t>(actor)];
    if (p < 0 || cursor[static_cast<std::size_t>(p)] >= plan_.programs[p].size() ||
        plan_.programs[p][cursor[static_cast<std::size_t>(p)]].actor != actor)
      throw std::logic_error("JobInstance: programs are not a partition of the PASS");
    colocated_order_.emplace_back(p, static_cast<std::int32_t>(cursor[static_cast<std::size_t>(p)]++));
  }
  for (std::size_t p = 0; p < plan_.programs.size(); ++p)
    if (cursor[p] != plan_.programs[p].size())
      throw std::logic_error("JobInstance: PASS shorter than the per-processor programs");
}

void JobInstance::reset_tokens() {
  // Empty first: a run that failed mid-iteration left tokens of that
  // iteration on some edges and took delay tokens off others. Both ends
  // are idle, so one thread may drain each channel from the consumer
  // side.
  for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
    if (spsc_[i]) {
      std::span<const std::uint8_t> token;
      while (spsc_[i]->try_front(token)) spsc_[i]->pop();
    } else if (blocking_[i]) {
      blocking_[i]->clear();
      // The reliable protocol restarts at sequence 0 on both ends.
      if (blocking_[i]->reliable())
        blocking_[i]->enable_reliability(reliability_.faults, reliability_.policy());
    } else {
      local_[i].head = 0;
      local_[i].count = 0;
    }
  }
  // Delay tokens, placed through the faultless path: they are part of
  // the compiled system, not traffic the fault plan may eat. Plain
  // channels no longer count per token, so account for the placement
  // here (reliable execute() counts for itself).
  for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
    const df::Edge& e = graph_.edge(static_cast<df::EdgeId>(i));
    const bool dynamic = plan_.vts.edges[i].converted;
    const std::size_t token_bytes = dynamic ? 0 : static_cast<std::size_t>(e.token_bytes);
    for (std::int64_t d = 0; d < e.delay; ++d) {
      if (spsc_[i]) {
        Bytes token(token_bytes, 0);
        spsc_[i]->push({token.data(), token.size()});
      } else if (blocking_[i]) {
        blocking_[i]->push_faultless(Bytes(token_bytes, 0));
      } else {
        local_[i].push_slot().assign(token_bytes, 0);
        continue;
      }
      if (edge_messages_[i]) {
        edge_messages_[i]->inc();
        edge_payload_bytes_[i]->inc(static_cast<std::int64_t>(token_bytes));
      }
    }
  }
}

Bytes& JobInstance::LocalRing::push_slot() {
  if (count == slots.size()) {
    // Unroll the ring so the queued tokens stay in order, then grow.
    std::rotate(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(head), slots.end());
    head = 0;
    slots.resize(std::max<std::size_t>(1, 2 * slots.size()));
  }
  Bytes& slot = slots[(head + count) % slots.size()];
  ++count;
  return slot;
}

void JobInstance::LocalRing::pop_into(Bytes& dest) {
  std::swap(dest, slots[head]);
  head = (head + 1) % slots.size();
  --count;
}

std::int64_t JobInstance::resident_channel_bytes(const ExecutablePlan& plan) {
  // What one instance keeps resident in channel buffering: per channel,
  // the eq.-2/credit-window token capacity (exactly the capacity init()
  // builds the channel with) times the per-token frame bound the SPSC
  // slab reserves. Computable from the plan alone, so admission control
  // can reject a job before anything is allocated.
  std::int64_t total = 0;
  for (const ChannelSpec& spec : plan.channels) {
    const std::int64_t per_iter = spec.prod_tokens * spec.src_firings_per_iteration;
    const std::int64_t window = spec.bbs_capacity_tokens.value_or(1);
    const std::int64_t capacity = std::max<std::int64_t>(1, window * per_iter + spec.delay_tokens);
    const df::VtsEdgeInfo& info = plan.vts.edges[static_cast<std::size_t>(spec.edge)];
    const std::int64_t frame_bound =
        std::max<std::int64_t>(1, info.converted ? info.b_max_bytes : spec.token_bytes);
    total += capacity * frame_bound;
  }
  return total;
}

void JobInstance::interrupt_all() {
  for (auto& channel : spsc_)
    if (channel) channel->interrupt();
  for (auto& channel : blocking_)
    if (channel) channel->interrupt();
  // Wake workers parked on the in-flight cap too: abort_ is already set
  // by every caller, and the empty critical section pairs with the
  // waiters' predicate check under the same mutex.
  { std::lock_guard lock(inflight_mutex_); }
  inflight_cv_.notify_all();
}

std::int64_t JobInstance::min_completed_iterations() const {
  std::int64_t floor = 0;
  for (std::size_t i = 0; i < worker_count_; ++i) {
    const std::int64_t c = worker_state_[i].completed.load(std::memory_order_relaxed);
    if (i == 0 || c < floor) floor = c;
  }
  return floor;
}

bool JobInstance::await_inflight_slot(std::int64_t iter) {
  const std::int64_t cap = run_inflight_cap_;
  if (cap <= 0 || iter < cap) return !abort_.load();
  // Starting iteration `iter` puts iterations [floor, iter] in flight;
  // wait until every worker has completed through iter - cap so the
  // window holds at most `cap` iterations. cap == 1 degenerates to a
  // full barrier: nobody enters iteration i before all finish i - 1.
  const std::int64_t need = iter - cap + 1;
  std::unique_lock lock(inflight_mutex_);
  inflight_cv_.wait(lock, [&] {
    return abort_.load() || min_completed_iterations() >= need;
  });
  return !abort_.load();
}

void JobInstance::set_compute(df::ActorId actor, ComputeFn fn) {
  compute_.at(static_cast<std::size_t>(actor)) = std::move(fn);
}

void JobInstance::reset_invocations() { std::fill(fired_.begin(), fired_.end(), 0); }

void JobInstance::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (!flight_) return;
  if (flight_->proc_count() < static_cast<std::int32_t>(plan_.programs.size()))
    throw std::invalid_argument("JobInstance: flight recorder has fewer rings than procs");
  std::vector<std::string> actor_names(graph_.actor_count());
  for (std::size_t a = 0; a < graph_.actor_count(); ++a)
    actor_names[a] = graph_.actor(static_cast<df::ActorId>(a)).name;
  std::vector<std::string> edge_names(graph_.edge_count());
  for (std::size_t i = 0; i < graph_.edge_count(); ++i)
    edge_names[i] = graph_.edge(static_cast<df::EdgeId>(i)).name;
  for (const ChannelSpec& spec : plan_.channels)
    if (spec.edge >= 0 && static_cast<std::size_t>(spec.edge) < edge_names.size())
      edge_names[static_cast<std::size_t>(spec.edge)] = spec.name;
  flight_->set_names(std::move(actor_names), std::move(edge_names));
}

ThreadedRunStats JobInstance::counter_totals() const {
  ThreadedRunStats totals;
  for (const ChannelCounters& c : channel_counters_) {
    totals.messages += c.messages->value();
    totals.payload_bytes += c.payload_bytes->value();
    totals.producer_blocks += c.producer_blocks->value();
    totals.consumer_blocks += c.consumer_blocks->value();
    totals.producer_block_micros += c.producer_block_micros->value();
    totals.consumer_block_micros += c.consumer_block_micros->value();
    if (c.retries) {
      totals.retries += c.retries->value();
      totals.dropped_frames += c.dropped_frames->value();
      totals.crc_failures += c.crc_failures->value();
      totals.duplicates += c.duplicates->value();
      totals.timeouts += c.timeouts->value();
      totals.backoff_micros += c.backoff_micros->value();
    }
  }
  return totals;
}

void JobInstance::fire(const FiringStep& step, FiringContext& ctx, std::int32_t proc,
                       std::int64_t iteration, WorkerState& ws) {
  const df::ActorId actor = step.actor;
  const auto a = static_cast<std::size_t>(actor);
  const std::int64_t span_start_us = trace_ ? trace_->now_us() : 0;
  const ChannelFlightCtx flight_ctx{flight_, proc, actor, iteration};
  const ChannelFlightCtx* flight = flight_ ? &flight_ctx : nullptr;
  if (flight)
    flight_->record(proc, obs::FlightEventKind::kFireBegin, actor, -1, 0, iteration);
  ctx.invocation = fired_[a]++;
  ws.actor.store(actor, std::memory_order_relaxed);

  ws.waiting_side.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < ctx.in_edges.size(); ++i) {
    const df::EdgeId eid = ctx.in_edges[i];
    const auto ei = static_cast<std::size_t>(eid);
    const df::Edge& e = graph_.edge(eid);
    // Publish which channel we are about to consume from: if the pop
    // blocks forever, this is what lets the watchdog name the edge.
    // Relaxed stores to the worker's own cache line — no shared traffic.
    ws.waiting_edge.store(eid, std::memory_order_relaxed);
    // A compute may have moved tokens out last firing; restore the slot
    // count before refilling (capacity survives, so no steady-state
    // allocation).
    ctx.inputs[i].resize(static_cast<std::size_t>(e.cons.value()));
    for (std::int64_t t = 0; t < e.cons.value(); ++t) {
      Bytes& slot = ctx.inputs[i][static_cast<std::size_t>(t)];
      if (spsc_[ei]) {
        spsc_[ei]->pop_into(slot, flight);
      } else if (blocking_[ei]) {
        slot = blocking_[ei]->pop(flight);
      } else {
        LocalRing& ring = local_[ei];
        if (ring.count == 0)
          throw std::logic_error("JobInstance: local token underflow on " + e.name);
        ring.pop_into(slot);
      }
    }
  }

  // Inputs consumed: while the compute runs, waiting_edge = -1 with the
  // actor set is the "inside a compute function" state the watchdog
  // classifies as slow-actor.
  ws.waiting_edge.store(-1, std::memory_order_relaxed);
  ws.waiting_side.store(-1, std::memory_order_relaxed);

  const bool have_compute = static_cast<bool>(compute_[a]);
  if (have_compute) {
    // The previous firing's routed tokens become this firing's emit()
    // buffers (docs/architecture.md, "Token buffer lifecycle").
    ctx.recycle_outputs();
    compute_[a](ctx);
  }

  ws.waiting_side.store(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
    const df::EdgeId eid = ctx.out_edges[i];
    const auto ei = static_cast<std::size_t>(eid);
    const df::Edge& e = graph_.edge(eid);
    ws.waiting_edge.store(eid, std::memory_order_relaxed);
    const df::VtsEdgeInfo& info = plan_.vts.edges[ei];
    std::int64_t batch_bytes = 0;
    if (!have_compute) {
      // Default compute: full-rate zero tokens. On the SPSC path they go
      // straight into the slab — acquire, zero-fill, publish; no Bytes.
      const auto token_bytes = static_cast<std::size_t>(e.token_bytes);
      for (std::int64_t t = 0; t < e.prod.value(); ++t) {
        if (spsc_[ei]) {
          const std::span<std::uint8_t> slot = spsc_[ei]->acquire(flight);
          std::memset(slot.data(), 0, token_bytes);
          spsc_[ei]->publish(token_bytes, flight);
        } else if (blocking_[ei]) {
          blocking_[ei]->push(Bytes(token_bytes, 0), flight);
        } else {
          local_[ei].push_slot().assign(token_bytes, 0);
        }
        batch_bytes += static_cast<std::int64_t>(token_bytes);
      }
    } else {
      if (static_cast<std::int64_t>(ctx.outputs[i].size()) != e.prod.value())
        throw std::logic_error("JobInstance: wrong token count on " + e.name);
      for (Bytes& token : ctx.outputs[i]) {
        if (info.converted && static_cast<std::int64_t>(token.size()) > info.b_max_bytes)
          throw std::length_error("JobInstance: packed token exceeds b_max on " + e.name);
        batch_bytes += static_cast<std::int64_t>(token.size());
        if (spsc_[ei])
          spsc_[ei]->push({token.data(), token.size()}, flight);
        else if (blocking_[ei])
          blocking_[ei]->push(std::move(token), flight);
        else
          std::swap(local_[ei].push_slot(), token);  // token takes the slot's old buffer
      }
    }
    // One batched registry update per (firing, edge) instead of two
    // atomic RMWs per token — the per-token hot path touches no shared
    // counters. Null entries: local edges (uncounted, as before) and
    // reliable channels (count per attempt themselves).
    if ((spsc_[ei] || blocking_[ei]) && edge_messages_[ei]) {
      edge_messages_[ei]->inc(e.prod.value());
      edge_payload_bytes_[ei]->inc(batch_bytes);
    }
  }

  ws.waiting_edge.store(-1, std::memory_order_relaxed);
  ws.waiting_side.store(-1, std::memory_order_relaxed);
  ws.actor.store(-1, std::memory_order_relaxed);

  if (flight)
    flight_->record(proc, obs::FlightEventKind::kFireEnd, actor, -1, 0, iteration);
  if (trace_)
    trace_->record({graph_.actor(actor).name, "firing", proc, span_start_us, trace_->now_us(),
                    iteration});
}

void JobInstance::worker(std::int32_t proc, std::int64_t iterations) {
  const auto p = static_cast<std::size_t>(proc);
  WorkerState& ws = worker_state_[p];
  std::uint64_t epoch = 0;  ///< local heartbeat counter, published per firing
  const bool capped = run_inflight_cap_ > 0;
  try {
    const std::vector<FiringStep>& program = plan_.programs[p];
    std::vector<FiringContext>& contexts = contexts_[p];
    // Free-running across iteration boundaries: the only couplings to
    // the other workers are the channels themselves (whose eq.-2
    // capacities bound the skew in tokens) and, when the caller set
    // max_inflight_iterations, the explicit iteration-window gate.
    for (std::int64_t iter = 0; iter < iterations && !abort_.load(); ++iter) {
      if (capped && !await_inflight_slot(iter)) break;
      ws.iteration.store(iter, std::memory_order_relaxed);
      for (std::size_t s = 0; s < program.size(); ++s) {
        ws.step.store(static_cast<std::int32_t>(s), std::memory_order_relaxed);
        fire(program[s], contexts[s], proc, iter, ws);
        // The heartbeat: one relaxed store to a worker-private cache
        // line per completed firing — the watchdog's only hot-path cost.
        ws.epoch.store(++epoch, std::memory_order_relaxed);
      }
      ws.completed.store(iter + 1, std::memory_order_relaxed);
      if (capped) {
        // Publish-then-notify under the gate mutex so a parked worker
        // either sees the new floor in its predicate or gets the wake.
        { std::lock_guard lock(inflight_mutex_); }
        inflight_cv_.notify_all();
      }
    }
  } catch (const ChannelInterrupted&) {
    // Unwound by another worker's failure; nothing to record.
  } catch (...) {
    {
      std::lock_guard lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    abort_.store(true);
    interrupt_all();
  }
  ws.done.store(true, std::memory_order_relaxed);
}

void JobInstance::colocated_body(std::int64_t iterations, std::int64_t segment,
                                 const SegmentFn* on_segment) {
  // The whole plan on the calling thread, in PASS order. Admissibility
  // plus the eq.-2 capacities mean no channel operation here ever waits
  // — a wait with one thread would be a deadlock, and handing the plan
  // to this path is an assertion that the schedule proof holds. The same
  // fire()/heartbeat machinery runs, so the watchdog, flight recorder
  // and /runtime endpoint see exactly what they see under the gang.
  try {
    for (std::int64_t iter = 0; iter < iterations && !abort_.load(); ++iter) {
      for (std::size_t i = 0; i < worker_count_; ++i)
        worker_state_[i].iteration.store(iter, std::memory_order_relaxed);
      for (const auto& [proc, step] : colocated_order_) {
        const auto p = static_cast<std::size_t>(proc);
        const auto s = static_cast<std::size_t>(step);
        WorkerState& ws = worker_state_[p];
        ws.step.store(step, std::memory_order_relaxed);
        fire(plan_.programs[p][s], contexts_[p][s], proc, iter, ws);
        ws.epoch.store(++colocated_epochs_[p], std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < worker_count_; ++i)
        worker_state_[i].completed.store(iter + 1, std::memory_order_relaxed);
      if (on_segment && (iter + 1) % segment == 0) (*on_segment)(iter / segment);
    }
  } catch (const ChannelInterrupted&) {
    // Interrupted by the watchdog (or an embedded-server teardown);
    // the recorded StallError is what run() rethrows.
  } catch (...) {
    {
      std::lock_guard lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    abort_.store(true);
    interrupt_all();
  }
  for (std::size_t i = 0; i < worker_count_; ++i)
    worker_state_[i].done.store(true, std::memory_order_relaxed);
}

namespace {

/// Disarms the watchdog a run armed when that run exits, normally or by
/// an exception.
struct ArmedWatchdog {
  obs::ProgressWatchdog* watchdog = nullptr;
  ArmedWatchdog() = default;
  ArmedWatchdog(const ArmedWatchdog&) = delete;
  ArmedWatchdog& operator=(const ArmedWatchdog&) = delete;
  ~ArmedWatchdog() { disarm(); }
  void disarm() {
    if (watchdog) watchdog->disarm();
    watchdog = nullptr;
  }
};

}  // namespace

void JobInstance::ensure_watchdog(const obs::WatchdogOptions& options) {
  if (watchdog_) return;
  obs::ProgressWatchdog::Hooks hooks;
  hooks.snapshot = [this] { return worker_snapshots(); };
  hooks.actor_name = [this](std::int32_t a) { return actor_display_name(a); };
  hooks.channel_name = [this](std::int32_t e) { return channel_display_name(e); };
  hooks.on_stall = [this](const obs::StallReport& report, const obs::WatchdogOptions& armed) {
    handle_stall(report, armed);
  };
  watchdog_.emplace(options, std::move(hooks));
}

void JobInstance::run(WorkerPool& pool, const RunOptions& options) {
  const std::int64_t iterations = options.iterations;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(worker_count_);
  for (std::size_t p = 0; p < worker_count_; ++p)
    tasks.emplace_back([this, p, iterations] {
      worker(static_cast<std::int32_t>(p), iterations);
    });
  // Worker bodies trap their own exceptions (first_error_); the only
  // throws out of pool.run() are pool-level (too-wide gang, shutdown),
  // which run_with's unwind path turns into a clean teardown.
  run_with(options, [&] { pool.run(tasks); });
}

void JobInstance::run_colocated(std::int64_t iterations) {
  RunOptions options;
  options.iterations = iterations;
  run_colocated(options);
}

void JobInstance::run_colocated(const RunOptions& options) {
  run_with(options, [&] { colocated_body(options.iterations, 0, nullptr); });
}

void JobInstance::run_colocated(const RunOptions& options, std::int64_t segment_iterations,
                                const SegmentFn& on_segment) {
  if (segment_iterations <= 0)
    throw std::invalid_argument("JobInstance::run_colocated: segments must be positive");
  run_with(options, [&] { colocated_body(options.iterations, segment_iterations, &on_segment); });
}

void JobInstance::run_with(const RunOptions& options, const std::function<void()>& execute) {
  const std::int64_t iterations = options.iterations;
  if (iterations < 0) throw std::invalid_argument("JobInstance::run: negative iterations");
  if (options.max_inflight_iterations < 0)
    throw std::invalid_argument("JobInstance::run: negative max_inflight_iterations");
  abort_.store(false);
  first_error_ = nullptr;
  // Reset at entry, aggregate on every exit path: stats() is never stale
  // from a previous run, even when this run throws.
  stats_ = ThreadedRunStats{};
  run_iterations_ = iterations;
  run_inflight_cap_ = options.max_inflight_iterations;
  for (std::size_t i = 0; i < worker_count_; ++i) {
    WorkerState& ws = worker_state_[i];
    ws.epoch.store(0, std::memory_order_relaxed);
    ws.iteration.store(0, std::memory_order_relaxed);
    ws.completed.store(0, std::memory_order_relaxed);
    ws.step.store(-1, std::memory_order_relaxed);
    ws.actor.store(-1, std::memory_order_relaxed);
    ws.waiting_edge.store(-1, std::memory_order_relaxed);
    ws.waiting_side.store(-1, std::memory_order_relaxed);
    ws.done.store(false, std::memory_order_relaxed);
  }
  std::fill(colocated_epochs_.begin(), colocated_epochs_.end(), 0);
  const ThreadedRunStats base = counter_totals();

  if (options.watchdog.enabled) ensure_watchdog(options.watchdog);
  std::optional<obs::ObsServer> server;
  if (options.obs_port >= 0) {
    obs::ObsServer::Options server_options;
    server_options.port = options.obs_port;
    server_options.bind_address = options.obs_bind;
    server_options.registry = registry_;
    server_options.refresh = [this] { refresh_channel_gauges(); };
    server_options.runtime_json = [this] { return runtime_status_json(); };
    if (options.watchdog.enabled)
      server_options.health = [w = &*watchdog_] { return w->health(); };
    server.emplace(std::move(server_options));
    server->start();
    if (options.on_obs_start) options.on_obs_start(server->port());
  }
  // The instance's one monitor thread is armed for this run only; the
  // guard disarms it on every exit path, so no stall hook of this run is
  // running or can still fire once run_with returns or throws.
  ArmedWatchdog armed;
  if (options.watchdog.enabled) {
    watchdog_->arm(options.watchdog);
    armed.watchdog = &*watchdog_;
  }
  running_.store(true, std::memory_order_relaxed);

  // The execute callable must leave every worker body finished on every
  // normal return (the gang joins; the colocated body is synchronous).
  // If it throws at the pool level instead, abort + interrupt first so
  // any started bodies unwind, then let the stack objects disarm the
  // watchdog and tear down the server before the exception escapes.
  // Serve-batch bracketing (request_trace.hpp): when the caller tagged
  // this run with a batch id, bookend the firing stream with batch
  // markers so a sampled request's span can be matched to its causal
  // firing log by (batch id) alone.
  if (flight_ && options.batch_id >= 0)
    flight_->record(0, obs::FlightEventKind::kBatchBegin, -1, -1, options.batch_id, 0,
                    static_cast<std::int32_t>(iterations));
  const auto exec_begin = std::chrono::steady_clock::now();
  try {
    execute();
  } catch (...) {
    abort_.store(true);
    interrupt_all();
    running_.store(false, std::memory_order_relaxed);
    throw;
  }
  last_run_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - exec_begin)
                     .count();
  if (flight_ && options.batch_id >= 0)
    flight_->record(0, obs::FlightEventKind::kBatchEnd, -1, -1, options.batch_id, 0,
                    static_cast<std::int32_t>(iterations));

  armed.disarm();
  if (server) server->stop();
  running_.store(false, std::memory_order_relaxed);

  const ThreadedRunStats now = counter_totals();
  stats_.messages = now.messages - base.messages;
  stats_.payload_bytes = now.payload_bytes - base.payload_bytes;
  stats_.producer_blocks = now.producer_blocks - base.producer_blocks;
  stats_.consumer_blocks = now.consumer_blocks - base.consumer_blocks;
  stats_.producer_block_micros = now.producer_block_micros - base.producer_block_micros;
  stats_.consumer_block_micros = now.consumer_block_micros - base.consumer_block_micros;
  stats_.retries = now.retries - base.retries;
  stats_.dropped_frames = now.dropped_frames - base.dropped_frames;
  stats_.crc_failures = now.crc_failures - base.crc_failures;
  stats_.duplicates = now.duplicates - base.duplicates;
  stats_.timeouts = now.timeouts - base.timeouts;
  stats_.backoff_micros = now.backoff_micros - base.backoff_micros;
  if (first_error_) {
    maybe_dump_flight_postmortem();
    reset_tokens();
    std::rethrow_exception(first_error_);
  }
}

namespace {

/// "flight.json" + "deadlock" -> "flight.stall-deadlock.json" — the
/// classification rides in the dump filename so an operator (or the
/// tooling ctest tier) knows what killed the run before opening it.
std::string stall_dump_path(const std::string& base, const std::string& classification) {
  const std::string suffix = ".stall-" + classification + ".json";
  if (base.size() >= 5 && base.compare(base.size() - 5, 5, ".json") == 0)
    return base.substr(0, base.size() - 5) + suffix;
  return base + suffix;
}

void write_file_best_effort(const std::string& path, const std::string& content) {
  try {
    std::ofstream out(path, std::ios::binary);
    if (out) out << content;
  } catch (...) {
    // Best effort — a failing dump must not mask the original error.
  }
}

}  // namespace

void JobInstance::maybe_dump_flight_postmortem() {
  if (!flight_ || flight_->postmortem_path().empty()) return;
  try {
    std::rethrow_exception(first_error_);
  } catch (const sim::ChannelError&) {
    // Channel-level death is what the flight recorder exists for: dump
    // everything captured so the analyzer can reconstruct the final
    // moments. Best effort — a failing dump must not mask the error.
    write_file_best_effort(flight_->postmortem_path(), flight_->collect().to_json());
  } catch (const obs::StallError& stall) {
    // Watchdog abort: same dump, classification in the filename.
    write_file_best_effort(
        stall_dump_path(flight_->postmortem_path(), stall.report().classification),
        flight_->collect().to_json());
  } catch (...) {
    // Compute exceptions and internal errors: no dump.
  }
}

void JobInstance::handle_stall(const obs::StallReport& report,
                               const obs::WatchdogOptions& options) {
  // Runs on the watchdog's monitor thread while the workers are wedged.
  // First the /runtime snapshot + report (always), then either hand the
  // StallError to run() — which dumps the flight log with the
  // classification in the filename and rethrows — or, for a
  // non-aborting watchdog, dump the flight log right here (run() will
  // never see an error).
  const std::string dir = options.dump_dir.empty() ? std::string(".") : options.dump_dir;
  write_file_best_effort(dir + "/spi_stall." + report.classification + ".json",
                         "{\"report\":" + report.to_json() +
                             ",\"runtime\":" + runtime_status_json() + "}\n");
  if (options.abort_on_stall) {
    {
      std::lock_guard lock(error_mutex_);
      if (!first_error_) first_error_ = std::make_exception_ptr(obs::StallError(report));
    }
    abort_.store(true);
    interrupt_all();
  } else if (flight_ && !flight_->postmortem_path().empty()) {
    write_file_best_effort(
        stall_dump_path(flight_->postmortem_path(), report.classification),
        flight_->collect().to_json());
  }
}

std::vector<obs::WorkerSnapshot> JobInstance::worker_snapshots() const {
  std::vector<obs::WorkerSnapshot> out(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    const WorkerState& ws = worker_state_[i];
    obs::WorkerSnapshot& snap = out[i];
    snap.proc = static_cast<std::int32_t>(i);
    snap.epoch = ws.epoch.load(std::memory_order_relaxed);
    snap.iteration = ws.iteration.load(std::memory_order_relaxed);
    snap.completed = ws.completed.load(std::memory_order_relaxed);
    snap.step = ws.step.load(std::memory_order_relaxed);
    snap.actor = ws.actor.load(std::memory_order_relaxed);
    snap.waiting_edge = ws.waiting_edge.load(std::memory_order_relaxed);
    snap.waiting_side = ws.waiting_side.load(std::memory_order_relaxed);
    snap.done = ws.done.load(std::memory_order_relaxed);
  }
  return out;
}

std::string JobInstance::actor_display_name(std::int32_t actor) const {
  if (actor < 0 || static_cast<std::size_t>(actor) >= graph_.actor_count()) return {};
  return graph_.actor(actor).name;
}

std::string JobInstance::channel_display_name(std::int32_t edge) const {
  if (edge < 0 || static_cast<std::size_t>(edge) >= graph_.edge_count()) return {};
  if (const ChannelSpec* spec = plan_.find_channel(edge)) return spec->name;
  return graph_.edge(edge).name;
}

void JobInstance::refresh_channel_gauges() {
  for (std::size_t c = 0; c < plan_.channels.size(); ++c) {
    const auto ei = static_cast<std::size_t>(plan_.channels[c].edge);
    std::size_t depth = 0;
    std::size_t watermark = 0;
    if (spsc_[ei]) {
      depth = spsc_[ei]->size();
      watermark = spsc_[ei]->high_watermark();
    } else if (blocking_[ei]) {
      depth = blocking_[ei]->size();
      watermark = blocking_[ei]->high_watermark();
    }
    depth_gauges_[c]->set(static_cast<double>(depth));
    watermark_gauges_[c]->set(static_cast<double>(watermark));
  }
}

std::string JobInstance::runtime_status_json() const {
  std::string out = "{\"graph\":\"" + obs::detail::json_escaped(plan_.graph_name) + "\"";
  if (!label_.empty()) out += ",\"job\":\"" + obs::detail::json_escaped(label_) + "\"";
  out += ",\"running\":" + std::string(running_.load(std::memory_order_relaxed) ? "true"
                                                                                : "false");
  out += ",\"proc_count\":" + std::to_string(worker_count_);
  out += ",\"iterations_target\":" + std::to_string(run_iterations_);

  const std::vector<obs::WorkerSnapshot> workers = worker_snapshots();
  std::int64_t min_iteration = 0;
  std::int64_t min_completed = 0;
  std::int64_t max_started = 0;
  bool first = true;
  for (const obs::WorkerSnapshot& w : workers) {
    const std::int64_t progressed = w.done ? run_iterations_ : w.iteration;
    const std::int64_t started = w.done ? run_iterations_ : w.iteration + 1;
    if (first || progressed < min_iteration) min_iteration = progressed;
    if (first || w.completed < min_completed) min_completed = w.completed;
    if (first || started > max_started) max_started = started;
    first = false;
  }
  out += ",\"min_iteration\":" + std::to_string(min_iteration);
  // Pipelining window: iterations started somewhere but not yet
  // completed everywhere (0 when idle; bounded by
  // max_inflight_iterations when the run set a cap).
  out += ",\"inflight_iterations\":" +
         std::to_string(std::max<std::int64_t>(0, max_started - min_completed));
  out += ",\"max_inflight_iterations\":" + std::to_string(run_inflight_cap_);

  out += ",\"workers\":[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const obs::WorkerSnapshot& w = workers[i];
    if (i) out += ",";
    out += "{\"proc\":" + std::to_string(w.proc);
    out += ",\"epoch\":" + std::to_string(w.epoch);
    out += ",\"iteration\":" + std::to_string(w.iteration);
    out += ",\"completed\":" + std::to_string(w.completed);
    out += ",\"step\":" + std::to_string(w.step);
    out += ",\"actor\":" + std::to_string(w.actor);
    out += ",\"actor_name\":\"" + obs::detail::json_escaped(actor_display_name(w.actor));
    out += "\",\"waiting_edge\":" + std::to_string(w.waiting_edge);
    out += ",\"waiting_side\":" + std::to_string(w.waiting_side);
    out += std::string(",\"done\":") + (w.done ? "true" : "false") + "}";
  }
  out += "]";

  // Channel occupancy vs. the plan's bound: only IPC channels appear —
  // processor-local FIFOs are single-threaded state that cannot be read
  // from a scrape thread without a race.
  out += ",\"channels\":[";
  for (std::size_t c = 0; c < plan_.channels.size(); ++c) {
    const ChannelSpec& spec = plan_.channels[c];
    const auto ei = static_cast<std::size_t>(spec.edge);
    std::size_t depth = 0;
    std::size_t watermark = 0;
    std::size_t capacity = 0;
    const char* kind = "local";
    if (spsc_[ei]) {
      kind = "spsc";
      depth = spsc_[ei]->size();
      watermark = spsc_[ei]->high_watermark();
      capacity = spsc_[ei]->capacity();
    } else if (blocking_[ei]) {
      kind = "blocking";
      depth = blocking_[ei]->size();
      watermark = blocking_[ei]->high_watermark();
      capacity = blocking_[ei]->capacity();
    }
    if (c) out += ",";
    out += "{\"edge\":" + std::to_string(spec.edge);
    out += ",\"name\":\"" + obs::detail::json_escaped(spec.name);
    out += "\",\"kind\":\"" + std::string(kind);
    out += "\",\"depth_tokens\":" + std::to_string(depth);
    out += ",\"high_watermark_tokens\":" + std::to_string(watermark);
    out += ",\"capacity_tokens\":" + std::to_string(capacity);
    out += std::string(",\"reliable\":") + (spec.reliable ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

}  // namespace spi::core
