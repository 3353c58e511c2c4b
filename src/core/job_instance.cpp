#include "core/job_instance.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs_server.hpp"
#include "obs/text_escape.hpp"

namespace spi::core {

std::size_t slot_of(std::span<const df::EdgeId> edges, df::EdgeId edge) {
  const auto it = std::find(edges.begin(), edges.end(), edge);
  if (it == edges.end()) throw std::out_of_range("slot_of: edge is not a port of the actor");
  return static_cast<std::size_t>(it - edges.begin());
}

std::size_t FiringContext::input_index(df::EdgeId e) const { return slot_of(in_edges, e); }

std::size_t FiringContext::output_index(df::EdgeId e) const { return slot_of(out_edges, e); }

void FiringContext::recycle_outputs() {
  spare.resize(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    // At most one firing's worth of buffers per slot: a compute that
    // assigns fresh tokens instead of emitting cannot grow spare[].
    // The common case, every spare emitted last firing, trades the two
    // lists whole.
    if (spare[i].empty()) {
      std::swap(spare[i], outputs[i]);
    } else {
      const std::size_t cap = outputs[i].size();
      for (Bytes& token : outputs[i])
        if (spare[i].size() < cap) spare[i].push_back(std::move(token));
    }
    outputs[i].clear();
  }
}

JobInstance::JobInstance(const ExecutablePlan& plan, JobInstanceOptions options)
    : plan_(plan),
      graph_(plan.vts.graph),
      reliability_(options.reliability),
      label_(std::move(options.label)),
      owned_registry_(options.metrics ? nullptr : std::make_unique<obs::MetricRegistry>()),
      registry_(options.metrics ? options.metrics : owned_registry_.get()),
      compute_(graph_.actor_count()),
      edges_(graph_.edge_count()),
      fired_(graph_.actor_count(), 0) {
  if (reliability_.enabled) reliability_.policy().validate();
  init();
}

void JobInstance::init() {
  // Every token buffer the firing path circulates (context input slots,
  // emit() spares, local ring slots, channel slots) is reserved to its
  // edge's token bound up front: a packed token never exceeds b_max, so
  // no buffer ever grows and even the first firing allocates nothing.
  std::size_t max_token_bytes = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    EdgeState& e = edges_[i];
    e.id = static_cast<df::EdgeId>(i);
    e.token_bytes = static_cast<std::size_t>(plan_.token_bound_bytes(e.id));
    if (plan_.vts.edges[i].converted)
      e.raw_token_bytes = static_cast<std::size_t>(plan_.vts.edges[i].raw_token_bytes);
    max_token_bytes = std::max(max_token_bytes, e.token_bytes);
  }
  zero_token_.assign(max_token_bytes, 0);
  const auto reserved_tokens = [this](std::size_t count, df::EdgeId edge) {
    std::vector<Bytes> tokens(count);
    for (Bytes& token : tokens)
      token.reserve(static_cast<std::size_t>(plan_.token_bound_bytes(edge)));
    return tokens;
  };

  // One SPSC ring for every interprocessor edge, of the plan's capacity
  // (ChannelSpec::capacity_tokens: the eq.-2 bound or UBS credit window
  // plus the initial tokens).
  for (const ChannelSpec& spec : plan_.channels) {
    const std::int64_t capacity = spec.capacity_tokens();
    EdgeState& e = edges_[static_cast<std::size_t>(spec.edge)];
    const bool reliable = reliability_.enabled && spec.reliable;
    e.store = reliable ? Store::kReliable : Store::kRing;

    obs::Labels labels{{"channel", spec.name}};
    // The job label keeps concurrent instances' series apart when they
    // share one registry (the serving daemon's /metrics).
    if (!label_.empty()) labels.emplace_back("job", label_);
    ChannelCounters& counters = e.counters;
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
        .set(static_cast<double>(capacity));

    // A reliable edge's ring carries sequenced frames, plus spare slots
    // for the frames its receiver will discard (play_transmit).
    const std::size_t slots =
        static_cast<std::size_t>(capacity) + (reliable ? kDiscardableSlots : 0);
    const std::size_t frame_bound =
        e.token_bytes + (reliable ? static_cast<std::size_t>(kSequencedOverheadBytes) : 0);
    e.ring = std::make_unique<SpscChannel>(spec.edge, slots, frame_bound, &abort_);
    e.ring->set_counters(counters.spsc());
  }

  // Local rings hold at most one iteration's tokens plus the delays: a
  // processor runs its program sequentially, and a colocated run walks
  // the PASS, so every edge is back to its delay count at each
  // iteration boundary. Plain IPC edges get one for colocated runs.
  std::vector<std::int64_t> firings(graph_.actor_count(), 0);
  for (const df::ActorId actor : plan_.pass.firings) ++firings[static_cast<std::size_t>(actor)];
  for (EdgeState& e : edges_) {
    if (e.store == Store::kReliable) continue;
    const df::Edge& edge = graph_.edge(e.id);
    const std::int64_t tokens =
        edge.delay + edge.prod.value() * firings[static_cast<std::size_t>(edge.src)];
    e.local.slots =
        reserved_tokens(static_cast<std::size_t>(std::max<std::int64_t>(1, tokens)), e.id);
  }

  reset_tokens();

  // One published heartbeat/wait-state slot per worker, cache-line
  // aligned so the per-firing stores stay worker-private.
  worker_count_ = plan_.programs.size();
  worker_state_ = std::make_unique<WorkerState[]>(worker_count_);
  colocated_epochs_.assign(worker_count_, 0);

  // One firing record per (proc, step): the persistent context (its
  // input slots and one firing's worth of emit() spares per output keep
  // their capacity across iterations) and each port's edge and rate.
  programs_.resize(plan_.programs.size());
  for (std::size_t p = 0; p < plan_.programs.size(); ++p) {
    const std::vector<FiringStep>& program = plan_.programs[p];
    programs_[p].resize(program.size());
    for (std::size_t s = 0; s < program.size(); ++s) {
      Firing& f = programs_[p][s];
      const FiringStep& step = program[s];
      f.proc = static_cast<std::int32_t>(p);
      f.step = static_cast<std::int32_t>(s);
      FiringContext& ctx = f.ctx;
      ctx.actor = step.actor;
      ctx.in_edges = step.in_edges;
      ctx.out_edges = step.out_edges;
      for (const df::EdgeId edge : step.in_edges) {
        const auto cons = static_cast<std::size_t>(graph_.edge(edge).cons.value());
        f.in.push_back({&edges_[static_cast<std::size_t>(edge)], cons});
        ctx.inputs.push_back(reserved_tokens(cons, edge));
      }
      for (const df::EdgeId edge : step.out_edges) {
        const auto prod = static_cast<std::size_t>(graph_.edge(edge).prod.value());
        f.out.push_back({&edges_[static_cast<std::size_t>(edge)], prod});
        ctx.outputs.emplace_back().reserve(prod);
        ctx.spare.push_back(reserved_tokens(prod, edge));
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
    colocated_order_.push_back(&programs_[p][cursor[static_cast<std::size_t>(p)]++]);
  }
  for (std::size_t p = 0; p < plan_.programs.size(); ++p)
    if (cursor[p] != plan_.programs[p].size())
      throw std::logic_error("JobInstance: PASS shorter than the per-processor programs");
}

void JobInstance::reset_tokens() {
  for (EdgeState& e : edges_) {
    // Empty both stores first: a run that failed mid-iteration left
    // tokens of that iteration on some edges and took delay tokens off
    // others. Both ends are idle, so one thread may drain a channel.
    e.local.head = 0;
    e.local.count = 0;
    if (e.ring) e.ring->drain([](std::span<const std::uint8_t>) {});
    // The reliable protocol (re)starts at sequence 0 on both ends.
    if (e.store == Store::kReliable) {
      e.sender = std::make_unique<ReliableSender>(e.id, reliability_.faults, reliability_.policy());
      e.receiver = std::make_unique<ReliableReceiver>(e.id);
    }
    // Delay tokens, placed through the faultless path: they are part of
    // the compiled system, not traffic the fault plan may eat.
    const std::size_t token_bytes = plan_.vts.edges[static_cast<std::size_t>(e.id)].converted
                                        ? 0
                                        : e.token_bytes;
    const std::span<const std::uint8_t> token{zero_token_.data(), token_bytes};
    for (std::int64_t d = 0; d < graph_.edge(e.id).delay; ++d) {
      if (!e.ring) {
        e.local.push_slot().assign(token_bytes, 0);
        continue;
      }
      if (e.sender)
        play_transmit(*e.ring, e.sender->plan_transmit_faultless(token), e.counters, nullptr);
      else
        e.ring->push(token);
      e.counters.messages->inc();
      e.counters.payload_bytes->inc(static_cast<std::int64_t>(token_bytes));
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
  std::size_t tail = head + count;
  if (tail >= slots.size()) tail -= slots.size();
  ++count;
  return slots[tail];
}

std::int64_t JobInstance::resident_channel_bytes(const ExecutablePlan& plan) {
  // What one instance keeps resident in channel buffering: per channel,
  // the eq.-2/credit-window token capacity (exactly the capacity init()
  // builds the channel with) times the per-token frame bound the SPSC
  // slab reserves. Computable from the plan alone, so admission control
  // can reject a job before anything is allocated.
  std::int64_t total = 0;
  for (const ChannelSpec& spec : plan.channels)
    total += spec.capacity_tokens() *
             std::max<std::int64_t>(1, plan.token_bound_bytes(spec.edge));
  return total;
}

void JobInstance::fail(std::exception_ptr error) {
  {
    std::lock_guard lock(error_mutex_);
    if (!first_error_) first_error_ = std::move(error);
  }
  abort_.store(true);
  interrupt_all();
}

void JobInstance::interrupt_all() {
  for (EdgeState& e : edges_)
    if (e.ring) e.ring->interrupt();
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

namespace {

/// Each ThreadedRunStats field and the per-channel counter it totals.
constexpr std::pair<std::int64_t ThreadedRunStats::*, obs::Counter* ChannelCounters::*>
    kRunStats[] = {
        {&ThreadedRunStats::messages, &ChannelCounters::messages},
        {&ThreadedRunStats::payload_bytes, &ChannelCounters::payload_bytes},
        {&ThreadedRunStats::producer_blocks, &ChannelCounters::producer_blocks},
        {&ThreadedRunStats::consumer_blocks, &ChannelCounters::consumer_blocks},
        {&ThreadedRunStats::producer_block_micros, &ChannelCounters::producer_block_micros},
        {&ThreadedRunStats::consumer_block_micros, &ChannelCounters::consumer_block_micros},
        {&ThreadedRunStats::retries, &ChannelCounters::retries},
        {&ThreadedRunStats::dropped_frames, &ChannelCounters::dropped_frames},
        {&ThreadedRunStats::crc_failures, &ChannelCounters::crc_failures},
        {&ThreadedRunStats::duplicates, &ChannelCounters::duplicates},
        {&ThreadedRunStats::timeouts, &ChannelCounters::timeouts},
        {&ThreadedRunStats::backoff_micros, &ChannelCounters::backoff_micros},
};

}  // namespace

ThreadedRunStats JobInstance::counter_totals() const {
  ThreadedRunStats totals;
  for (const ChannelSpec& spec : plan_.channels)
    for (const auto& [stat, counter] : kRunStats)
      if (const obs::Counter* c = edges_[static_cast<std::size_t>(spec.edge)].counters.*counter)
        totals.*stat += c->value();
  return totals;
}

void JobInstance::fire(Firing& f, WorkerState& ws, std::int64_t iteration, bool colocated) {
  FiringContext& ctx = f.ctx;
  const df::ActorId actor = ctx.actor;
  const ChannelFlightCtx flight_ctx{flight_, f.proc, actor, iteration};
  const ChannelFlightCtx* flight = recording_ ? &flight_ctx : nullptr;
  // The kSend/kReceive a plain IPC edge's ring records itself, recorded
  // here while a colocated run carries the edge on its local ring.
  const auto token_event = [&](obs::FlightEventKind kind, const EdgeState& e, std::int64_t seq) {
    if (flight && e.store == Store::kRing)
      flight_->record(f.proc, kind, actor, e.id, seq, iteration);
  };
  // Publishes which channel op a gang worker is in: if it blocks
  // forever, this is what lets the watchdog name the edge. Relaxed
  // stores to the worker's own cache line — no shared traffic. A
  // colocated run never waits, so it publishes nothing.
  const auto waiting = [&](std::int32_t edge, std::int32_t side) {
    if (colocated) return;
    ws.waiting_edge.store(edge, std::memory_order_relaxed);
    ws.waiting_side.store(side, std::memory_order_relaxed);
  };
  if (flight) flight_->record(f.proc, obs::FlightEventKind::kFireBegin, actor, -1, 0, iteration);
  ctx.invocation = fired_[static_cast<std::size_t>(actor)]++;
  ws.actor.store(actor, std::memory_order_relaxed);

  for (std::size_t i = 0; i < f.in.size(); ++i) {
    EdgeState& e = *f.in[i].edge;
    waiting(e.id, 0);
    // A compute may have moved tokens out last firing; restore the slot
    // count before refilling (capacity survives, so no steady-state
    // allocation).
    std::vector<Bytes>& slots = ctx.inputs[i];
    slots.resize(f.in[i].rate);
    if (e.store == Store::kReliable || (e.store == Store::kRing && !colocated)) {
      for (Bytes& slot : slots) {
        if (e.receiver)
          receive_reliable(*e.ring, *e.receiver, reliability_.policy().timeout_us, e.counters,
                           slot, flight);
        else
          e.ring->pop_into(slot, flight);
      }
      continue;
    }
    if (e.local.count < slots.size())
      throw std::logic_error("JobInstance: local token underflow on " + graph_.edge(e.id).name);
    for (Bytes& slot : slots) {
      std::swap(slot, e.local.front());
      e.local.pop();
      token_event(obs::FlightEventKind::kReceive, e, e.recv_seq++);
    }
  }

  // Inputs consumed: while the compute runs, waiting_edge = -1 with the
  // actor set is the "inside a compute function" state the watchdog
  // classifies as slow-actor. The previous firing's routed tokens become
  // this firing's emit() buffers (docs/architecture.md, "Token buffer
  // lifecycle"); without a compute the actor emits full-rate zeros.
  waiting(-1, -1);
  ctx.recycle_outputs();
  if (const ComputeFn& compute = compute_[static_cast<std::size_t>(actor)]) {
    compute(ctx);
  } else {
    for (std::size_t i = 0; i < f.out.size(); ++i)
      for (std::size_t t = 0; t < f.out[i].rate; ++t)
        ctx.emit(i).assign(f.out[i].edge->token_bytes, 0);
  }

  for (std::size_t i = 0; i < f.out.size(); ++i) {
    EdgeState& e = *f.out[i].edge;
    waiting(e.id, 1);
    std::vector<Bytes>& tokens = ctx.outputs[i];
    if (tokens.size() != f.out[i].rate)
      throw std::logic_error("JobInstance: wrong token count on " + graph_.edge(e.id).name);
    std::int64_t bytes = 0;
    for (const Bytes& token : tokens) {
      // A static token has the edge's exact size; a packed one is a
      // whole number of raw tokens, at most b_max.
      const std::size_t size = token.size();
      if (size != e.token_bytes &&
          (e.raw_token_bytes == 0 || size > e.token_bytes || size % e.raw_token_bytes != 0))
        throw_token_shape(e, size);
      bytes += static_cast<std::int64_t>(size);
    }
    if (e.store == Store::kReliable || (e.store == Store::kRing && !colocated)) {
      for (const Bytes& token : tokens) {
        if (e.sender)
          play_transmit(*e.ring, e.sender->plan_transmit(token), e.counters, flight);
        else
          e.ring->push(token, flight);
      }
    } else {
      for (Bytes& token : tokens) {
        std::swap(e.local.push_slot(), token);  // token takes the slot's old buffer
        token_event(obs::FlightEventKind::kSend, e, e.send_seq++);
      }
    }
    // Message/byte counts: a colocated run adds them up here and flushes
    // them per segment; a gang makes one registry update per (firing,
    // edge). Local edges have no counters.
    if (!e.counters.messages) continue;
    if (colocated) {
      e.messages += static_cast<std::int64_t>(tokens.size());
      e.payload_bytes += bytes;
    } else {
      e.counters.messages->inc(static_cast<std::int64_t>(tokens.size()));
      e.counters.payload_bytes->inc(bytes);
    }
  }

  waiting(-1, -1);
  ws.actor.store(-1, std::memory_order_relaxed);
  if (flight) flight_->record(f.proc, obs::FlightEventKind::kFireEnd, actor, -1, 0, iteration);
}

void JobInstance::throw_token_shape(const EdgeState& e, std::size_t size) const {
  const std::string& name = graph_.edge(e.id).name;
  if (e.raw_token_bytes == 0)
    throw std::logic_error("JobInstance: token size mismatch on static edge " + name);
  if (size > e.token_bytes)
    throw std::length_error("JobInstance: packed token exceeds b_max on " + name);
  throw std::logic_error("JobInstance: packed token is not a whole number of raw tokens on " +
                         name);
}

void JobInstance::flush_traffic() {
  for (const ChannelSpec& spec : plan_.channels) {
    EdgeState& e = edges_[static_cast<std::size_t>(spec.edge)];
    if (e.messages == 0) continue;
    e.counters.messages->inc(e.messages);
    e.counters.payload_bytes->inc(e.payload_bytes);
    e.messages = 0;
    e.payload_bytes = 0;
  }
}

void JobInstance::worker(std::int32_t proc, std::int64_t iterations) {
  const auto p = static_cast<std::size_t>(proc);
  WorkerState& ws = worker_state_[p];
  std::uint64_t epoch = 0;  ///< local heartbeat counter, published per firing
  try {
    std::vector<Firing>& program = programs_[p];
    // Self-timed across iteration boundaries (paper Section 4): the
    // only coupling to the other workers is the channels themselves,
    // whose eq.-2 capacities bound the skew in tokens. No iteration
    // barrier exists; a worker enters iteration i+1 the moment its own
    // tokens allow.
    for (std::int64_t iter = 0; iter < iterations && !abort_.load(); ++iter) {
      ws.iteration.store(iter, std::memory_order_relaxed);
      for (Firing& firing : program) {
        ws.step.store(firing.step, std::memory_order_relaxed);
        fire(firing, ws, iter, false);
        // The heartbeat: one relaxed store to a worker-private cache
        // line per completed firing — the watchdog's only hot-path cost.
        ws.epoch.store(++epoch, std::memory_order_relaxed);
      }
      ws.completed.store(iter + 1, std::memory_order_relaxed);
    }
  } catch (const ChannelInterrupted&) {
    // Unwound by another worker's failure; nothing to record.
  } catch (...) {
    fail(std::current_exception());
  }
  ws.done.store(true, std::memory_order_relaxed);
}

void JobInstance::colocated_body(std::int64_t iterations,
                                 std::span<const std::int64_t> segment_ends,
                                 const SegmentFn* on_segment) {
  // The whole plan on the calling thread, in PASS order. Admissibility
  // plus the eq.-2 capacities mean no token operation here ever waits —
  // a wait with one thread would be a deadlock, and handing the plan to
  // this path is an assertion that the schedule proof holds. The same
  // firing records and heartbeats run, so the watchdog, flight recorder
  // and /runtime workers see what they see under the gang. Each plain
  // IPC edge's tokens move to its local ring for the run, flight
  // sequence numbers continuing the ring's.
  for (const ChannelSpec& spec : plan_.channels) {
    EdgeState& e = edges_[static_cast<std::size_t>(spec.edge)];
    if (e.store != Store::kRing) continue;
    e.send_seq = e.ring->send_seq();
    e.recv_seq = e.ring->recv_seq();
    e.ring->drain([&e](std::span<const std::uint8_t> token) {
      e.local.push_slot().assign(token.begin(), token.end());
    });
  }
  std::size_t segment = 0;
  try {
    for (std::int64_t iter = 0; iter < iterations && !abort_.load(); ++iter) {
      for (std::size_t i = 0; i < worker_count_; ++i)
        worker_state_[i].iteration.store(iter, std::memory_order_relaxed);
      for (Firing* firing : colocated_order_) {
        WorkerState& ws = worker_state_[static_cast<std::size_t>(firing->proc)];
        ws.step.store(firing->step, std::memory_order_relaxed);
        fire(*firing, ws, iter, true);
        ws.epoch.store(++colocated_epochs_[static_cast<std::size_t>(firing->proc)],
                       std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < worker_count_; ++i)
        worker_state_[i].completed.store(iter + 1, std::memory_order_relaxed);
      if (on_segment && iter + 1 == segment_ends[segment]) {
        flush_traffic();
        (*on_segment)(static_cast<std::int64_t>(segment++));
      }
    }
  } catch (const ChannelInterrupted&) {
    // Interrupted by the watchdog (or an embedded-server teardown);
    // the recorded StallError is what run() rethrows.
  } catch (...) {
    fail(std::current_exception());
  }
  flush_traffic();
  // A clean run leaves every edge at its delay tokens: they go back to
  // the ring. A failed one is emptied by reset_tokens, its in-flight
  // tokens counted as consumed.
  const bool failed = abort_.load();
  for (const ChannelSpec& spec : plan_.channels) {
    EdgeState& e = edges_[static_cast<std::size_t>(spec.edge)];
    if (e.store != Store::kRing) continue;
    for (; !failed && e.local.count > 0; e.local.pop()) e.ring->push(e.local.front());
    e.ring->set_seqs(e.send_seq, failed ? e.send_seq : e.recv_seq);
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

void JobInstance::run(std::int64_t iterations) {
  RunOptions options;
  options.iterations = iterations;
  run(options);
}

void JobInstance::run(const RunOptions& options) {
  const std::int64_t iterations = options.iterations;
  run_with(options, [&] {
    std::vector<std::thread> threads;
    try {
      threads.reserve(worker_count_);
      for (std::size_t p = 0; p < worker_count_; ++p)
        threads.emplace_back(
            [this, p, iterations] { worker(static_cast<std::int32_t>(p), iterations); });
    } catch (...) {
      // The started workers may be waiting on peers that never started:
      // abort and wake them before the join, which would otherwise hang.
      fail(std::current_exception());
    }
    for (std::thread& t : threads) t.join();
  });
}

void JobInstance::run_colocated(std::int64_t iterations) {
  RunOptions options;
  options.iterations = iterations;
  run_colocated(options);
}

void JobInstance::run_colocated(const RunOptions& options) {
  run_with(options, [&] { colocated_body(options.iterations, {}, nullptr); });
}

void JobInstance::run_colocated(const RunOptions& options,
                                std::span<const std::int64_t> segment_ends,
                                const SegmentFn& on_segment) {
  std::int64_t previous = 0;
  for (const std::int64_t end : segment_ends) {
    if (end <= previous)
      throw std::invalid_argument("JobInstance::run_colocated: segment ends must increase");
    previous = end;
  }
  if (segment_ends.empty() || previous != options.iterations)
    throw std::invalid_argument(
        "JobInstance::run_colocated: the last segment must end at the run's last iteration");
  run_with(options, [&] { colocated_body(options.iterations, segment_ends, &on_segment); });
}

void JobInstance::run_with(const RunOptions& options, const std::function<void()>& execute) {
  const std::int64_t iterations = options.iterations;
  if (iterations < 0) throw std::invalid_argument("JobInstance::run: negative iterations");
  abort_.store(false);
  first_error_ = nullptr;
  // Reset at entry, aggregate on every exit path: stats() is never stale
  // from a previous run, even when this run throws.
  stats_ = ThreadedRunStats{};
  run_iterations_ = iterations;
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
  recording_ = flight_ && flight_->armed();
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

  // Serve-batch bracketing (request_trace.hpp): when the caller tagged
  // this run with a batch id, bookend the firing stream with batch
  // markers so a sampled request's span can be matched to its causal
  // firing log by (batch id) alone.
  if (flight_ && options.batch_id >= 0)
    flight_->record(0, obs::FlightEventKind::kBatchBegin, -1, -1, options.batch_id, 0,
                    static_cast<std::int32_t>(iterations));
  execute();
  if (flight_ && options.batch_id >= 0)
    flight_->record(0, obs::FlightEventKind::kBatchEnd, -1, -1, options.batch_id, 0,
                    static_cast<std::int32_t>(iterations));

  armed.disarm();
  if (server) server->stop();
  running_.store(false, std::memory_order_relaxed);

  const ThreadedRunStats now = counter_totals();
  for (const auto& [stat, counter] : kRunStats) stats_.*stat = now.*stat - base.*stat;
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
    fail(std::make_exception_ptr(obs::StallError(report)));
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
    const SpscChannel& ring = *edges_[static_cast<std::size_t>(plan_.channels[c].edge)].ring;
    depth_gauges_[c]->set(static_cast<double>(ring.size()));
    watermark_gauges_[c]->set(static_cast<double>(ring.high_watermark()));
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
  // completed everywhere (0 when idle; bounded only by the channel
  // capacities).
  out += ",\"inflight_iterations\":" +
         std::to_string(std::max<std::int64_t>(0, max_started - min_completed));

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
    const SpscChannel& ring = *edges_[static_cast<std::size_t>(spec.edge)].ring;
    if (c) out += ",";
    out += "{\"edge\":" + std::to_string(spec.edge);
    out += ",\"name\":\"" + obs::detail::json_escaped(spec.name);
    out += "\",\"depth_tokens\":" + std::to_string(ring.size());
    out += ",\"high_watermark_tokens\":" + std::to_string(ring.high_watermark());
    out += ",\"capacity_tokens\":" + std::to_string(spec.capacity_tokens());
    const bool reliable = reliability_.enabled && spec.reliable;
    out += std::string(",\"reliable\":") + (reliable ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

}  // namespace spi::core
