#include "core/functional.hpp"

#include <algorithm>
#include <stdexcept>

namespace spi::core {

std::size_t slot_of(std::span<const df::EdgeId> edges, df::EdgeId edge) {
  const auto it = std::find(edges.begin(), edges.end(), edge);
  if (it == edges.end()) throw std::out_of_range("slot_of: edge is not a port of the actor");
  return static_cast<std::size_t>(it - edges.begin());
}

std::size_t FiringContext::input_index(df::EdgeId e) const { return slot_of(in_edges, e); }

std::size_t FiringContext::output_index(df::EdgeId e) const { return slot_of(out_edges, e); }

Bytes& FiringContext::emit(std::size_t out_slot) {
  std::vector<Bytes>& out = outputs[out_slot];
  if (out_slot < spare.size() && !spare[out_slot].empty()) {
    out.push_back(std::move(spare[out_slot].back()));
    spare[out_slot].pop_back();
    out.back().clear();  // keeps the capacity
  } else {
    out.emplace_back();
  }
  return out.back();
}

void FiringContext::recycle_outputs() {
  spare.resize(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    // At most one firing's worth of buffers per slot: a compute that
    // assigns fresh tokens instead of emitting cannot grow spare[].
    const std::size_t cap = outputs[i].size();
    for (Bytes& token : outputs[i])
      if (spare[i].size() < cap) spare[i].push_back(std::move(token));
    outputs[i].clear();
  }
}

FunctionalRuntime::FunctionalRuntime(const ExecutablePlan& plan)
    : plan_(plan),
      graph_(plan.vts.graph),
      compute_(graph_.actor_count()),
      fired_(graph_.actor_count(), 0),
      fifo_(graph_.edge_count()) {
  // Interprocessor channels per the compiled plan.
  for (const ChannelSpec& spec : plan_.channels) {
    ChannelConfig config;
    config.edge = spec.edge;
    config.mode = spec.mode;
    config.protocol = spec.protocol;
    config.payload_bound_bytes = spec.payload_bound_bytes();
    if (spec.bbs_capacity_tokens) {
      // Equation 2 counts iterations the producer may run ahead; each
      // iteration emits q[src] messages on this channel.
      config.capacity_messages = *spec.bbs_capacity_tokens * spec.src_firings_per_iteration;
    }
    config.ack_elided = spec.acks_total > 0 && spec.acks_elided == spec.acks_total;
    auto [it, inserted] = channels_.emplace(spec.edge, SpiChannel(config));
    // All of this runtime's channels recycle wire buffers through one
    // pool owned by this runtime — per-job by construction, so two
    // concurrent runtimes can never cross-recycle a buffer.
    if (inserted) it->second.set_buffer_pool(&pool_);
  }
  // Initial tokens (delays) start in the receiver-side FIFOs.
  for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
    const df::Edge& e = graph_.edge(static_cast<df::EdgeId>(i));
    const bool dynamic = plan_.vts.edges[i].converted;
    for (std::int64_t d = 0; d < e.delay; ++d)
      fifo_[i].push_back(dynamic ? Bytes{} : Bytes(static_cast<std::size_t>(e.token_bytes), 0));
  }
}

void FunctionalRuntime::set_compute(df::ActorId actor, ComputeFn fn) {
  compute_.at(static_cast<std::size_t>(actor)) = std::move(fn);
}

void FunctionalRuntime::run(std::int64_t iterations) {
  if (iterations < 0) throw std::invalid_argument("FunctionalRuntime::run: negative iterations");
  for (std::int64_t iter = 0; iter < iterations; ++iter)
    for (df::ActorId actor : plan_.pass.firings) fire(actor);
}

Bytes FunctionalRuntime::take_token(df::EdgeId edge) {
  auto& fifo = fifo_[static_cast<std::size_t>(edge)];
  if (fifo.empty()) {
    const auto it = channels_.find(edge);
    if (it == channels_.end())
      throw std::logic_error("FunctionalRuntime: token underflow on local edge " +
                             graph_.edge(edge).name + " (schedule bug)");
    auto payload = it->second.receive();
    if (!payload)
      throw std::logic_error("FunctionalRuntime: SPI channel empty on " +
                             graph_.edge(edge).name + " (schedule bug)");
    const df::Edge& e = graph_.edge(edge);
    if (it->second.config().mode == SpiMode::kDynamic) {
      fifo.push_back(std::move(*payload));  // one packed token per message
    } else {
      // A static message carries the producing firing's prod tokens.
      const auto token_bytes = static_cast<std::size_t>(e.token_bytes);
      for (std::int64_t t = 0; t < e.prod.value(); ++t) {
        const std::size_t off = static_cast<std::size_t>(t) * token_bytes;
        fifo.emplace_back(payload->begin() + static_cast<std::ptrdiff_t>(off),
                          payload->begin() + static_cast<std::ptrdiff_t>(off + token_bytes));
      }
    }
  }
  Bytes token = std::move(fifo.front());
  fifo.pop_front();
  return token;
}

void FunctionalRuntime::put_tokens(df::EdgeId edge, std::vector<Bytes>&& tokens) {
  const auto it = channels_.find(edge);
  if (it == channels_.end()) {
    auto& fifo = fifo_[static_cast<std::size_t>(edge)];
    for (Bytes& t : tokens) fifo.push_back(std::move(t));
    return;
  }
  // Interprocessor: one SPI message per firing carrying all its tokens.
  if (it->second.config().mode == SpiMode::kDynamic) {
    // Converted dynamic edges are rate 1/1: exactly one packed token.
    it->second.send(tokens.front());
  } else {
    Bytes payload;
    for (const Bytes& t : tokens) payload.insert(payload.end(), t.begin(), t.end());
    it->second.send(payload);
  }
}

void FunctionalRuntime::fire(df::ActorId actor) {
  const auto a = static_cast<std::size_t>(actor);
  FiringContext ctx;
  ctx.actor = actor;
  ctx.invocation = fired_[a]++;
  ctx.in_edges = graph_.in_edges(actor);
  ctx.out_edges = graph_.out_edges(actor);

  ctx.inputs.resize(ctx.in_edges.size());
  for (std::size_t i = 0; i < ctx.in_edges.size(); ++i) {
    const df::Edge& e = graph_.edge(ctx.in_edges[i]);
    ctx.inputs[i].reserve(static_cast<std::size_t>(e.cons.value()));
    for (std::int64_t t = 0; t < e.cons.value(); ++t)
      ctx.inputs[i].push_back(take_token(ctx.in_edges[i]));
  }

  ctx.outputs.resize(ctx.out_edges.size());
  if (compute_[a]) {
    compute_[a](ctx);
  } else {
    // Default: zero-filled full-rate tokens.
    for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
      const df::Edge& e = graph_.edge(ctx.out_edges[i]);
      for (std::int64_t t = 0; t < e.prod.value(); ++t)
        ctx.outputs[i].emplace_back(static_cast<std::size_t>(e.token_bytes), 0);
    }
  }

  // Validate and route outputs.
  for (std::size_t i = 0; i < ctx.out_edges.size(); ++i) {
    const df::EdgeId eid = ctx.out_edges[i];
    const df::Edge& e = graph_.edge(eid);
    const df::VtsEdgeInfo& info = plan_.vts.edges[static_cast<std::size_t>(eid)];
    if (static_cast<std::int64_t>(ctx.outputs[i].size()) != e.prod.value())
      throw std::logic_error("FunctionalRuntime: actor " + graph_.actor(actor).name +
                             " produced wrong token count on " + e.name);
    for (const Bytes& token : ctx.outputs[i]) {
      const auto size = static_cast<std::int64_t>(token.size());
      if (info.converted) {
        if (size > info.b_max_bytes)
          throw std::length_error("FunctionalRuntime: packed token exceeds b_max on " + e.name);
        if (size % info.raw_token_bytes != 0)
          throw std::logic_error(
              "FunctionalRuntime: packed token is not a whole number of raw tokens on " + e.name);
      } else if (size != e.token_bytes) {
        throw std::logic_error("FunctionalRuntime: token size mismatch on " + e.name);
      }
    }
    put_tokens(eid, std::move(ctx.outputs[i]));
  }
}

const SpiChannel& FunctionalRuntime::channel(df::EdgeId edge) const {
  const auto it = channels_.find(edge);
  if (it == channels_.end())
    throw std::out_of_range("FunctionalRuntime::channel: edge is not interprocessor");
  return it->second;
}

}  // namespace spi::core
