/// \file functional.hpp
/// Functional execution of an SPI system: real token data flows through
/// real SPI channels (headers, packing, BBS/UBS checks) in a sequential
/// interleaving (the PASS) of the self-timed multiprocessor execution.
///
/// This layer answers "does the parallel SPI implementation compute the
/// same values as the sequential reference?" — the correctness half of
/// the reproduction — while the timed executor answers the performance
/// half. Any admissible interleaving produces identical results in a
/// dataflow graph, so running the PASS order is sufficient for
/// functional validation (determinacy of dataflow).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "core/channel.hpp"
#include "core/plan.hpp"
#include "core/spi_system.hpp"

namespace spi::core {

/// Everything one firing sees and produces. Tokens on VTS-converted
/// dynamic edges are *packed* tokens (variable size up to b_max; build
/// them with TokenPacker); tokens on static edges have the edge's exact
/// token size.
///
/// Buffer lifecycle (docs/architecture.md): outputs[i] is empty when the
/// compute starts. emit(i) appends one token whose storage is recycled
/// from this context's earlier firings. A persistent context (JobInstance)
/// keeps its token buffers across firings, so a warm compute that writes
/// through emit() and reads through in() allocates nothing. Assigning or
/// pushing fresh Bytes into outputs[i] stays valid; it just allocates.
struct FiringContext {
  df::ActorId actor = df::kInvalidActor;
  std::int64_t invocation = 0;  ///< k-th firing of this actor (0-based, global)
  /// inputs[i] = the cons-rate tokens consumed from in_edges[i].
  std::vector<std::vector<Bytes>> inputs;
  /// outputs[i] must be filled with prod-rate tokens for out_edges[i].
  std::vector<std::vector<Bytes>> outputs;
  /// Edge ids aligned with inputs / outputs.
  std::span<const df::EdgeId> in_edges;
  std::span<const df::EdgeId> out_edges;
  /// Recycled token buffers per output slot, refilled by the engine
  /// after routing and drained by emit().
  std::vector<std::vector<Bytes>> spare;

  /// Convenience: index of edge `e` within in_edges / out_edges. Linear
  /// searches — resolve them once when wiring, not on every firing.
  [[nodiscard]] std::size_t input_index(df::EdgeId e) const;
  [[nodiscard]] std::size_t output_index(df::EdgeId e) const;

  /// Appends one empty token to outputs[out_slot] and returns it for the
  /// compute to fill. Its capacity is a recycled buffer's, if any.
  Bytes& emit(std::size_t out_slot) {
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
  /// The bytes of token `token` consumed from in_edges[in_slot].
  [[nodiscard]] std::span<const std::uint8_t> in(std::size_t in_slot,
                                                 std::size_t token = 0) const {
    return inputs[in_slot][token];
  }
  /// Moves the routed outputs[] tokens into spare[] and empties
  /// outputs[]: what an engine calls between firings so the next emit()
  /// reuses the storage.
  void recycle_outputs();
};

/// Index of `edge` within `edges` — an actor's in_edges / out_edges in
/// graph order, which is the slot order both engines present. Throws
/// std::out_of_range when absent.
[[nodiscard]] std::size_t slot_of(std::span<const df::EdgeId> edges, df::EdgeId edge);

using ComputeFn = std::function<void(FiringContext&)>;

/// Executes a compiled plan functionally.
class FunctionalRuntime {
 public:
  /// Constructs from the compiled artifact alone — anything that can
  /// produce (or load) an ExecutablePlan can execute functionally. The
  /// plan must outlive the runtime.
  explicit FunctionalRuntime(const ExecutablePlan& plan);
  /// Convenience: runs the facade's plan().
  explicit FunctionalRuntime(const SpiSystem& system) : FunctionalRuntime(system.plan()) {}

  /// Registers the computation of an actor. Unregistered actors default
  /// to producing zero-filled full-rate tokens (useful for smoke tests).
  void set_compute(df::ActorId actor, ComputeFn fn);

  /// Runs `iterations` complete graph iterations.
  void run(std::int64_t iterations);

  /// SPI channel of an interprocessor edge (statistics, occupancy).
  [[nodiscard]] const SpiChannel& channel(df::EdgeId edge) const;
  [[nodiscard]] const std::map<df::EdgeId, SpiChannel>& channels() const { return channels_; }

  /// Total firings executed so far per actor.
  [[nodiscard]] std::int64_t invocations(df::ActorId actor) const {
    return fired_.at(static_cast<std::size_t>(actor));
  }

 private:
  void fire(df::ActorId actor);
  [[nodiscard]] Bytes take_token(df::EdgeId edge);
  void put_tokens(df::EdgeId edge, std::vector<Bytes>&& tokens);

  const ExecutablePlan& plan_;
  const df::Graph& graph_;  ///< the VTS-converted graph
  std::vector<ComputeFn> compute_;
  std::vector<std::int64_t> fired_;
  /// Receiver-side raw FIFOs, one per edge (interprocessor edges refill
  /// from their SpiChannel on demand).
  std::vector<std::deque<Bytes>> fifo_;
  std::map<df::EdgeId, SpiChannel> channels_;
};

}  // namespace spi::core
