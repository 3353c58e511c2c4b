/// \file firing_context.hpp
/// The compute-function contract of the execution engine: what one
/// actor firing sees (its input tokens) and fills (its output tokens).
/// JobInstance runs every firing, gang and colocated alike, through
/// this interface.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/message.hpp"
#include "dataflow/graph.hpp"

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

}  // namespace spi::core
