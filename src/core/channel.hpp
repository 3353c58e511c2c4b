/// \file channel.hpp
/// Functional SPI channels with BBS/UBS buffer-synchronization semantics.
///
/// The paper's SPI_BBS protocol applies when an IPC buffer provably never
/// exceeds a precomputed size (equation 2): the buffer is allocated
/// statically and the forward data message is the only synchronization.
/// SPI_UBS applies otherwise: the receiver returns acknowledgements so
/// the sender can bound its outstanding messages (back-pressure).
///
/// This functional layer moves real bytes and *checks* the protocol
/// invariants (capacity, FIFO order, framing); the timing consequences
/// are modeled separately by the SpiBackend + timed executor.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/message.hpp"
#include "sched/sync_graph.hpp"

namespace spi::core {

/// Which SPI interface component serves the edge (paper Section 5.1).
enum class SpiMode : std::uint8_t {
  kStatic,   ///< SPI_static: compile-time payload size, edge-id header
  kDynamic,  ///< SPI_dynamic: VTS packed tokens, edge-id + size header
};

struct ChannelConfig {
  df::EdgeId edge = df::kInvalidEdge;
  SpiMode mode = SpiMode::kStatic;
  sched::SyncProtocol protocol = sched::SyncProtocol::kUbs;
  /// Static mode: the exact payload size of every message.
  /// Dynamic mode: b_max — the maximum packed-token size.
  std::int64_t payload_bound_bytes = 4;
  /// BBS only: statically guaranteed buffer capacity in messages
  /// (equation 2's token bound). Ignored for UBS.
  std::int64_t capacity_messages = 0;
  /// UBS only: whether the receiver's acknowledgement is elided because
  /// resynchronization proved it redundant.
  bool ack_elided = false;
};

/// Channel statistics used by reports and tests.
struct ChannelStats {
  std::int64_t messages = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t wire_bytes = 0;   ///< payload + headers
  std::int64_t acks = 0;         ///< acknowledgements actually produced
  std::int64_t max_occupancy = 0;
};

/// A point-to-point SPI channel. Send encodes the configured wire format;
/// receive decodes and validates it. Protocol invariants are enforced:
/// a BBS channel throws if occupancy would exceed its static capacity
/// (which a correctly analyzed system can never trigger — tests use this
/// as an oracle), and a dynamic channel rejects payloads beyond b_max.
class SpiChannel {
 public:
  explicit SpiChannel(ChannelConfig config);

  [[nodiscard]] const ChannelConfig& config() const { return config_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t occupancy() const { return static_cast<std::int64_t>(queue_.size()); }

  /// Sends one message with the given payload (a packed token for
  /// dynamic channels, the fixed-size record for static ones).
  void send(std::span<const std::uint8_t> payload);

  /// Receives the oldest message; std::nullopt when the channel is empty
  /// (the receiving actor must block). UBS channels count an
  /// acknowledgement per receive unless it was elided.
  [[nodiscard]] std::optional<Bytes> receive();

 private:
  /// A recycled wire buffer sized to `size` (one-shot resize, capacity
  /// reused), or a fresh one when the freelist is empty.
  [[nodiscard]] Bytes take_buffer(std::size_t size);
  void recycle(Bytes&& buffer);

  ChannelConfig config_;
  ChannelStats stats_;
  std::deque<Bytes> queue_;  ///< encoded wire messages, FIFO
  /// Consumed wire buffers kept for reuse: in steady state send()
  /// encodes into a recycled buffer instead of allocating one per
  /// message. Bounded so a bursty channel cannot hoard memory. Owned by
  /// the channel, and so by the one runtime that owns the channel: two
  /// concurrent runtimes never share a buffer.
  std::vector<Bytes> freelist_;
};

}  // namespace spi::core
