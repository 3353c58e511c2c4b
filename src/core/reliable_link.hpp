/// \file reliable_link.hpp
/// Reliability protocol over an unreliable SPI wire: per-edge sequence
/// numbers, CRC-checked sequenced frames, bounded retry with
/// exponential backoff + deterministic jitter, duplicate suppression.
///
/// The paper's links are lossless on-chip wires; this layer is what a
/// production deployment puts on every *unreliable* hop. It is split
/// into pure, single-threaded state machines so the protocol is testable
/// without threads and identical wherever it is embedded:
///
///  * ReliableSender — assigns the next sequence number and, given a
///    FaultPlan, precomputes the deterministic transmission script of
///    one message (which attempts reach the wire, corrupted or intact,
///    duplicated or delayed, and the backoff before each retry). The
///    embedding transport executes the script: sleeps, queue pushes,
///    metric increments. Exhausting the retry budget is surfaced as a
///    typed sim::ChannelError — never a hang.
///  * ReliableReceiver — validates each arriving frame (CRC over the
///    whole frame, so header and sequence corruption are caught too),
///    discards duplicates by sequence number, and releases payloads
///    exactly once, in order.
///
/// Over a JobInstance's SpscChannel the protocol is two free
/// functions: play_transmit plays a sender's script onto the ring and
/// receive_reliable runs the receiver over it, the ring knowing nothing
/// of the protocol beyond a deadline on the consumer's wait.
///
/// Because every fault decision is keyed by (edge, sequence, attempt) —
/// not by wall clock or thread interleaving — a lossy run delivers
/// exactly the same payload sequence as a lossless run, whatever the
/// scheduling. The parity tests assert this.
///
/// Sequenced frame format (CRC-32 covers everything before the trailer):
///     [seq:u32le][edge:u32le][size:u32le][payload][crc32:u32le]
#pragma once

#include <cstdint>
#include <vector>

#include "core/message.hpp"
#include "core/spsc_channel.hpp"
#include "sim/fault.hpp"

namespace spi::core {

/// Header + trailer bytes of a sequenced frame.
inline constexpr std::int64_t kSequencedOverheadBytes = 16;

/// Ring slots a reliable edge holds beyond its plan capacity, for frames
/// the receiver will discard (corrupted attempts, stale duplicates).
inline constexpr std::size_t kDiscardableSlots = 2;

struct SequencedMessage {
  std::uint32_t seq = 0;
  df::EdgeId edge = df::kInvalidEdge;
  Bytes payload;
};

/// Encodes a sequenced frame; CRC-32 over seq+edge+size+payload.
[[nodiscard]] Bytes encode_sequenced(df::EdgeId edge, std::uint32_t seq,
                                     std::span<const std::uint8_t> payload);

/// Decodes and validates a sequenced frame; throws std::runtime_error on
/// truncation, length mismatch or CRC failure.
[[nodiscard]] SequencedMessage decode_sequenced(std::span<const std::uint8_t> wire);

/// One transmission attempt the embedding transport must replay, in
/// order: optional transport delay, then delivery (unless the wire
/// dropped the frame), then the sender's backoff before the next try.
struct TransmitStep {
  Bytes frame;                  ///< bytes arriving (corrupted when the plan says so);
                                ///< empty = the wire dropped this attempt
  bool corrupted = false;       ///< receiver's CRC will reject this copy
  bool duplicate = false;       ///< deliver the frame a second time
  std::int64_t delay_us = 0;    ///< transport latency before delivery
  std::int64_t backoff_us = 0;  ///< sender sleep after this attempt (0 on success)

  [[nodiscard]] bool dropped() const { return frame.empty(); }
};

/// The full deterministic script for sending one message.
struct TransmitScript {
  std::uint32_t seq = 0;
  std::vector<TransmitStep> steps;  ///< one per attempt, in order
  int dropped = 0;                  ///< attempts the wire swallowed
  int corrupted = 0;                ///< attempts delivered but damaged
  bool delivered = false;           ///< false = retry budget exhausted
  std::int64_t total_backoff_us = 0;

  [[nodiscard]] int attempts() const { return static_cast<int>(steps.size()); }
  [[nodiscard]] int retries() const { return attempts() - 1; }
};

/// Sender half of the protocol for one edge. Single-threaded by
/// construction: a dataflow edge has exactly one producing actor.
class ReliableSender {
 public:
  /// `plan` may be null (perfect wire: one intact attempt per message).
  /// Neither pointer is owned; both must outlive the sender.
  ReliableSender(df::EdgeId edge, const sim::FaultPlan* plan, const sim::RetryPolicy& policy)
      : edge_(edge), plan_(plan), policy_(policy) {}

  [[nodiscard]] std::uint32_t next_seq() const { return next_seq_; }

  /// Consumes the next sequence number and lays out the transmission
  /// script for `payload` under the fault plan. The script's `delivered`
  /// flag tells the caller whether to raise sim::ChannelError after
  /// executing the steps.
  [[nodiscard]] TransmitScript plan_transmit(std::span<const std::uint8_t> payload);

  /// Same, ignoring the fault plan (one intact attempt). Used for
  /// initial-token placement, which must not fail under a hostile plan.
  [[nodiscard]] TransmitScript plan_transmit_faultless(std::span<const std::uint8_t> payload);

 private:
  [[nodiscard]] TransmitScript plan_with(const sim::FaultPlan* plan,
                                         std::span<const std::uint8_t> payload);

  df::EdgeId edge_;
  const sim::FaultPlan* plan_;
  const sim::RetryPolicy& policy_;
  std::uint32_t next_seq_ = 0;
};

/// Receiver half: CRC validation + duplicate suppression for one edge.
class ReliableReceiver {
 public:
  explicit ReliableReceiver(df::EdgeId edge) : edge_(edge) {}

  enum class Verdict : std::uint8_t {
    kAccept,     ///< payload released to the application
    kCorrupt,    ///< CRC or framing failure; frame discarded
    kDuplicate,  ///< stale sequence number; frame discarded
  };

  struct Result {
    Verdict verdict = Verdict::kAccept;
    Bytes payload;  ///< valid only when verdict == kAccept
  };

  /// Inspects one arriving frame. Out-of-order-but-new frames resync the
  /// expected sequence (an in-order transport only produces them after
  /// an accepted gap, which the sender's typed failure already reported).
  [[nodiscard]] Result accept(std::span<const std::uint8_t> frame);

  [[nodiscard]] std::uint32_t expected_seq() const { return expected_seq_; }

 private:
  df::EdgeId edge_;
  std::uint32_t expected_seq_ = 0;
};

/// Plays one message's transmit `script` onto `ring` attempt by attempt
/// — abort check, transport delay, publish (twice for a duplicate;
/// dropped attempts never enter the ring), backoff — and keeps the
/// per-attempt counters. A frame the receiver will discard is published
/// only while the ring holds fewer than kDiscardableSlots frames, so
/// such frames never take a slot an intact one needs (a colocated run's
/// single thread could otherwise wait on itself); past that the receiver
/// discards it on arrival and it is counted as receive_reliable counts
/// it. Throws ChannelInterrupted on abort and sim::ChannelError
/// (kRetriesExhausted) when the script was not delivered.
void play_transmit(SpscChannel& ring, const TransmitScript& script,
                   const ChannelCounters& counters, const ChannelFlightCtx* flight);

/// Receives the next accepted payload from `ring` into `out`, discarding
/// (and counting) corrupted frames and stale duplicates on the way. Each
/// frame wait ends at `timeout_us`: the timeouts counter is bumped and
/// sim::ChannelError (kReceiveTimeout) is thrown. Throws
/// ChannelInterrupted on abort.
void receive_reliable(SpscChannel& ring, ReliableReceiver& receiver, std::int64_t timeout_us,
                      const ChannelCounters& counters, Bytes& out,
                      const ChannelFlightCtx* flight);

}  // namespace spi::core
