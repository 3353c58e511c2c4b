/// \file spsc_channel.hpp
/// Zero-copy lock-free SPSC channel with a slab-allocated token buffer.
///
/// The paper's core claim is that static SDF structure lets interprocessor
/// communication compile down to lean specialized actors instead of a
/// general-purpose runtime. Every IPC edge of an ExecutablePlan is
/// single-producer / single-consumer by construction (one src processor,
/// one snk processor), and a BBS edge carries a compile-time capacity
/// (equation 2). This channel exploits exactly that knowledge:
///
///  * The buffer is one slab of `capacity × frame_bound` bytes allocated
///    at construction — equation 2 sizes it, so steady-state send and
///    receive perform **zero heap allocations**.
///  * The producer *acquires* a fixed-size slot span, packs/encodes its
///    token directly into it, and *publishes* with one seq_cst store; the
///    consumer reads the published span in place and *releases* the slot
///    with one seq_cst store. No mutex, no condition variable, no memcpy
///    beyond the one the caller chooses to perform.
///  * Indices are cache-line-separated and each side caches the opposing
///    index, so an uncontended transfer touches one shared cache line per
///    side.
///
/// Blocking degrades gracefully: a bounded spin (cheap, keeps the
/// back-pressure latency in the tens of nanoseconds when the peer is
/// active), then a few sched yields, then a futex-style park on a
/// condition variable. The park handshake is an eventcount: the waiter
/// registers in `waiters_` (seq_cst RMW) before re-checking the peer's
/// index, the signaler publishes its index before checking `waiters_`,
/// all seq_cst and without a standalone fence — so the fast path never
/// takes a lock, a wakeup is never lost, and ThreadSanitizer models the
/// whole handshake. Flight-recorder kBlockBegin/kBlockEnd events are
/// emitted only when the wait actually parks (spin waits are not
/// "blocked" in any sense the critical-path analyzer should attribute).
/// A consumer may bound its wait with a deadline (front_until); the park
/// then ends at the deadline.
///
/// A JobInstance builds one of these for every IPC edge of the plan.
/// Reliability-enabled edges carry sequenced frames over the same ring;
/// the protocol itself lives in reliable_link.hpp (docs/architecture.md,
/// "Threaded-runtime channels").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/message.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace spi::core {

/// Thrown out of a blocked (or spinning) push/pop when the owning
/// runtime aborts the run: the worker unwinds without recording an error
/// of its own (another worker's failure is the root cause).
struct ChannelInterrupted : std::runtime_error {
  ChannelInterrupted() : std::runtime_error("SPI channel: interrupted by abort") {}
};

/// Per-call flight-recording context: who is touching the channel. A
/// null pointer at the call site means recording is off (construction
/// -time token placement and every run without a recorder attached).
struct ChannelFlightCtx {
  obs::FlightRecorder* recorder = nullptr;
  std::int32_t proc = 0;
  std::int32_t actor = -1;
  std::int64_t iteration = 0;
};

/// Nullable registry handles for the channel's block accounting. The
/// block *count* is incremented whenever the fast path failed and the
/// caller had to wait at all; the block *duration* covers the whole wait
/// (spin + yield + park). Null pointers skip the accounting entirely —
/// including the monotonic clock reads.
struct SpscCounters {
  obs::Counter* producer_blocks = nullptr;
  obs::Counter* consumer_blocks = nullptr;
  obs::Counter* producer_block_micros = nullptr;
  obs::Counter* consumer_block_micros = nullptr;
};

/// Lock-free registry handles of one channel's counters. All nullable:
/// a null handle skips that accounting entirely. Reliability pointers
/// are null when the protocol is off.
struct ChannelCounters {
  obs::Counter* messages = nullptr;
  obs::Counter* payload_bytes = nullptr;
  obs::Counter* producer_blocks = nullptr;
  obs::Counter* consumer_blocks = nullptr;
  obs::Counter* producer_block_micros = nullptr;
  obs::Counter* consumer_block_micros = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* dropped_frames = nullptr;
  obs::Counter* crc_failures = nullptr;
  obs::Counter* duplicates = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* send_failures = nullptr;
  obs::Counter* backoff_micros = nullptr;
  obs::Histogram* backoff_histogram = nullptr;

  [[nodiscard]] SpscCounters spsc() const {
    return SpscCounters{producer_blocks, consumer_blocks, producer_block_micros,
                        consumer_block_micros};
  }
};

/// Lock-free single-producer / single-consumer token channel over a
/// preallocated slab. Exactly one thread may call the producer API
/// (acquire/publish/push) and exactly one thread the consumer API
/// (front/pop/pop_into) — the dataflow edge guarantees it.
class SpscChannel {
 public:
  /// \param edge         dataflow edge id (flight events, errors)
  /// \param capacity     slot count — the plan's equation-2 bound for
  ///                     BBS, UBS credit window otherwise (plus delay
  ///                     tokens); clamped to >= 1
  /// \param frame_bound  bytes of the largest token the edge can carry
  ///                     (b_max for VTS-converted edges); clamped to >= 1.
  ///                     Throws std::length_error when capacity ×
  ///                     frame_bound overflows size_t.
  /// \param abort        optional run-abort flag checked while waiting;
  ///                     a blocked call throws ChannelInterrupted once it
  ///                     is set (after interrupt() wakes parked waiters)
  SpscChannel(df::EdgeId edge, std::size_t capacity, std::size_t frame_bound,
              std::atomic<bool>* abort = nullptr);

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  void set_counters(const SpscCounters& counters) { counters_ = counters; }

  [[nodiscard]] df::EdgeId edge() const { return edge_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t frame_bound() const { return frame_bound_; }
  /// Published-but-unconsumed tokens (approximate across threads).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }
  /// Highest occupancy (tokens) ever seen by the producer at publish
  /// time — the live signal for how tight the plan's eq.-2 bound really
  /// is. Readable from any thread (/runtime endpoint); maintained with
  /// producer-local arithmetic plus a relaxed store only when the
  /// maximum actually grows (at most `capacity` times per run).
  [[nodiscard]] std::size_t high_watermark() const {
    return static_cast<std::size_t>(high_watermark_.load(std::memory_order_relaxed));
  }

  // --- producer side -------------------------------------------------

  /// Waits for a free slot and returns its frame_bound-byte span. The
  /// caller packs/encodes directly into it and calls publish(). Blocking
  /// escalates spin -> yield -> park; throws ChannelInterrupted on abort.
  [[nodiscard]] std::span<std::uint8_t> acquire(const ChannelFlightCtx* flight = nullptr);

  /// Non-blocking acquire; false when the channel is full.
  [[nodiscard]] bool try_acquire(std::span<std::uint8_t>& slot) noexcept;

  /// Publishes the acquired slot's first `frame_bytes` bytes with one
  /// seq_cst store (this is the kSend instant). Throws std::length_error
  /// beyond frame_bound.
  void publish(std::size_t frame_bytes, const ChannelFlightCtx* flight = nullptr);

  /// Convenience: acquire + copy + publish (the one copy the ComputeFn
  /// contract forces on the runtime; direct users avoid it with
  /// acquire/publish).
  void push(std::span<const std::uint8_t> token, const ChannelFlightCtx* flight = nullptr);

  // --- consumer side -------------------------------------------------

  /// Waits for a published token and returns its in-slab span (valid
  /// until pop()). Throws ChannelInterrupted on abort. If the channel is
  /// non-empty when the abort lands, the remaining tokens stay readable.
  [[nodiscard]] std::span<const std::uint8_t> front(const ChannelFlightCtx* flight = nullptr);

  /// front() with a deadline on the wait: false once `deadline` passes
  /// with the channel still empty (never earlier). An abort still wins:
  /// ChannelInterrupted, whether or not the deadline has passed.
  [[nodiscard]] bool front_until(std::chrono::steady_clock::time_point deadline,
                                 std::span<const std::uint8_t>& token,
                                 const ChannelFlightCtx* flight = nullptr);

  /// Non-blocking front; false when the channel is empty.
  [[nodiscard]] bool try_front(std::span<const std::uint8_t>& token) noexcept;

  /// Consumes the front token (records the kReceive event, then frees the
  /// slot with one seq_cst store).
  void pop(const ChannelFlightCtx* flight = nullptr);

  /// front + copy-out + pop. `out.assign` reuses the caller's buffer
  /// capacity, so a warmed-up receive loop performs no allocation.
  void pop_into(Bytes& out, const ChannelFlightCtx* flight = nullptr);

  /// Wakes parked waiters so they can observe the abort flag. Safe from
  /// any thread.
  void interrupt();

  // --- quiescent hand-off (neither end running) -----------------------

  /// Hands each queued token, oldest first, to `take` and empties the
  /// channel. The producer's view of the consumer is re-synced, so the
  /// next publishes measure the watermark exactly.
  template <class Take>
  void drain(Take&& take) {
    std::span<const std::uint8_t> token;
    while (try_front(token)) {
      take(token);
      pop();
    }
    head_cache_ = head_local_;
  }

  /// The sequence numbers the next kSend / kReceive flight events carry,
  /// and their setter, for an owner that carried the edge's traffic on
  /// its own thread meanwhile (JobInstance's colocated runs).
  [[nodiscard]] std::int64_t send_seq() const noexcept { return send_seq_; }
  [[nodiscard]] std::int64_t recv_seq() const noexcept { return recv_seq_; }
  void set_seqs(std::int64_t send, std::int64_t recv) noexcept {
    send_seq_ = send;
    recv_seq_ = recv;
  }

  /// Whether the run-abort flag is set (relaxed read).
  [[nodiscard]] bool aborted() const noexcept {
    return abort_ != nullptr && abort_->load(std::memory_order_relaxed);
  }

 private:
  enum class Side : std::uint8_t { kProducer, kConsumer };

  using Deadline = std::chrono::steady_clock::time_point;

  /// Slow path: spin -> yield -> park until `ready()` (a lambda polling
  /// the opposing index) holds, abort is set or `deadline` (nullable =
  /// none) passes. Returns false with the condition still unmet.
  template <class Ready>
  bool wait(Side side, Ready&& ready, const ChannelFlightCtx* flight,
            const Deadline* deadline = nullptr);
  /// Consumer wait for a published token; false as wait().
  bool await_token(const ChannelFlightCtx* flight, const Deadline* deadline);

  void wake_peer() noexcept;

  const df::EdgeId edge_;
  const std::size_t capacity_;
  const std::size_t frame_bound_;
  std::vector<std::uint8_t> slab_;      ///< capacity_ * frame_bound_ bytes
  std::vector<std::uint32_t> sizes_;    ///< published byte count per slot
  std::atomic<bool>* abort_;
  SpscCounters counters_;

  // Producer-owned state (shared tail_ on its own cache line; the rest
  // is touched only by the producing thread).
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< published count
  std::uint64_t tail_local_ = 0;   ///< producer's mirror of tail_
  std::uint64_t head_cache_ = 0;   ///< producer's last view of head_
  std::size_t tail_idx_ = 0;       ///< producer's wrapped slot index
  std::int64_t send_seq_ = 0;      ///< flight-event sequence (producer)
  std::uint64_t watermark_local_ = 0;  ///< producer's running max depth
  /// Published copy of watermark_local_, stored only on increase (so
  /// the hot path pays one predictable branch, no shared-line traffic
  /// in steady state). Lives on the producer's cache line: only the
  /// producer writes it, and readers are cold scrape paths.
  std::atomic<std::uint64_t> high_watermark_{0};

  // Consumer-owned state.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumed count
  std::uint64_t head_local_ = 0;
  std::uint64_t tail_cache_ = 0;
  std::size_t head_idx_ = 0;
  std::int64_t recv_seq_ = 0;

  // Park state (cold): eventcount-style. waiters_ is checked lock-free
  // by the signaling side; the mutex serializes only actual parks/wakes.
  alignas(64) std::atomic<std::uint32_t> waiters_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

}  // namespace spi::core
