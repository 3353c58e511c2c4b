/// \file flight_recorder.hpp
/// Causal flight recorder: bounded, lock-free per-thread event capture
/// for the execution engines.
///
/// PR 1's counters say *how much* (messages, blocked microseconds); the
/// flight recorder says *which one and when*: every firing, send,
/// receive and blocking wait is a fixed-size binary event stamped with
/// processor, actor, edge, message sequence, iteration and a monotonic
/// timestamp. The critical-path analyzer (critical_path.hpp)
/// reconstructs the causal DAG from this stream — cross-processor
/// dependencies are matched by (edge, aux, seq) — and attributes
/// wall-clock loss to specific channels and actors, answering the
/// question the paper's static analysis poses: did the schedule's
/// predicted iteration period (the sync graph's MCM) survive contact
/// with a real run?
///
/// Recording is wait-free on the hot path: one single-producer /
/// single-consumer ring buffer per processor thread, a relaxed atomic
/// head/tail pair each, fixed-size slots, no allocation. A full ring
/// *drops* the event and counts it (`dropped_total`) — truncation is
/// never silent, and the analyzer is tolerant of the resulting
/// unmatched begin/end pairs. The same event schema is emitted by the
/// timed simulator in modeled time (sim/flight_adapter.hpp), so a
/// predicted and a realized attribution are directly diffable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace spi::obs {

/// Event kinds. The numeric values are the wire format of the JSON dump
/// ("k" field) — append only, never renumber.
enum class FlightEventKind : std::uint8_t {
  kFireBegin = 0,   ///< actor firing started (edge = -1)
  kFireEnd = 1,     ///< actor firing completed (edge = -1)
  kSend = 2,        ///< message (edge, aux, seq) became visible to the receiver
  kReceive = 3,     ///< message (edge, aux, seq) consumed / delivered
  kBlockBegin = 4,  ///< wait on a channel started (aux: 0 = consumer, 1 = producer)
  kBlockEnd = 5,    ///< wait ended (seq = unblocking message, consumer side)
  kRetry = 6,       ///< reliable-transport retransmissions (seq = retry count)
  kBatchBegin = 7,  ///< serve batch started (seq = batch id, aux = batch jobs)
  kBatchEnd = 8,    ///< serve batch completed (seq = batch id)
};

/// One fixed-size binary event. POD — rings copy it by value.
struct FlightEvent {
  std::int64_t t = 0;          ///< monotonic time (ns wall clock, or modeled cycles)
  std::int64_t seq = 0;        ///< per-(edge, aux) message sequence; kind-specific
  std::int64_t iteration = 0;  ///< graph iteration of the enclosing firing
  std::int32_t proc = 0;       ///< processor / worker-thread index
  std::int32_t actor = -1;     ///< firing actor (engine's id space; -1 = n/a)
  std::int32_t edge = -1;      ///< dataflow edge id (-1 = n/a / pure sync)
  std::int32_t aux = 0;        ///< kind-specific: block side, message sub-stream
  FlightEventKind kind = FlightEventKind::kFireBegin;
};

/// A collected event stream plus the naming/context needed to analyze it
/// standalone (no plan required for names). JSON round-trip so dumps can
/// be analyzed post mortem by tools/spi_trace_analyze.
struct FlightLog {
  static constexpr int kSchemaVersion = 1;

  std::string time_unit = "ns";  ///< "ns" (wall clock) or "cycles" (modeled)
  std::int32_t proc_count = 0;
  std::int64_t dropped = 0;  ///< events lost to ring overflow
  std::vector<std::string> actor_names;  ///< by actor id ("" = unnamed)
  std::vector<std::string> edge_names;   ///< by edge id
  /// Grouped by proc, time-ordered within each proc's run.
  std::vector<FlightEvent> events;

  [[nodiscard]] std::string to_json() const;
  /// Parses a dump produced by to_json(). Throws std::invalid_argument
  /// with a descriptive message on malformed input or schema mismatch.
  [[nodiscard]] static FlightLog from_json(std::string_view text);
};

/// Lock-free single-producer / single-consumer ring of FlightEvents.
/// The owning worker thread pushes; the collector drains after the
/// workers quiesce (or concurrently — the SPSC contract only requires
/// one thread per side). Capacity is rounded up to a power of two.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  /// Producer side. Returns false (and counts a drop) when full.
  bool try_push(const FlightEvent& event) noexcept;

  /// Consumer side: moves everything currently readable into `out`.
  void drain(std::vector<FlightEvent>& out);

  /// Consumer side: drops everything currently readable without copying
  /// — re-bases the ring so the next drain sees only newer events.
  void discard_all() noexcept {
    head_.store(tail_.load(std::memory_order_acquire), std::memory_order_release);
  }

  [[nodiscard]] std::int64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Events pushed and not yet drained or discarded.
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }

 private:
  std::vector<FlightEvent> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer writes
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer reads
  alignas(64) std::atomic<std::int64_t> dropped_{0};
};

/// Per-processor ring set with a shared monotonic epoch. Hot-path cost
/// of record(): one clock read + one SPSC push; no locks, no
/// allocation. One recorder serves one run of one engine.
class FlightRecorder {
 public:
  /// `ring_capacity` is per processor, in events (default 64Ki ≈ 3 MiB
  /// per processor at 48 bytes/event).
  explicit FlightRecorder(std::int32_t proc_count, std::size_t ring_capacity = 1u << 16);

  [[nodiscard]] std::int32_t proc_count() const {
    return static_cast<std::int32_t>(rings_.size());
  }

  /// Nanoseconds since this recorder's construction (steady clock).
  [[nodiscard]] std::int64_t now_ns() const;

  /// Stamps the event with now_ns() and pushes it onto `proc`'s ring.
  /// A no-op while disarmed.
  void record(std::int32_t proc, FlightEventKind kind, std::int32_t actor, std::int32_t edge,
              std::int64_t seq, std::int64_t iteration, std::int32_t aux = 0) noexcept;

  /// Arms / disarms capture. Disarmed, record() is one relaxed load —
  /// for recorders that stay attached to a long-lived engine but whose
  /// events only matter in windows somebody will actually collect (the
  /// serve layer arms only around the batches its trace bridge
  /// captures; writing events nobody drains costs real ring traffic).
  /// Armed by default.
  void set_armed(bool armed) noexcept { armed_.store(armed, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const noexcept { return armed_.load(std::memory_order_relaxed); }

  /// Engine-provided naming for the collected log (actor/edge ids are
  /// meaningless without it in a post-mortem dump).
  void set_names(std::vector<std::string> actor_names, std::vector<std::string> edge_names);
  void set_time_unit(std::string unit) { time_unit_ = std::move(unit); }

  /// When set, the owning runtime writes a post-mortem JSON dump here if
  /// a run dies on sim::ChannelError (see ThreadedRuntime::run).
  void set_postmortem_path(std::string path) { postmortem_path_ = std::move(path); }
  [[nodiscard]] const std::string& postmortem_path() const { return postmortem_path_; }

  /// Drains every ring into a FlightLog (per-proc order preserved).
  /// Call after the recorded run quiesced; cumulative across calls only
  /// in the sense that un-drained events remain in the rings.
  [[nodiscard]] FlightLog collect();

  /// Drops every un-drained event without copying. Scopes the next
  /// collect() to events recorded after this call — the serve layer's
  /// flight bridge resets this way before a captured batch so the
  /// collected log is exactly that batch's stream (an always-on
  /// recorder accumulates ring-capacity stale events between captures;
  /// draining those through collect() would cost milliseconds).
  void discard_all() noexcept {
    for (auto& ring : rings_) ring->discard_all();
  }

  [[nodiscard]] std::int64_t dropped_total() const;
  /// Events recorded and not yet collected or discarded, over all rings.
  [[nodiscard]] std::size_t pending_events() const;

  /// spi_flight_events_recorded / spi_flight_events_dropped gauges —
  /// exported so truncation is never silent.
  void publish_metrics(MetricRegistry& registry) const;

 private:
  std::vector<std::unique_ptr<FlightRing>> rings_;
  std::atomic<bool> armed_{true};
  std::int64_t epoch_ns_;
  std::int64_t collected_ = 0;  ///< events drained so far (for metrics)
  std::string time_unit_ = "ns";
  std::string postmortem_path_;
  std::vector<std::string> actor_names_;
  std::vector<std::string> edge_names_;
};

}  // namespace spi::obs
