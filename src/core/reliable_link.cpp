#include "core/reliable_link.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace spi::core {

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t offset) {
  return static_cast<std::uint32_t>(in[offset]) |
         (static_cast<std::uint32_t>(in[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(in[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(in[offset + 3]) << 24);
}

void sleep_us(std::int64_t micros) {
  if (micros > 0) std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

void inc(obs::Counter* counter, std::int64_t by = 1) {
  if (counter) counter->inc(by);
}

/// Publishes a frame the receiver will discard, or discards it at once
/// when the ring has no spare slot for it (see play_transmit).
void offer_discardable(SpscChannel& ring, const Bytes& frame, obs::Counter* discarded) {
  if (ring.size() < kDiscardableSlots)
    ring.push({frame.data(), frame.size()});
  else
    inc(discarded);
}

}  // namespace

Bytes encode_sequenced(df::EdgeId edge, std::uint32_t seq,
                       std::span<const std::uint8_t> payload) {
  if (edge < 0) throw std::invalid_argument("encode_sequenced: invalid edge id");
  Bytes wire;
  wire.reserve(static_cast<std::size_t>(kSequencedOverheadBytes) + payload.size());
  put_u32(wire, seq);
  put_u32(wire, static_cast<std::uint32_t>(edge));
  put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  put_u32(wire, crc32(wire));  // covers seq + edge + size + payload
  return wire;
}

SequencedMessage decode_sequenced(std::span<const std::uint8_t> wire) {
  if (wire.size() < static_cast<std::size_t>(kSequencedOverheadBytes))
    throw std::runtime_error("decode_sequenced: truncated frame");
  const std::uint32_t stored = get_u32(wire, wire.size() - 4);
  if (crc32(wire.first(wire.size() - 4)) != stored)
    throw std::runtime_error("decode_sequenced: CRC mismatch (frame corrupted)");
  SequencedMessage m;
  m.seq = get_u32(wire, 0);
  m.edge = static_cast<df::EdgeId>(get_u32(wire, 4));
  const std::uint32_t size = get_u32(wire, 8);
  if (wire.size() != static_cast<std::size_t>(kSequencedOverheadBytes) + size)
    throw std::runtime_error("decode_sequenced: size header disagrees with wire length");
  m.payload.assign(wire.begin() + 12, wire.end() - 4);
  return m;
}

TransmitScript ReliableSender::plan_transmit(std::span<const std::uint8_t> payload) {
  return plan_with(plan_, payload);
}

TransmitScript ReliableSender::plan_transmit_faultless(std::span<const std::uint8_t> payload) {
  return plan_with(nullptr, payload);
}

TransmitScript ReliableSender::plan_with(const sim::FaultPlan* plan,
                                         std::span<const std::uint8_t> payload) {
  TransmitScript script;
  script.seq = next_seq_++;
  const Bytes frame = encode_sequenced(edge_, script.seq, payload);

  const int budget = plan ? policy_.attempts : 1;
  for (int attempt = 0; attempt < budget; ++attempt) {
    const sim::FaultOutcome outcome =
        plan ? plan->outcome(edge_, static_cast<std::int64_t>(script.seq), attempt)
             : sim::FaultOutcome{};

    TransmitStep step;
    step.duplicate = outcome.duplicate;
    step.delay_us = outcome.delay_us;
    switch (outcome.kind) {
      case sim::FaultOutcome::Kind::kDrop:
        ++script.dropped;
        break;  // step.frame stays empty
      case sim::FaultOutcome::Kind::kCorrupt: {
        // Flip one byte, position and mask drawn from the outcome's
        // entropy; the XOR mask is never zero so the frame always
        // changes and the whole-frame CRC always catches it.
        step.frame = frame;
        const std::size_t pos = static_cast<std::size_t>(outcome.entropy % frame.size());
        const auto mask = static_cast<std::uint8_t>(1 + (outcome.entropy >> 32) % 255);
        step.frame[pos] ^= mask;
        step.corrupted = true;
        ++script.corrupted;
        break;
      }
      case sim::FaultOutcome::Kind::kDeliver:
        step.frame = frame;
        script.delivered = true;
        break;
    }

    if (!script.delivered && attempt + 1 < budget) {
      step.backoff_us = policy_.backoff_us(
          attempt + 1,
          plan ? plan->jitter_key(edge_, static_cast<std::int64_t>(script.seq), attempt) : 0);
      script.total_backoff_us += step.backoff_us;
    }
    script.steps.push_back(std::move(step));
    if (script.delivered) break;
  }
  return script;
}

ReliableReceiver::Result ReliableReceiver::accept(std::span<const std::uint8_t> frame) {
  Result result;
  SequencedMessage m;
  try {
    m = decode_sequenced(frame);
  } catch (const std::runtime_error&) {
    result.verdict = Verdict::kCorrupt;
    return result;
  }
  if (m.edge != edge_) {
    // A frame routed to the wrong channel: indistinguishable from
    // corruption that survived by landing on another edge's queue.
    result.verdict = Verdict::kCorrupt;
    return result;
  }
  if (m.seq < expected_seq_) {
    result.verdict = Verdict::kDuplicate;
    return result;
  }
  expected_seq_ = m.seq + 1;
  result.verdict = Verdict::kAccept;
  result.payload = std::move(m.payload);
  return result;
}

void play_transmit(SpscChannel& ring, const TransmitScript& script,
                   const ChannelCounters& counters, const ChannelFlightCtx* flight) {
  for (const TransmitStep& step : script.steps) {
    // A long retransmission script (many attempts with backoff) must
    // not outlive a run abort — the watchdog relies on senders
    // unwinding at the next attempt boundary.
    if (ring.aborted()) throw ChannelInterrupted{};
    sleep_us(step.delay_us);
    if (!step.dropped()) {
      if (step.corrupted)
        offer_discardable(ring, step.frame, counters.crc_failures);
      else
        ring.push({step.frame.data(), step.frame.size()}, flight);
      if (step.duplicate)
        offer_discardable(ring, step.frame,
                          step.corrupted ? counters.crc_failures : counters.duplicates);
    }
    if (step.backoff_us > 0) {
      sleep_us(step.backoff_us);
      if (counters.backoff_histogram)
        counters.backoff_histogram->observe(static_cast<double>(step.backoff_us));
    }
  }
  if (script.retries() > 0) {
    inc(counters.retries, script.retries());
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kRetry, flight->actor,
                               ring.edge(), script.retries(), flight->iteration);
  }
  if (script.dropped > 0) inc(counters.dropped_frames, script.dropped);
  if (script.total_backoff_us > 0) inc(counters.backoff_micros, script.total_backoff_us);
  if (!script.delivered) {
    inc(counters.send_failures);
    throw sim::ChannelError(sim::ChannelErrorKind::kRetriesExhausted, ring.edge(),
                            script.attempts(), "every transmission dropped or corrupted");
  }
}

void receive_reliable(SpscChannel& ring, ReliableReceiver& receiver, std::int64_t timeout_us,
                      const ChannelCounters& counters, Bytes& out,
                      const ChannelFlightCtx* flight) {
  for (;;) {
    // An empty ring past the deadline means the peer is lost (or the
    // wire eats everything): degrade with a typed error instead of
    // hanging the worker forever.
    std::span<const std::uint8_t> frame;
    if (!ring.front_until(
            std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us), frame,
            flight)) {
      inc(counters.timeouts);
      throw sim::ChannelError(sim::ChannelErrorKind::kReceiveTimeout, ring.edge(), 0,
                              "no frame within " + std::to_string(timeout_us) + "us");
    }
    ReliableReceiver::Result result = receiver.accept(frame);
    if (result.verdict == ReliableReceiver::Verdict::kAccept) {
      ring.pop(flight);
      out = std::move(result.payload);
      return;
    }
    // Discarded: the sender already scheduled a retransmission (or the
    // payload already arrived, for a duplicate).
    ring.pop();
    inc(result.verdict == ReliableReceiver::Verdict::kCorrupt ? counters.crc_failures
                                                              : counters.duplicates);
  }
}

}  // namespace spi::core
