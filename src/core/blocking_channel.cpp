#include "core/blocking_channel.hpp"

#include <chrono>
#include <thread>

namespace spi::core {

namespace {

void sleep_us(std::int64_t micros) {
  if (micros > 0) std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace

BlockingChannel::BlockingChannel(df::EdgeId edge, std::size_t capacity_tokens,
                                 std::atomic<bool>& abort, ChannelCounters counters)
    : edge_(edge), capacity_(capacity_tokens), abort_(abort), counters_(counters) {}

void BlockingChannel::enable_reliability(const sim::FaultPlan* plan,
                                         const sim::RetryPolicy& policy) {
  policy_ = &policy;
  sender_ = std::make_unique<ReliableSender>(edge_, plan, policy);
  receiver_ = std::make_unique<ReliableReceiver>(edge_);
}

void BlockingChannel::enqueue(Bytes frame, const ChannelFlightCtx* flight) {
  std::unique_lock lock(mutex_);
  if (queue_.size() >= capacity_) {
    if (counters_.producer_blocks) counters_.producer_blocks->inc();
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kBlockBegin, flight->actor,
                               edge_, send_seq_, flight->iteration, /*aux=*/1);
    const std::int64_t t0 = counters_.producer_block_micros ? obs::monotonic_ns() : 0;
    not_full_.wait(lock, [&] { return queue_.size() < capacity_ || abort_.load(); });
    if (counters_.producer_block_micros)
      counters_.producer_block_micros->inc((obs::monotonic_ns() - t0) / 1000);
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kBlockEnd, flight->actor,
                               edge_, send_seq_, flight->iteration, /*aux=*/1);
  }
  if (abort_.load()) throw ChannelInterrupted{};
  queue_.push_back(std::move(frame));
  if (queue_.size() > high_watermark_) high_watermark_ = queue_.size();
  not_empty_.notify_one();
}

std::size_t BlockingChannel::size() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t BlockingChannel::high_watermark() const {
  std::lock_guard lock(mutex_);
  return high_watermark_;
}

Bytes BlockingChannel::dequeue(const ChannelFlightCtx* flight) {
  std::unique_lock lock(mutex_);
  if (queue_.empty()) {
    if (counters_.consumer_blocks) counters_.consumer_blocks->inc();
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kBlockBegin, flight->actor,
                               edge_, recv_seq_, flight->iteration, /*aux=*/0);
    const std::int64_t t0 = counters_.consumer_block_micros ? obs::monotonic_ns() : 0;
    if (policy_) {
      // Reliable mode: an empty channel past the deadline means the
      // peer is lost (or the wire eats everything) — degrade with a
      // typed error instead of hanging the worker forever.
      const bool signaled =
          not_empty_.wait_for(lock, std::chrono::microseconds(policy_->timeout_us),
                              [&] { return !queue_.empty() || abort_.load(); });
      if (counters_.consumer_block_micros)
        counters_.consumer_block_micros->inc((obs::monotonic_ns() - t0) / 1000);
      if (!signaled) {
        if (counters_.timeouts) counters_.timeouts->inc();
        throw sim::ChannelError(sim::ChannelErrorKind::kReceiveTimeout, edge_, 0,
                                "no frame within " + std::to_string(policy_->timeout_us) +
                                    "us");
      }
    } else {
      not_empty_.wait(lock, [&] { return !queue_.empty() || abort_.load(); });
      if (counters_.consumer_block_micros)
        counters_.consumer_block_micros->inc((obs::monotonic_ns() - t0) / 1000);
    }
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kBlockEnd, flight->actor,
                               edge_, recv_seq_, flight->iteration, /*aux=*/0);
  }
  if (abort_.load() && queue_.empty()) throw ChannelInterrupted{};
  Bytes frame = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return frame;
}

void BlockingChannel::execute(const TransmitScript& script, std::int64_t payload_bytes,
                              const ChannelFlightCtx* flight) {
  for (const TransmitStep& step : script.steps) {
    // A long retransmission script (many attempts with backoff) must
    // not outlive a run abort — the watchdog relies on senders
    // unwinding at the next attempt boundary.
    if (abort_.load()) throw ChannelInterrupted{};
    sleep_us(step.delay_us);
    if (!step.dropped()) {
      enqueue(step.frame, flight);
      if (step.duplicate) enqueue(step.frame, flight);
    }
    if (step.backoff_us > 0) {
      sleep_us(step.backoff_us);
      if (counters_.backoff_histogram)
        counters_.backoff_histogram->observe(static_cast<double>(step.backoff_us));
    }
  }
  if (script.retries() > 0) {
    if (counters_.retries) counters_.retries->inc(script.retries());
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kRetry, flight->actor, edge_,
                               script.retries(), flight->iteration);
  }
  if (script.dropped > 0 && counters_.dropped_frames)
    counters_.dropped_frames->inc(script.dropped);
  if (script.total_backoff_us > 0 && counters_.backoff_micros)
    counters_.backoff_micros->inc(script.total_backoff_us);
  if (!script.delivered) {
    if (counters_.send_failures) counters_.send_failures->inc();
    throw sim::ChannelError(sim::ChannelErrorKind::kRetriesExhausted, edge_, script.attempts(),
                            "every transmission dropped or corrupted");
  }
  if (counters_.messages) counters_.messages->inc();
  if (counters_.payload_bytes) counters_.payload_bytes->inc(payload_bytes);
}

void BlockingChannel::push(Bytes token, const ChannelFlightCtx* flight) {
  const auto payload_bytes = static_cast<std::int64_t>(token.size());
  if (!sender_) {
    // Plain mode: message/byte accounting is batched per firing by the
    // runtime, not paid per token here.
    enqueue(std::move(token), flight);
  } else {
    execute(sender_->plan_transmit(token), payload_bytes, flight);
  }
  if (flight && flight->recorder) {
    // The token is now visible to the receiver: this is the causal
    // send edge the analyzer matches a consumer's wait against.
    flight->recorder->record(flight->proc, obs::FlightEventKind::kSend, flight->actor, edge_,
                             send_seq_, flight->iteration, /*aux=*/0);
  }
  ++send_seq_;
}

void BlockingChannel::push_faultless(Bytes token) {
  if (!sender_) {
    push(std::move(token));
    return;
  }
  const auto payload_bytes = static_cast<std::int64_t>(token.size());
  execute(sender_->plan_transmit_faultless(token), payload_bytes, nullptr);
  ++send_seq_;
}

Bytes BlockingChannel::pop(const ChannelFlightCtx* flight) {
  if (!receiver_) {
    Bytes token = dequeue(flight);
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kReceive, flight->actor,
                               edge_, recv_seq_, flight->iteration, /*aux=*/0);
    ++recv_seq_;
    return token;
  }
  for (;;) {
    const Bytes frame = dequeue(flight);
    ReliableReceiver::Result result = receiver_->accept(frame);
    switch (result.verdict) {
      case ReliableReceiver::Verdict::kAccept:
        if (flight && flight->recorder)
          flight->recorder->record(flight->proc, obs::FlightEventKind::kReceive, flight->actor,
                                   edge_, recv_seq_, flight->iteration, /*aux=*/0);
        ++recv_seq_;
        return std::move(result.payload);
      case ReliableReceiver::Verdict::kCorrupt:
        if (counters_.crc_failures) counters_.crc_failures->inc();
        break;  // the sender already scheduled a retransmission
      case ReliableReceiver::Verdict::kDuplicate:
        if (counters_.duplicates) counters_.duplicates->inc();
        break;
    }
  }
}

void BlockingChannel::clear() {
  std::lock_guard lock(mutex_);
  queue_.clear();
  recv_seq_ = send_seq_;
}

void BlockingChannel::interrupt() {
  std::lock_guard lock(mutex_);
  not_full_.notify_all();
  not_empty_.notify_all();
}

}  // namespace spi::core
