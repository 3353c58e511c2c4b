#include "core/spsc_channel.hpp"

#include <cstring>
#include <thread>

namespace spi::core {

namespace {

/// Spin/yield budget before parking. The spin phase rides out a peer
/// that is actively filling/draining (tens to hundreds of nanoseconds);
/// the yield phase covers a peer that is runnable but descheduled. Only
/// after both does the wait count as "blocked" for the flight recorder.
///
/// On a uniprocessor the peer cannot make progress while we spin, so
/// the pause loop would only burn the rest of our timeslice — skip it
/// and go straight to yield, which hands the CPU to the peer.
constexpr int kYieldIterations = 32;

inline int spin_iterations() noexcept {
  static const int value = std::thread::hardware_concurrency() > 1 ? 2048 : 0;
  return value;
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

SpscChannel::SpscChannel(df::EdgeId edge, std::size_t capacity, std::size_t frame_bound,
                         std::atomic<bool>* abort)
    : edge_(edge),
      capacity_(capacity == 0 ? 1 : capacity),
      frame_bound_(frame_bound == 0 ? 1 : frame_bound),
      sizes_(capacity_, 0),
      abort_(abort) {
  if (edge < 0) throw std::invalid_argument("SpscChannel: invalid edge id");
  std::size_t slab_bytes = 0;
  if (__builtin_mul_overflow(capacity_, frame_bound_, &slab_bytes))
    throw std::length_error("SpscChannel: capacity x frame bound overflows the slab size");
  slab_.assign(slab_bytes, 0);
}

template <class Ready>
bool SpscChannel::wait(Side side, Ready&& ready, const ChannelFlightCtx* flight,
                       const Deadline* deadline) {
  const bool producer = side == Side::kProducer;
  obs::Counter* blocks = producer ? counters_.producer_blocks : counters_.consumer_blocks;
  obs::Counter* micros =
      producer ? counters_.producer_block_micros : counters_.consumer_block_micros;
  if (blocks) blocks->inc();
  const std::int64_t t0 = micros ? obs::monotonic_ns() : 0;
  bool ok = false;

  const int spins = spin_iterations();
  for (int i = 0; i < spins; ++i) {
    if (ready()) {
      ok = true;
      break;
    }
    if ((i & 63) == 0 && aborted()) break;
    cpu_relax();
  }
  if (!ok) {
    for (int i = 0; i < kYieldIterations && !aborted(); ++i) {
      std::this_thread::yield();
      if (ready()) {
        ok = true;
        break;
      }
    }
  }

  if (!ok && !aborted()) {
    // Park. Only this phase is a "block" in the flight recorder's sense:
    // the thread genuinely left the CPU waiting on the peer.
    const std::int32_t aux = producer ? 1 : 0;
    const std::int64_t seq = producer ? send_seq_ : recv_seq_;
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kBlockBegin, flight->actor,
                               edge_, seq, flight->iteration, aux);
    // Register, then re-check (ready() loads the peer's index seq_cst):
    // either the re-check sees the peer's new index, or the peer's read
    // of waiters_ in wake_peer sees this registration and wakes us.
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    if (!ready() && !aborted()) {
      std::unique_lock lock(park_mutex_);
      const auto woken = [&] { return ready() || aborted(); };
      if (deadline)
        park_cv_.wait_until(lock, *deadline, woken);
      else
        park_cv_.wait(lock, woken);
    }
    waiters_.fetch_sub(1, std::memory_order_release);
    ok = ready();
    if (flight && flight->recorder)
      flight->recorder->record(flight->proc, obs::FlightEventKind::kBlockEnd, flight->actor,
                               edge_, seq, flight->iteration, aux);
  }

  if (micros) micros->inc((obs::monotonic_ns() - t0) / 1000);
  return ok || ready();
}

void SpscChannel::wake_peer() noexcept {
  // Eventcount handshake, signal side: the index store above and this
  // load are seq_cst, like the waiter's registration RMW and re-check,
  // so the single total order over the four rules out both sides missing
  // each other — either the waiter's re-check sees the new index, or
  // this load sees the waiter and takes the (cold) lock to wake it. No
  // standalone fence, which ThreadSanitizer cannot model; on x86 the
  // seq_cst store costs what the release store plus fence did.
  if (waiters_.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
}

std::span<std::uint8_t> SpscChannel::acquire(const ChannelFlightCtx* flight) {
  if (tail_local_ - head_cache_ >= capacity_) {
    head_cache_ = head_.load(std::memory_order_acquire);
    if (tail_local_ - head_cache_ >= capacity_) {
      const bool ok = wait(
          Side::kProducer,
          [&]() noexcept {
            head_cache_ = head_.load(std::memory_order_seq_cst);
            return tail_local_ - head_cache_ < capacity_;
          },
          flight);
      if (!ok) throw ChannelInterrupted{};
    }
  }
  return {slab_.data() + tail_idx_ * frame_bound_, frame_bound_};
}

bool SpscChannel::try_acquire(std::span<std::uint8_t>& slot) noexcept {
  if (tail_local_ - head_cache_ >= capacity_) {
    head_cache_ = head_.load(std::memory_order_acquire);
    if (tail_local_ - head_cache_ >= capacity_) return false;
  }
  slot = {slab_.data() + tail_idx_ * frame_bound_, frame_bound_};
  return true;
}

void SpscChannel::publish(std::size_t frame_bytes, const ChannelFlightCtx* flight) {
  if (frame_bytes > frame_bound_)
    throw std::length_error("SpscChannel: published frame exceeds the slab's frame bound");
  sizes_[tail_idx_] = static_cast<std::uint32_t>(frame_bytes);
  if (++tail_idx_ == capacity_) tail_idx_ = 0;
  ++tail_local_;
  // Occupancy watermark from the producer's (conservative) view of the
  // consumer: head_cache_ only lags head_, so this depth can only
  // over-estimate — the watermark never under-reports pressure. The
  // shared store happens at most `capacity_` times over the channel's
  // lifetime.
  const std::uint64_t depth = tail_local_ - head_cache_;
  if (depth > watermark_local_) {
    watermark_local_ = depth;
    high_watermark_.store(depth, std::memory_order_relaxed);
  }
  tail_.store(tail_local_, std::memory_order_seq_cst);
  wake_peer();
  if (flight && flight->recorder) {
    // The token is now visible to the receiver: this is the causal send
    // edge the analyzer matches a consumer's wait against.
    flight->recorder->record(flight->proc, obs::FlightEventKind::kSend, flight->actor, edge_,
                             send_seq_, flight->iteration, /*aux=*/0);
  }
  ++send_seq_;
}

void SpscChannel::push(std::span<const std::uint8_t> token, const ChannelFlightCtx* flight) {
  const std::span<std::uint8_t> slot = acquire(flight);
  if (token.size() > frame_bound_)
    throw std::length_error("SpscChannel: token exceeds the slab's frame bound");
  if (!token.empty()) std::memcpy(slot.data(), token.data(), token.size());
  publish(token.size(), flight);
}

bool SpscChannel::await_token(const ChannelFlightCtx* flight, const Deadline* deadline) {
  if (head_local_ != tail_cache_) return true;
  tail_cache_ = tail_.load(std::memory_order_acquire);
  if (head_local_ != tail_cache_) return true;
  return wait(
      Side::kConsumer,
      [&]() noexcept {
        tail_cache_ = tail_.load(std::memory_order_seq_cst);
        return head_local_ != tail_cache_;
      },
      flight, deadline);
}

std::span<const std::uint8_t> SpscChannel::front(const ChannelFlightCtx* flight) {
  if (!await_token(flight, nullptr)) throw ChannelInterrupted{};
  return {slab_.data() + head_idx_ * frame_bound_, sizes_[head_idx_]};
}

bool SpscChannel::front_until(Deadline deadline, std::span<const std::uint8_t>& token,
                              const ChannelFlightCtx* flight) {
  if (!await_token(flight, &deadline)) {
    if (aborted()) throw ChannelInterrupted{};
    return false;
  }
  token = {slab_.data() + head_idx_ * frame_bound_, sizes_[head_idx_]};
  return true;
}

bool SpscChannel::try_front(std::span<const std::uint8_t>& token) noexcept {
  if (head_local_ == tail_cache_) {
    tail_cache_ = tail_.load(std::memory_order_acquire);
    if (head_local_ == tail_cache_) return false;
  }
  token = {slab_.data() + head_idx_ * frame_bound_, sizes_[head_idx_]};
  return true;
}

void SpscChannel::pop(const ChannelFlightCtx* flight) {
  if (flight && flight->recorder)
    flight->recorder->record(flight->proc, obs::FlightEventKind::kReceive, flight->actor, edge_,
                             recv_seq_, flight->iteration, /*aux=*/0);
  ++recv_seq_;
  if (++head_idx_ == capacity_) head_idx_ = 0;
  ++head_local_;
  head_.store(head_local_, std::memory_order_seq_cst);
  wake_peer();
}

void SpscChannel::pop_into(Bytes& out, const ChannelFlightCtx* flight) {
  const std::span<const std::uint8_t> token = front(flight);
  out.assign(token.begin(), token.end());
  pop(flight);
}

void SpscChannel::interrupt() {
  std::lock_guard lock(park_mutex_);
  park_cv_.notify_all();
}

}  // namespace spi::core
