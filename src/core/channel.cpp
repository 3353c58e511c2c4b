#include "core/channel.hpp"

#include <stdexcept>

namespace spi::core {

SpiChannel::SpiChannel(ChannelConfig config) : config_(config) {
  if (config_.edge < 0) throw std::invalid_argument("SpiChannel: invalid edge id");
  if (config_.payload_bound_bytes <= 0)
    throw std::invalid_argument("SpiChannel: payload bound must be positive");
  if (config_.protocol == sched::SyncProtocol::kBbs && config_.capacity_messages <= 0)
    throw std::invalid_argument("SpiChannel: BBS channel requires a positive static capacity");
}

void SpiChannel::send(std::span<const std::uint8_t> payload) {
  const auto size = static_cast<std::int64_t>(payload.size());
  if (config_.mode == SpiMode::kStatic) {
    if (size != config_.payload_bound_bytes)
      throw std::invalid_argument(
          "SpiChannel: static channel payload must equal the compile-time size");
  } else if (size > config_.payload_bound_bytes) {
    throw std::length_error("SpiChannel: packed token exceeds b_max");
  }
  if (config_.protocol == sched::SyncProtocol::kBbs &&
      occupancy() + 1 > config_.capacity_messages) {
    throw std::runtime_error(
        "SpiChannel: BBS capacity exceeded — equation 2 bound violated (analysis bug)");
  }
  const std::size_t header = config_.mode == SpiMode::kStatic
                                 ? static_cast<std::size_t>(kStaticHeaderBytes)
                                 : static_cast<std::size_t>(kDynamicHeaderBytes);
  Bytes wire = take_buffer(header + payload.size());
  if (config_.mode == SpiMode::kStatic)
    encode_static_into(config_.edge, payload, {wire.data(), wire.size()});
  else
    encode_dynamic_into(config_.edge, payload, {wire.data(), wire.size()});
  stats_.wire_bytes += static_cast<std::int64_t>(wire.size());
  stats_.payload_bytes += size;
  stats_.messages += 1;
  queue_.push_back(std::move(wire));
  stats_.max_occupancy = std::max(stats_.max_occupancy, occupancy());
}

std::optional<Bytes> SpiChannel::receive() {
  if (queue_.empty()) return std::nullopt;
  Bytes wire = std::move(queue_.front());
  queue_.pop_front();
  Message m = config_.mode == SpiMode::kStatic
                  ? decode_static(wire, config_.payload_bound_bytes)
                  : decode_dynamic(wire);
  recycle(std::move(wire));
  if (m.edge != config_.edge)
    throw std::runtime_error("SpiChannel: edge-id header mismatch (routing error)");
  if (config_.protocol == sched::SyncProtocol::kUbs && !config_.ack_elided) stats_.acks += 1;
  return std::move(m.payload);
}

Bytes SpiChannel::take_buffer(std::size_t size) {
  Bytes wire;
  if (!freelist_.empty()) {
    wire = std::move(freelist_.back());
    freelist_.pop_back();
  } else {
    wire.reserve(size);
  }
  wire.resize(size);
  return wire;
}

void SpiChannel::recycle(Bytes&& buffer) {
  // A small cap bounds idle memory; under it the send/receive cycle of a
  // warmed-up channel never touches the allocator.
  constexpr std::size_t kMaxFreeBuffers = 16;
  if (freelist_.size() < kMaxFreeBuffers) freelist_.push_back(std::move(buffer));
}

}  // namespace spi::core
