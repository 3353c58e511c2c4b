#include "core/message.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace spi::core {

namespace {

constexpr std::uint8_t kDelimiter = 0x7E;
constexpr std::uint8_t kEscape = 0x7D;
constexpr std::uint8_t kEscapeXor = 0x20;

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t offset) {
  if (offset + 4 > in.size()) throw std::runtime_error("SPI message: truncated header");
  return static_cast<std::uint32_t>(in[offset]) |
         (static_cast<std::uint32_t>(in[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(in[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(in[offset + 3]) << 24);
}

}  // namespace

Bytes encode_static(df::EdgeId edge, std::span<const std::uint8_t> payload) {
  if (edge < 0) throw std::invalid_argument("encode_static: invalid edge id");
  Bytes wire;
  wire.reserve(kStaticHeaderBytes + payload.size());
  put_u32(wire, static_cast<std::uint32_t>(edge));
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

Message decode_static(std::span<const std::uint8_t> wire, std::int64_t expected_payload) {
  Message m;
  m.edge = static_cast<df::EdgeId>(get_u32(wire, 0));
  const std::size_t payload_size = wire.size() - static_cast<std::size_t>(kStaticHeaderBytes);
  if (payload_size != static_cast<std::size_t>(expected_payload))
    throw std::runtime_error("decode_static: payload length mismatch (framing error)");
  m.payload.assign(wire.begin() + kStaticHeaderBytes, wire.end());
  return m;
}

Bytes encode_dynamic(df::EdgeId edge, std::span<const std::uint8_t> payload) {
  if (edge < 0) throw std::invalid_argument("encode_dynamic: invalid edge id");
  Bytes wire;
  wire.reserve(kDynamicHeaderBytes + payload.size());
  put_u32(wire, static_cast<std::uint32_t>(edge));
  put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

Message decode_dynamic(std::span<const std::uint8_t> wire) {
  Message m;
  m.edge = static_cast<df::EdgeId>(get_u32(wire, 0));
  const std::uint32_t size = get_u32(wire, 4);
  if (wire.size() != static_cast<std::size_t>(kDynamicHeaderBytes) + size)
    throw std::runtime_error("decode_dynamic: size header disagrees with wire length");
  m.payload.assign(wire.begin() + kDynamicHeaderBytes, wire.end());
  return m;
}

Bytes encode_delimited(df::EdgeId edge, std::span<const std::uint8_t> payload) {
  if (edge < 0) throw std::invalid_argument("encode_delimited: invalid edge id");
  Bytes wire;
  wire.reserve(kStaticHeaderBytes + payload.size() + 1);
  put_u32(wire, static_cast<std::uint32_t>(edge));
  for (std::uint8_t b : payload) {
    if (b == kDelimiter || b == kEscape) {
      wire.push_back(kEscape);
      wire.push_back(b ^ kEscapeXor);
    } else {
      wire.push_back(b);
    }
  }
  wire.push_back(kDelimiter);
  return wire;
}

Message decode_delimited(std::span<const std::uint8_t> wire, std::int64_t* scan_cost) {
  Message m;
  m.edge = static_cast<df::EdgeId>(get_u32(wire, 0));
  std::int64_t scanned = 0;
  bool escaped = false;
  bool terminated = false;
  for (std::size_t i = kStaticHeaderBytes; i < wire.size(); ++i) {
    ++scanned;  // the receiver must inspect every byte to find the frame end
    const std::uint8_t b = wire[i];
    if (escaped) {
      m.payload.push_back(b ^ kEscapeXor);
      escaped = false;
    } else if (b == kEscape) {
      escaped = true;
    } else if (b == kDelimiter) {
      terminated = true;
      if (i + 1 != wire.size())
        throw std::runtime_error("decode_delimited: trailing bytes after delimiter");
      break;
    } else {
      m.payload.push_back(b);
    }
  }
  if (!terminated || escaped)
    throw std::runtime_error("decode_delimited: unterminated frame");
  if (scan_cost) *scan_cost = scanned;
  return m;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  // Table computed once (IEEE 802.3 reflected polynomial 0xEDB88320).
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (std::uint8_t b : data) crc = table[(crc ^ b) & 0xFFU] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFU;
}

Bytes encode_checked(df::EdgeId edge, std::span<const std::uint8_t> payload) {
  Bytes wire = encode_dynamic(edge, payload);
  put_u32(wire, crc32(payload));
  return wire;
}

Message decode_checked(std::span<const std::uint8_t> wire) {
  if (wire.size() < static_cast<std::size_t>(kCheckedHeaderBytes))
    throw std::runtime_error("decode_checked: truncated frame");
  const std::uint32_t stored = get_u32(wire, wire.size() - 4);
  Message m = decode_dynamic(wire.first(wire.size() - 4));
  if (crc32(m.payload) != stored)
    throw std::runtime_error("decode_checked: CRC mismatch (payload corrupted)");
  return m;
}

}  // namespace spi::core
