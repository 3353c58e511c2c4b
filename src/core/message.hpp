/// \file message.hpp
/// SPI message wire formats (paper Sections 3 and 5.1).
///
/// SPI exploits compile-time knowledge to shrink message envelopes:
///  * SPI_static  — header carries only the interprocessor edge ID; the
///    payload length and datatype are compile-time constants of the edge.
///  * SPI_dynamic — header additionally carries the message size, because
///    VTS packed tokens vary in length at run time. The paper argues a
///    size field beats a delimiter on FPGAs (the receiver would otherwise
///    scan the payload); both transports are implemented here so the
///    ablation bench can quantify that argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataflow/graph.hpp"

namespace spi::core {

using Bytes = std::vector<std::uint8_t>;

/// Header sizes on the wire.
inline constexpr std::int64_t kStaticHeaderBytes = 4;   // edge id
inline constexpr std::int64_t kDynamicHeaderBytes = 8;  // edge id + size

/// A decoded SPI message.
struct Message {
  df::EdgeId edge = df::kInvalidEdge;
  Bytes payload;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Encodes a static-mode message: [edge:u32le][payload]. The receiver
/// knows the payload length from the edge's compile-time token size.
[[nodiscard]] Bytes encode_static(df::EdgeId edge, std::span<const std::uint8_t> payload);

/// Decodes a static-mode message; `expected_payload` is the compile-time
/// length (throws std::runtime_error on mismatch — a framing error).
[[nodiscard]] Message decode_static(std::span<const std::uint8_t> wire,
                                    std::int64_t expected_payload);

/// Encodes a dynamic-mode message: [edge:u32le][size:u32le][payload].
[[nodiscard]] Bytes encode_dynamic(df::EdgeId edge, std::span<const std::uint8_t> payload);

/// Decodes a dynamic-mode message using the size header.
[[nodiscard]] Message decode_dynamic(std::span<const std::uint8_t> wire);

/// Delimiter-framed transport (the alternative the paper rejects for
/// FPGA targets): [edge:u32le][stuffed payload][0x7E]. Byte-stuffing is
/// HDLC-style (escape 0x7D, XOR 0x20), so the payload may expand and the
/// receiver must scan every byte. Provided for the VTS transport
/// ablation.
[[nodiscard]] Bytes encode_delimited(df::EdgeId edge, std::span<const std::uint8_t> payload);

/// Decodes a delimiter-framed message; `scan_cost` (optional out) counts
/// the bytes the receiver had to examine — the FPGA cost the paper cites.
[[nodiscard]] Message decode_delimited(std::span<const std::uint8_t> wire,
                                       std::int64_t* scan_cost = nullptr);

/// --- optional payload-integrity extension ---------------------------------
/// The paper's protocols "use acknowledgments to ensure consistency of
/// data" — delivery consistency. For links that can corrupt payloads, a
/// checked variant of the dynamic format appends a CRC-32 so corruption
/// is detected rather than silently consumed:
/// [edge:u32le][size:u32le][payload][crc32:u32le].
inline constexpr std::int64_t kCheckedHeaderBytes = 12;  // dynamic header + trailer

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

[[nodiscard]] Bytes encode_checked(df::EdgeId edge, std::span<const std::uint8_t> payload);

/// Decodes a checked message; throws std::runtime_error when the CRC
/// disagrees (corruption detected).
[[nodiscard]] Message decode_checked(std::span<const std::uint8_t> wire);

}  // namespace spi::core
