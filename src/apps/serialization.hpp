/// \file serialization.hpp
/// Token (de)serialization helpers for the application actors: dataflow
/// tokens are raw bytes on SPI channels; the applications move doubles
/// through them. Every helper works in place: packing writes into a
/// caller's token (typically FiringContext::emit, whose recycled buffer
/// already has the capacity) and unpacking reads a token span into a
/// caller's scratch, so a warm firing allocates nothing.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/message.hpp"

namespace spi::apps {

using core::Bytes;

/// Overwrites `out` with `values` (native byte order), reusing its
/// capacity.
inline void pack_f64_into(Bytes& out, std::span<const double> values) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(values.data());
  out.assign(raw, raw + values.size_bytes());
}

/// One-value form of pack_f64_into.
inline void pack_f64_into(Bytes& out, double value) {
  pack_f64_into(out, std::span<const double>(&value, 1));
}

/// How many doubles a token carries; throws std::invalid_argument when
/// its size is not a whole number of doubles.
[[nodiscard]] inline std::size_t f64_count(std::span<const std::uint8_t> bytes) {
  if (bytes.size() % sizeof(double) != 0)
    throw std::invalid_argument("f64_count: byte count not a multiple of 8");
  return bytes.size() / sizeof(double);
}

/// Copies a token's doubles into `out` (resized to fit; a warm scratch
/// vector keeps its capacity).
inline void unpack_f64_into(std::span<const std::uint8_t> bytes, std::vector<double>& out) {
  out.resize(f64_count(bytes));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
}

/// The `index`-th double of a token; throws std::out_of_range past its
/// end.
[[nodiscard]] inline double f64_at(std::span<const std::uint8_t> bytes, std::size_t index) {
  if (index >= f64_count(bytes)) throw std::out_of_range("f64_at: index past the token");
  double v;
  std::memcpy(&v, bytes.data() + index * sizeof(double), sizeof(double));
  return v;
}

}  // namespace spi::apps
