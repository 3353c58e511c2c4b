/// \file huffman.hpp
/// Canonical Huffman entropy coding (actor E of the paper's speech
/// application Huffman-codes the quantized prediction error).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace spi::dsp {

/// MSB-first bit stream.
class BitWriter {
 public:
  /// Appends the low `count` (<= 32) bits of `value` MSB-first.
  void put_bits(std::uint32_t value, int count);
  /// Scalar reference for put_bits: one bit per pass, byte-identical.
  void put_bits_reference(std::uint32_t value, int count);

  /// Appends the low `count` bits of `value` MSB-first, up to 64 at a
  /// time. Produces the byte-identical stream of the equivalent put_bits
  /// sequence; this is the word-at-a-time path HuffmanCode::encode packs
  /// whole codeword runs through.
  void put_bits64(std::uint64_t value, int count);
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] std::size_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

class BitReader {
 public:
  BitReader(std::span<const std::uint8_t> bytes, std::size_t bit_count)
      : bytes_(bytes), bit_count_(bit_count) {}

  [[nodiscard]] int next_bit();
  [[nodiscard]] std::size_t bits_remaining() const { return bit_count_ - position_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t bit_count_;
  std::size_t position_ = 0;
};

/// A canonical Huffman code over a fixed 0-based alphabet. Symbols with
/// zero frequency get no codeword and must not be encoded.
class HuffmanCode {
 public:
  /// Builds an optimal prefix code from symbol frequencies.
  [[nodiscard]] static HuffmanCode from_frequencies(std::span<const std::uint64_t> freq);

  /// Rebuilds the (canonical) code from its code lengths — this is what a
  /// decoder reconstructs from a transmitted header.
  [[nodiscard]] static HuffmanCode from_lengths(std::span<const std::uint8_t> lengths);

  [[nodiscard]] std::span<const std::uint8_t> lengths() const { return lengths_; }
  [[nodiscard]] std::size_t alphabet_size() const { return lengths_.size(); }

  /// Encodes a symbol sequence; throws std::invalid_argument for symbols
  /// without a codeword.
  void encode(std::span<const std::size_t> symbols, BitWriter& out) const;
  /// Scalar reference for encode(): one put_bits_reference call per
  /// symbol, byte-identical.
  void encode_reference(std::span<const std::size_t> symbols, BitWriter& out) const;

  /// Decodes exactly `count` symbols.
  [[nodiscard]] std::vector<std::size_t> decode(BitReader& in, std::size_t count) const;

  /// Total bits to encode the given frequency profile with this code.
  [[nodiscard]] std::uint64_t total_bits(std::span<const std::uint64_t> freq) const;

 private:
  std::vector<std::uint8_t> lengths_;           // per symbol; 0 = absent
  std::vector<std::uint32_t> codes_;            // canonical codewords
  // Canonical decode tables indexed by code length (1-based).
  std::vector<std::uint32_t> first_code_;       // smallest code of each length
  std::vector<std::uint32_t> first_index_;      // index into sorted_symbols_
  std::vector<std::uint32_t> count_;            // codes of each length
  std::vector<std::uint32_t> sorted_symbols_;   // symbols sorted by (length, symbol)

  void build_canonical();
};

/// Shannon entropy in bits/symbol of a frequency profile (lower bound the
/// Huffman optimality test compares against).
[[nodiscard]] double entropy_bits(std::span<const std::uint64_t> freq);

}  // namespace spi::dsp
