#include "dsp/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace spi::dsp {

void BitWriter::put_bits(std::uint32_t value, int count) {
  if (count < 0 || count > 32) throw std::invalid_argument("BitWriter: bad bit count");
  put_bits64(value, count);
}

void BitWriter::put_bits_reference(std::uint32_t value, int count) {
  if (count < 0 || count > 32) throw std::invalid_argument("BitWriter: bad bit count");
  for (int i = count - 1; i >= 0; --i) {
    const int bit = static_cast<int>((value >> i) & 1U);
    const std::size_t byte_index = bit_count_ / 8;
    if (byte_index == bytes_.size()) bytes_.push_back(0);
    if (bit) bytes_[byte_index] |= static_cast<std::uint8_t>(0x80U >> (bit_count_ % 8));
    ++bit_count_;
  }
}

void BitWriter::put_bits64(std::uint64_t value, int count) {
  if (count < 0 || count > 64) throw std::invalid_argument("BitWriter: bad bit count");
  if (count == 0) return;
  if (count < 64) value &= (1ULL << count) - 1;
  std::size_t bit = bit_count_;
  bit_count_ += static_cast<std::size_t>(count);
  // Same sizing rule as the per-bit path: bytes() spans ceil(bit_count/8).
  bytes_.resize((bit_count_ + 7) / 8, 0);
  int remaining = count;
  while (remaining > 0) {
    const std::size_t byte_index = bit / 8;
    const int room = 8 - static_cast<int>(bit % 8);
    const int take = remaining < room ? remaining : room;
    const auto chunk = static_cast<unsigned>((value >> (remaining - take)) &
                                             ((1ULL << take) - 1));
    bytes_[byte_index] |= static_cast<std::uint8_t>(chunk << (room - take));
    bit += static_cast<std::size_t>(take);
    remaining -= take;
  }
}

int BitReader::next_bit() {
  if (position_ >= bit_count_) throw std::out_of_range("BitReader: past end of stream");
  const std::uint8_t byte = bytes_[position_ / 8];
  const int bit = (byte >> (7 - position_ % 8)) & 1;
  ++position_;
  return bit;
}

namespace {

/// Huffman code lengths from frequencies (priority-queue construction;
/// deterministic tie-break on node id so codes are reproducible).
std::vector<std::uint8_t> code_lengths(std::span<const std::uint64_t> freq) {
  struct Node {
    std::uint64_t weight;
    std::int32_t id;      // tie-break
    std::int32_t left = -1, right = -1;
    std::int32_t symbol = -1;
  };
  std::vector<Node> nodes;
  using Entry = std::pair<std::uint64_t, std::int32_t>;  // (weight, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;

  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] == 0) continue;
    nodes.push_back(Node{freq[s], static_cast<std::int32_t>(nodes.size()), -1, -1,
                         static_cast<std::int32_t>(s)});
    heap.emplace(freq[s], static_cast<std::int32_t>(nodes.size() - 1));
  }

  std::vector<std::uint8_t> lengths(freq.size(), 0);
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {  // degenerate: a single symbol still needs one bit
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lengths;
  }

  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{wa + wb, static_cast<std::int32_t>(nodes.size()), a, b, -1});
    heap.emplace(wa + wb, static_cast<std::int32_t>(nodes.size() - 1));
  }

  // Depth-first walk to record leaf depths.
  struct Frame {
    std::int32_t node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.symbol >= 0) {
      lengths[static_cast<std::size_t>(n.symbol)] = f.depth;
    } else {
      stack.push_back({n.left, static_cast<std::uint8_t>(f.depth + 1)});
      stack.push_back({n.right, static_cast<std::uint8_t>(f.depth + 1)});
    }
  }
  return lengths;
}

}  // namespace

HuffmanCode HuffmanCode::from_frequencies(std::span<const std::uint64_t> freq) {
  HuffmanCode code;
  code.lengths_ = code_lengths(freq);
  code.build_canonical();
  return code;
}

HuffmanCode HuffmanCode::from_lengths(std::span<const std::uint8_t> lengths) {
  HuffmanCode code;
  code.lengths_.assign(lengths.begin(), lengths.end());
  code.build_canonical();
  return code;
}

void HuffmanCode::build_canonical() {
  const std::uint8_t max_len =
      lengths_.empty() ? 0 : *std::max_element(lengths_.begin(), lengths_.end());
  codes_.assign(lengths_.size(), 0);
  count_.assign(static_cast<std::size_t>(max_len) + 1, 0);
  first_code_.assign(static_cast<std::size_t>(max_len) + 1, 0);
  first_index_.assign(static_cast<std::size_t>(max_len) + 1, 0);
  sorted_symbols_.clear();

  for (std::uint8_t len : lengths_)
    if (len > 0) ++count_[len];

  // Kraft check guards against corrupt length tables from a decoder.
  std::uint64_t kraft = 0;
  for (std::size_t len = 1; len <= max_len; ++len)
    kraft += static_cast<std::uint64_t>(count_[len]) << (max_len - len);
  if (max_len > 0 && kraft > (1ULL << max_len))
    throw std::invalid_argument("HuffmanCode: code lengths violate the Kraft inequality");

  // Canonical first codes per length.
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (std::size_t len = 1; len <= max_len; ++len) {
    code = (code + (len > 1 ? count_[len - 1] : 0)) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += count_[len];
  }

  // Symbols sorted by (length, symbol) receive consecutive codes.
  sorted_symbols_.reserve(index);
  std::vector<std::uint32_t> next = first_code_;
  std::vector<std::uint32_t> fill = first_index_;
  sorted_symbols_.resize(index);
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    const std::uint8_t len = lengths_[s];
    if (len == 0) continue;
    codes_[s] = next[len]++;
    sorted_symbols_[fill[len]++] = static_cast<std::uint32_t>(s);
  }
}

void HuffmanCode::encode_reference(std::span<const std::size_t> symbols, BitWriter& out) const {
  for (std::size_t s : symbols) {
    if (s >= lengths_.size() || lengths_[s] == 0)
      throw std::invalid_argument("HuffmanCode::encode: symbol has no codeword");
    out.put_bits_reference(codes_[s], lengths_[s]);
  }
}

void HuffmanCode::encode(std::span<const std::size_t> symbols, BitWriter& out) const {
  // Table-driven packing: shift each codeword (codes_/lengths_ lookup, no
  // per-bit branching) into a 64-bit accumulator and flush whole words.
  // Concatenating MSB-first codewords commutes with the split into
  // put_bits64 calls, so the byte stream is identical to the reference.
  std::uint64_t acc = 0;
  int nbits = 0;
  for (std::size_t s : symbols) {
    if (s >= lengths_.size() || lengths_[s] == 0)
      throw std::invalid_argument("HuffmanCode::encode: symbol has no codeword");
    const int len = lengths_[s];
    if (len > 32) throw std::invalid_argument("BitWriter: bad bit count");
    if (nbits + len > 64) {
      out.put_bits64(acc, nbits);
      acc = 0;
      nbits = 0;
    }
    acc = (acc << len) | codes_[s];
    nbits += len;
  }
  if (nbits > 0) out.put_bits64(acc, nbits);
}

std::vector<std::size_t> HuffmanCode::decode(BitReader& in, std::size_t count) const {
  const std::size_t max_len = count_.size() - 1;
  std::vector<std::size_t> symbols;
  symbols.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t code = 0;
    std::size_t len = 0;
    while (true) {
      code = (code << 1) | static_cast<std::uint32_t>(in.next_bit());
      ++len;
      if (len > max_len) throw std::runtime_error("HuffmanCode::decode: invalid bitstream");
      if (count_[len] != 0 && code - first_code_[len] < count_[len]) {
        symbols.push_back(sorted_symbols_[first_index_[len] + (code - first_code_[len])]);
        break;
      }
    }
  }
  return symbols;
}

std::uint64_t HuffmanCode::total_bits(std::span<const std::uint64_t> freq) const {
  if (freq.size() != lengths_.size())
    throw std::invalid_argument("HuffmanCode::total_bits: alphabet size mismatch");
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (freq[s] == 0) continue;
    if (lengths_[s] == 0)
      throw std::invalid_argument("HuffmanCode::total_bits: frequency on absent symbol");
    bits += freq[s] * lengths_[s];
  }
  return bits;
}

double entropy_bits(std::span<const std::uint64_t> freq) {
  std::uint64_t total = 0;
  for (std::uint64_t f : freq) total += f;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (std::uint64_t f : freq) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace spi::dsp
