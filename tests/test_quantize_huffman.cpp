#include <gtest/gtest.h>

#include "dsp/huffman.hpp"
#include "dsp/quantize.hpp"
#include "dsp/rng.hpp"

namespace spi::dsp {
namespace {

TEST(Quantizer, RoundTripWithinHalfStep) {
  const UniformQuantizer q(0.1, 100);
  for (double x : {-3.14, -0.05, 0.0, 0.049, 2.718}) {
    const double rec = q.dequantize(q.quantize(x));
    EXPECT_NEAR(rec, x, 0.05 + 1e-12);
  }
}

TEST(Quantizer, ClipsAtRange) {
  const UniformQuantizer q(0.1, 10);
  EXPECT_EQ(q.quantize(5.0), 10);
  EXPECT_EQ(q.quantize(-99.0), -10);
}

TEST(Quantizer, IndexMappingBijective) {
  const UniformQuantizer q(0.5, 7);
  EXPECT_EQ(q.alphabet_size(), 15u);
  for (std::int32_t s = -7; s <= 7; ++s) {
    const std::size_t idx = q.index_of(s);
    EXPECT_LT(idx, q.alphabet_size());
    EXPECT_EQ(q.symbol_of(idx), s);
  }
}

TEST(Quantizer, VectorRoundTrip) {
  const UniformQuantizer q(0.01, 1000);
  const std::vector<double> x{0.123, -0.456, 0.789};
  const auto symbols = q.quantize(x);
  const auto rec = q.dequantize(symbols);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(rec[i], x[i], 0.005 + 1e-12);
}

TEST(Quantizer, Validation) {
  EXPECT_THROW(UniformQuantizer(0.0, 10), std::invalid_argument);
  EXPECT_THROW(UniformQuantizer(0.1, 0), std::invalid_argument);
}

TEST(BitStream, WriteReadRoundTrip) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0b0, 1);
  w.put_bits(0xABCD, 16);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(r.next_bit(), 1);
  EXPECT_EQ(r.next_bit(), 0);
  EXPECT_EQ(r.next_bit(), 1);
  EXPECT_EQ(r.next_bit(), 0);
  std::uint32_t v = 0;
  for (int i = 0; i < 16; ++i) v = (v << 1) | static_cast<std::uint32_t>(r.next_bit());
  EXPECT_EQ(v, 0xABCD);
  EXPECT_EQ(r.bits_remaining(), 0u);
  EXPECT_THROW((void)r.next_bit(), std::out_of_range);
}

TEST(Huffman, RoundTripSkewedDistribution) {
  Rng rng(17);
  std::vector<std::uint64_t> freq{1000, 300, 90, 27, 8, 2, 1};
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::vector<std::size_t> symbols;
  for (std::size_t s = 0; s < freq.size(); ++s)
    for (std::uint64_t i = 0; i < freq[s]; ++i) symbols.push_back(s);
  // Shuffle deterministically.
  for (std::size_t i = symbols.size(); i > 1; --i)
    std::swap(symbols[i - 1], symbols[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

  BitWriter w;
  code.encode(symbols, w);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(code.decode(r, symbols.size()), symbols);
}

TEST(Huffman, WithinOneBitOfEntropy) {
  const std::vector<std::uint64_t> freq{500, 250, 125, 63, 31, 16, 8, 4, 2, 1};
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::uint64_t total = 0;
  for (auto f : freq) total += f;
  const double avg_bits =
      static_cast<double>(code.total_bits(freq)) / static_cast<double>(total);
  const double h = entropy_bits(freq);
  EXPECT_GE(avg_bits, h - 1e-9);       // cannot beat entropy
  EXPECT_LE(avg_bits, h + 1.0);        // Huffman's classic guarantee
}

TEST(Huffman, SkewedIsShorterThanFixed) {
  std::vector<std::uint64_t> freq(16, 1);
  freq[0] = 10000;
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::uint64_t total = 0;
  for (auto f : freq) total += f;
  EXPECT_LT(code.total_bits(freq), total * 4);  // beats 4-bit fixed coding
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint64_t> freq{0, 42, 0};
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  const std::vector<std::size_t> symbols(10, 1);
  BitWriter w;
  code.encode(symbols, w);
  EXPECT_EQ(w.bit_count(), 10u);  // one bit per symbol (degenerate code)
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(code.decode(r, 10), symbols);
}

TEST(Huffman, EmptyFrequenciesYieldEmptyCode) {
  const std::vector<std::uint64_t> freq(8, 0);
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  for (std::uint8_t len : code.lengths()) EXPECT_EQ(len, 0);
  EXPECT_THROW(
      {
        BitWriter w;
        code.encode(std::vector<std::size_t>{0}, w);
      },
      std::invalid_argument);
}

TEST(Huffman, CanonicalRebuildFromLengths) {
  const std::vector<std::uint64_t> freq{100, 50, 25, 12, 6, 3, 1};
  const HuffmanCode original = HuffmanCode::from_frequencies(freq);
  const HuffmanCode rebuilt = HuffmanCode::from_lengths(original.lengths());

  const std::vector<std::size_t> symbols{0, 3, 6, 2, 1, 5, 4, 0, 0, 2};
  BitWriter w1, w2;
  original.encode(symbols, w1);
  rebuilt.encode(symbols, w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());  // canonical codes are identical
  BitReader r(w2.bytes(), w2.bit_count());
  EXPECT_EQ(rebuilt.decode(r, symbols.size()), symbols);
}

TEST(Huffman, KraftViolationRejected) {
  // Three codewords of length 1 cannot exist.
  const std::vector<std::uint8_t> lengths{1, 1, 1};
  EXPECT_THROW(HuffmanCode::from_lengths(lengths), std::invalid_argument);
}

TEST(Huffman, InvalidBitstreamDetected) {
  const std::vector<std::uint64_t> freq{10, 5};
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  const std::vector<std::uint8_t> garbage{0xFF, 0xFF};
  BitReader r(garbage, 16);
  // Codes are 1 bit each here, so decoding succeeds; build a code where a
  // prefix can dangle instead.
  const HuffmanCode deep = HuffmanCode::from_frequencies(std::vector<std::uint64_t>{8, 4, 2, 1, 1});
  BitWriter w;
  deep.encode(std::vector<std::size_t>{4}, w);
  BitReader trunc(w.bytes(), w.bit_count() - 1);  // cut the last bit
  EXPECT_THROW((void)deep.decode(trunc, 1), std::out_of_range);
}

TEST(Huffman, TotalBitsValidation) {
  const std::vector<std::uint64_t> freq{10, 0};
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  EXPECT_THROW((void)code.total_bits(std::vector<std::uint64_t>{1}), std::invalid_argument);
  EXPECT_THROW((void)code.total_bits(std::vector<std::uint64_t>{1, 1}), std::invalid_argument);
}

TEST(Entropy, UniformAndDegenerate) {
  EXPECT_NEAR(entropy_bits(std::vector<std::uint64_t>{1, 1, 1, 1}), 2.0, 1e-12);
  EXPECT_NEAR(entropy_bits(std::vector<std::uint64_t>{7, 0, 0}), 0.0, 1e-12);
  EXPECT_NEAR(entropy_bits(std::vector<std::uint64_t>{}), 0.0, 1e-12);
}

class HuffmanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanProperty, RandomRoundTripsAndOptimality) {
  Rng rng(GetParam());
  const std::size_t alphabet = static_cast<std::size_t>(rng.uniform_int(2, 40));
  std::vector<std::uint64_t> freq(alphabet);
  for (auto& f : freq) f = static_cast<std::uint64_t>(rng.uniform_int(0, 200));
  freq[0] += 1;  // at least one symbol present
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);

  std::vector<std::size_t> symbols;
  for (std::size_t s = 0; s < alphabet; ++s)
    for (std::uint64_t i = 0; i < freq[s] % 17; ++i) symbols.push_back(s);
  BitWriter w;
  code.encode(symbols, w);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(code.decode(r, symbols.size()), symbols);

  std::uint64_t total = 0;
  for (auto f : freq) total += f;
  const double avg = static_cast<double>(code.total_bits(freq)) / static_cast<double>(total);
  EXPECT_LE(avg, entropy_bits(freq) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty, ::testing::Values(2, 4, 8, 16, 32, 64, 128));


// The word-at-a-time bit packer must produce the byte-identical stream
// of the equivalent bit-by-bit put_bits sequence, for codeword
// sequences and for raw put_bits64 calls at every alignment.
TEST(Huffman, VectorizedEncodeMatchesScalarByteExact) {
  Rng rng(47);
  const std::vector<std::uint64_t> freq{1000, 300, 90, 27, 8, 2, 1};
  const HuffmanCode code = HuffmanCode::from_frequencies(freq);
  std::vector<std::size_t> symbols(8192);
  for (auto& s : symbols)
    s = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(freq.size()) - 1));

  BitWriter scalar_out;
  code.encode_reference(symbols, scalar_out);
  BitWriter vectorized_out;
  code.encode(symbols, vectorized_out);
  EXPECT_EQ(vectorized_out.bit_count(), scalar_out.bit_count());
  EXPECT_EQ(vectorized_out.bytes(), scalar_out.bytes());

  BitReader r(vectorized_out.bytes(), vectorized_out.bit_count());
  EXPECT_EQ(code.decode(r, symbols.size()), symbols);
}

TEST(BitStream, PutBits64MatchesPutBitsStream) {
  Rng rng(53);
  std::vector<std::pair<std::uint32_t, int>> chunks;
  for (int i = 0; i < 500; ++i) {
    const int count = static_cast<int>(rng.uniform_int(1, 32));
    const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, (1LL << count) - 1));
    chunks.emplace_back(value, count);
  }

  BitWriter bitwise, wordwise;
  for (const auto& [value, count] : chunks) bitwise.put_bits_reference(value, count);
  for (const auto& [value, count] : chunks) wordwise.put_bits64(value, count);
  EXPECT_EQ(wordwise.bytes(), bitwise.bytes());
  EXPECT_EQ(wordwise.bit_count(), bitwise.bit_count());

  // The 64-bit packer enforces the same contract as put_bits.
  BitWriter w;
  EXPECT_THROW(w.put_bits64(0, -1), std::invalid_argument);
  EXPECT_THROW(w.put_bits64(0, 65), std::invalid_argument);
}
}  // namespace
}  // namespace spi::dsp
