#include "serve/request.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>

namespace spi::serve {

namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

std::size_t skip_space(std::string_view body, std::size_t p) {
  while (p < body.size() && is_space(body[p])) ++p;
  return p;
}

/// Position just past `"key":` (skipping whitespace), or npos.
std::size_t value_start(std::string_view body, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\"";
  std::size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string_view::npos) {
    const std::size_t p = skip_space(body, pos + needle.size());
    if (p < body.size() && body[p] == ':') return skip_space(body, p + 1);
    pos += needle.size();  // a string value that merely contains the key
  }
  return std::string_view::npos;
}

/// Exact doubles 10^0 .. 10^22: the powers of ten a double holds without
/// rounding.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                  1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                  1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/// Parses the JSON number at `cursor` (request.hpp's grammar) and moves
/// `cursor` past it; std::nullopt leaves it unspecified.
std::optional<double> parse_number(const char*& cursor, const char* end) {
  // One pass checks what JSON allows — a number starts with a digit,
  // after an optional '-'; a leading 0 is the whole integer part; a '.'
  // and an exponent each need a digit after them — and gathers the
  // decimal digits as mantissa * 10^exp10. from_chars alone would also
  // take inf, nan, a leading '.', leading zeros (007) and 1. or 1.e5.
  const auto is_digit = [end](const char* p) { return p < end && *p >= '0' && *p <= '9'; };
  const char* p = cursor < end && *cursor == '-' ? cursor + 1 : cursor;
  if (!is_digit(p) || (*p == '0' && is_digit(p + 1))) return std::nullopt;
  std::uint64_t mantissa = 0;  // wraps past 19 digits, when it goes unused
  const auto take = [&](const char* digit) {
    for (; is_digit(digit); ++digit)
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(*digit - '0');
    return digit;
  };
  // A 0 integer part (always alone) and the zeros after its '.' are not
  // significant.
  const bool zero_integral = *p == '0';
  const char* integral = p;
  p = take(p);
  std::ptrdiff_t significant = zero_integral ? 0 : p - integral;
  std::int64_t exp10 = 0;
  if (p < end && *p == '.') {
    const char* fraction = ++p;
    if (zero_integral)
      while (p < end && *p == '0') ++p;
    const char* first_significant = p;
    p = take(p);
    if (p == fraction) return std::nullopt;
    significant += p - first_significant;
    exp10 = fraction - p;
  }
  bool huge_exponent = false;
  if (p < end && (*p == 'e' || *p == 'E')) {
    const bool negative = ++p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-')) ++p;
    if (!is_digit(p)) return std::nullopt;
    std::int64_t exponent = 0;
    for (; is_digit(p); ++p) {
      if (exponent < 100000)
        exponent = exponent * 10 + (*p - '0');
      else
        huge_exponent = true;
    }
    exp10 += negative ? -exponent : exponent;
  }
  // A value cut by the view's end has no delimiter, and a hex float
  // stops at its 'x': either way the number is not what the sender wrote.
  if (p == end || !(is_space(*p) || *p == ',' || *p == '}' || *p == ']')) return std::nullopt;
  double value = 0.0;
  if (!huge_exponent && significant <= 19 && mantissa <= (std::uint64_t{1} << 53) &&
      exp10 >= -22 && exp10 <= 22) {
    // Both operands are exact doubles, so the one IEEE operation rounds
    // the exact value once: the correctly rounded double from_chars
    // returns too.
    value = static_cast<double>(mantissa);
    value = exp10 < 0 ? value / kExactPow10[-exp10] : value * kExactPow10[exp10];
    if (*cursor == '-') value = -value;
  } else {
    const auto [next, ec] = std::from_chars(cursor, p, value);
    if (ec != std::errc{} || next != p) return std::nullopt;  // includes out of range
  }
  cursor = p;
  return value;
}

/// "00" .. "99": two digits per lookup.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[static_cast<std::size_t>(2 * i)] = static_cast<char>('0' + i / 10);
    pairs[static_cast<std::size_t>(2 * i + 1)] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// 5^0 .. 5^23.
constexpr auto kPow5 = [] {
  std::array<std::uint64_t, 24> pow5{};
  pow5[0] = 1;
  for (std::size_t i = 1; i < pow5.size(); ++i) pow5[i] = pow5[i - 1] * 5;
  return pow5;
}();

constexpr std::uint64_t kPow10_16 = 10'000'000'000'000'000;
constexpr std::uint64_t kPow10_17 = 100'000'000'000'000'000;

/// Writes "%.17g" of `v` into `out` when |v| is finite and in [1e-6,
/// 2^53), returning the end; nullptr for every other v. The value is
/// exact: |v| = m * 2^-k with k in [0, 72], so |v| * 10^(16 - E) =
/// m * 5^(16 - E) / 2^(k - 16 + E) with 5^(16 - E) <= 5^23, below 2^107.
char* write_percent_17g(char* out, double v) {
  const double magnitude = std::fabs(v);
  if (!(magnitude >= 1e-6 && magnitude < 0x1p53)) return nullptr;
  const auto bits = std::bit_cast<std::uint64_t>(magnitude);
  // |v| >= 1e-6 is normal: its mantissa has the implicit leading 1.
  const int biased = static_cast<int>(bits >> 52);
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  const int k = 1075 - biased;
  // E, the decade of |v|, is floor(log10(2^(biased - 1023))) or one more.
  int decade = ((biased - 1023) * 78913) >> 18;
  // The 17 leading digits, floored, with the exact remainder beyond them.
  unsigned __int128 digits = 0;
  unsigned __int128 rest = 0;
  int shift = 0;
  for (;;) {
    const unsigned __int128 scaled =
        static_cast<unsigned __int128>(m) * kPow5[static_cast<std::size_t>(16 - decade)];
    shift = k - 16 + decade;
    digits = shift > 0 ? scaled >> shift : scaled << -shift;
    rest = shift > 0 ? scaled & ((static_cast<unsigned __int128>(1) << shift) - 1) : 0;
    if (digits < kPow10_17) break;
    ++decade;
  }
  // Round half to even on the exact remainder; 99...9.5 carries into the
  // next decade.
  if (shift > 0) {
    const unsigned __int128 half = static_cast<unsigned __int128>(1) << (shift - 1);
    if (rest > half || (rest == half && (digits & 1) != 0)) ++digits;
  }
  auto q = static_cast<std::uint64_t>(digits);
  if (q == kPow10_17) {
    q = kPow10_16;
    ++decade;
  }
  char d[17];
  for (int i = 15; i >= 1; i -= 2) {
    std::memcpy(d + i, &kDigitPairs[2 * (q % 100)], 2);
    q /= 100;
  }
  d[0] = static_cast<char>('0' + q);
  int count = 17;  // without the trailing zeros %g strips
  while (d[count - 1] == '0') --count;

  if (v < 0) *out++ = '-';
  if (decade < -4) {  // %e: d[.ddd]e-XX, E in [-7, -5]
    *out++ = d[0];
    if (count > 1) {
      *out++ = '.';
      out = std::copy(d + 1, d + count, out);
    }
    *out++ = 'e';
    *out++ = '-';
    std::memcpy(out, &kDigitPairs[static_cast<std::size_t>(2 * -decade)], 2);
    return out + 2;
  }
  if (decade < 0) {  // %f below 1: 0.0..0ddd
    *out++ = '0';
    *out++ = '.';
    out = std::fill_n(out, -decade - 1, '0');
    return std::copy(d, d + count, out);
  }
  out = std::copy(d, d + decade + 1, out);  // %f: E + 1 integer digits
  if (count <= decade + 1) return out;
  *out++ = '.';
  return std::copy(d + decade + 1, d + count, out);
}

}  // namespace

bool json_has_field(std::string_view body, std::string_view key) {
  return value_start(body, key) != std::string_view::npos;
}

std::optional<std::string> json_string_field(std::string_view body, std::string_view key) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos || p >= body.size() || body[p] != '"') return std::nullopt;
  const std::size_t end = body.find('"', p + 1);
  if (end == std::string_view::npos) return std::nullopt;
  const std::string_view value = body.substr(p + 1, end - p - 1);
  if (value.find('\\') != std::string_view::npos) return std::nullopt;  // escapes unsupported
  return std::string(value);
}

std::optional<std::vector<double>> json_array_field(std::string_view body, std::string_view key) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos || p >= body.size() || body[p] != '[') return std::nullopt;
  std::vector<double> values;
  std::size_t at = skip_space(body, p + 1);
  if (at < body.size() && body[at] == ']') return values;
  // Elements are separated by exactly one ',': no leading, doubled or
  // trailing comma, and no bare whitespace between two numbers.
  for (;;) {
    const char* cursor = body.data() + at;
    const auto value = parse_number(cursor, body.data() + body.size());
    if (!value) return std::nullopt;
    values.push_back(*value);
    at = skip_space(body, static_cast<std::size_t>(cursor - body.data()));
    if (at >= body.size()) return std::nullopt;
    if (body[at] == ']') return values;
    if (body[at] != ',') return std::nullopt;
    at = skip_space(body, at + 1);
  }
}

std::optional<std::uint64_t> json_integer_field(std::string_view body, std::string_view key,
                                                std::uint64_t lo, std::uint64_t hi,
                                                std::uint64_t fallback) {
  const std::size_t p = value_start(body, key);
  if (p == std::string_view::npos) return fallback;
  const char* cursor = body.data() + p;
  const auto value = parse_number(cursor, body.data() + body.size());
  // Checked before the cast: converting a negative, non-finite or
  // >= 2^64 double to an integer is undefined behaviour.
  if (!value || !(*value >= 0.0 && *value < 0x1p64) || std::trunc(*value) != *value)
    return std::nullopt;
  const auto n = static_cast<std::uint64_t>(*value);
  if (n < lo || n > hi) return std::nullopt;
  return n;
}

void append_json_number(std::string& out, double v) {
  char buf[32];  // "%.17g" needs at most 24 bytes ("-2.2250738585072014e-308")
  char* last = write_percent_17g(buf, v);
  if (last == nullptr)
    last = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr;
  out.append(buf, last);
}

}  // namespace spi::serve
