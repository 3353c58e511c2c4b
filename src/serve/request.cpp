#include "serve/request.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

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

/// Parses the JSON number at `cursor` (request.hpp's grammar) and moves
/// `cursor` past it; std::nullopt leaves it unspecified.
std::optional<double> parse_number(const char*& cursor, const char* end) {
  // from_chars also takes inf, nan, a leading '.', leading zeros (007)
  // and a '.' with no digit after it (1., 1.e5), none of which JSON
  // allows: a number starts with a digit, after an optional '-', and a
  // leading 0 is the whole integer part.
  const auto is_digit = [end](const char* p) { return p < end && *p >= '0' && *p <= '9'; };
  const char* digit = cursor < end && *cursor == '-' ? cursor + 1 : cursor;
  if (!is_digit(digit) || (*digit == '0' && is_digit(digit + 1))) return std::nullopt;
  double value = 0.0;
  const auto [next, ec] = std::from_chars(cursor, end, value);
  if (ec != std::errc{}) return std::nullopt;  // includes out of range
  const char* dot = std::find(digit, next, '.');
  if (dot != next && !is_digit(dot + 1)) return std::nullopt;
  // A hex float stops at its 'x'; a value cut by the view's end has no
  // delimiter. Either way the number is not what the sender wrote.
  if (next == end || !(is_space(*next) || *next == ',' || *next == '}' || *next == ']'))
    return std::nullopt;
  cursor = next;
  return value;
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
  const std::size_t close = body.find(']', p);
  if (close == std::string_view::npos) return std::nullopt;  // unterminated array
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(
                     std::count(body.begin() + static_cast<std::ptrdiff_t>(p),
                                body.begin() + static_cast<std::ptrdiff_t>(close), ',')) +
                 1);
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
  const auto result = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

}  // namespace spi::serve
