/// \file request.hpp
/// The serve layer's number text format: a minimal flat-JSON field
/// scanner for request bodies and the number formatter for replies.
///
/// Job bodies are small flat objects ({"app":"speech","frame":[...]});
/// at a >=100k req/s service rate a DOM parse per request would dominate
/// the batch handler, so fields are extracted by key scan, the same
/// technique core::ExecutablePlan::from_json uses. Keys are matched as
/// "<key>": at top nesting depth only; absent or malformed fields are
/// std::nullopt (the server answers 400). Not a general JSON parser:
///
///  * A string value is `"` then any characters but `"` and `\` then
///    `"`. Escapes are not supported, so a value holding a backslash is
///    malformed rather than cut at an escaped quote. `app` and `tenant`
///    are strings; a `tenant` that is present but not such a string
///    (5, "a\"b") answers 400 rather than defaulting to "default".
///  * An array value is `[`, then numbers separated by exactly one `,`
///    (whitespace allowed around each), then `]`. `[]` is valid; a
///    leading, doubled or trailing comma ([,1], [1,,2], [1,]) and bare
///    whitespace between two numbers ([1 2]) are malformed.
///
/// Request number grammar: a JSON number, `-?digits[.digits][(e|E)[+-]digits]`,
/// scanned inside the view — nothing past the view's end is ever read,
/// so a view need not be NUL-terminated. A number must be followed,
/// inside the view, by whitespace, ',', '}' or ']'. The scanner rejects
/// what JSON does not allow: a leading '+' or '.', leading zeros (007),
/// a '.' with no digit after it (1., 1.e5), hex floats (0x1p3),
/// inf/nan, and literals outside the range of double (1e999). One pass
/// checks the grammar and gathers the digits: a number of at most 19
/// significant digits whose mantissa is at most 2^53 and whose decimal
/// exponent is within +-22 is one IEEE multiply or divide of two exact
/// doubles, so correctly rounded; any other number goes to
/// std::from_chars over its already delimited text. Both give the
/// double std::from_chars gives.
///
/// Reply number format: append_json_number writes exactly what
/// snprintf("%.17g") prints, 17 significant digits, so every double
/// round-trips. A finite |v| in [1e-6, 2^53) is printed from its exact
/// binary value (decade, round half to even, trailing zeros stripped);
/// every other value goes through std::to_chars. Clients and
/// tools/golden/served_answers.txt compare reply bodies byte for byte,
/// so this text is part of the serve contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace spi::serve {

/// True when `"key":` appears in the body.
[[nodiscard]] bool json_has_field(std::string_view body, std::string_view key);
[[nodiscard]] std::optional<std::string> json_string_field(std::string_view body,
                                                           std::string_view key);
[[nodiscard]] std::optional<std::vector<double>> json_array_field(std::string_view body,
                                                                  std::string_view key);
/// An integral field checked against [lo, hi]: `fallback` when the key is
/// absent; std::nullopt when it is present but not a finite integral
/// number in range (1.5, -1, 1e300, "x" — the server answers 400).
/// The server reads the synthetic-job fields only for jobs that carry no
/// explicit input: a speech job with `frame` ignores frame_size, order
/// and seed, and a particle job with `observations` ignores steps,
/// malformed or not (docs/serving.md, "Number format").
[[nodiscard]] std::optional<std::uint64_t> json_integer_field(std::string_view body,
                                                              std::string_view key,
                                                              std::uint64_t lo, std::uint64_t hi,
                                                              std::uint64_t fallback);

/// Appends `v` exactly as snprintf("%.17g") prints it: an exact integer
/// path for finite |v| in [1e-6, 2^53), std::to_chars
/// (std::chars_format::general with precision 17, specified to match)
/// for the rest.
void append_json_number(std::string& out, double v);

}  // namespace spi::serve
