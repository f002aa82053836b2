// serve::parse_u64, the integer parser for CLI flags and request
// fields. JSON itself, reading and writing, lives in obs/json.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sgp::serve {

/// Full-string, range-checked unsigned 64-bit parser: accepts only an
/// optional-free decimal integer ("0".."18446744073709551615"), rejects
/// signs, leading '+', whitespace, hex, empty strings and overflow.
/// This is the seed parser the CLIs and the daemon share — the old
/// stoi-then-cast path silently wrapped negatives and could not
/// represent seeds above INT_MAX.
std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

}  // namespace sgp::serve
