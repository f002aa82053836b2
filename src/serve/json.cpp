#include "serve/json.hpp"

#include <charconv>

namespace sgp::serve {

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty() || s.size() > 20) return std::nullopt;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  // No leading zeros (except "0" itself): "007" is not a canonical
  // integer and accepting it would make duplicate-request detection
  // depend on formatting.
  if (s.size() > 1 && s[0] == '0') return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace sgp::serve
