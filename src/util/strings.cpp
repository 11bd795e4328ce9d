#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/types.hpp"

namespace kalis {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<long long> parseInt(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parseDouble(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is not universally available; use strtod on a
  // bounded copy.
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parseBool(std::string_view s) {
  s = trim(s);
  if (iequals(s, "true") || s == "1") return true;
  if (iequals(s, "false") || s == "0") return false;
  return std::nullopt;
}

std::string formatDouble(double v) {
  // Byte for byte what printf gives: integral values below 1e15 as "%.0f",
  // everything else as "%g" (six significant digits).
  char buf[32];
  const bool integral =
      std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15;
  const std::to_chars_result r =
      integral
          ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 0)
          : std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                          6);
  return std::string(buf, r.ptr);
}

std::string defaultNodeName(NodeId id) {
  return "node" + std::to_string(id);
}

}  // namespace kalis
