// Small string utilities used by the Knowledge Base key encoding and the
// configuration / rule-file parsers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kalis {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a single-character separator.
std::string join(const std::vector<std::string>& parts, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// Strict integer / double / bool parsing: the whole string must be consumed.
/// parseDouble also refuses "nan", "inf" and values beyond double's range.
std::optional<long long> parseInt(std::string_view s);
std::optional<double> parseDouble(std::string_view s);
std::optional<bool> parseBool(std::string_view s);

/// Formats a double compactly for knowgget values ("0.037", "12", "-67.5").
std::string formatDouble(double v);

}  // namespace kalis
