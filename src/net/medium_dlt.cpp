#include "net/medium_dlt.hpp"

namespace kalis::net {

std::uint32_t dltForMedium(Medium m) {
  for (const auto& row : kMediumDltTable) {
    if (row.medium == m) return row.dlt;
  }
  return kDltRaw;
}

std::optional<Medium> mediumForDlt(std::uint32_t dlt) {
  for (const auto& row : kMediumDltTable) {
    if (row.dlt == dlt) return row.medium;
  }
  return std::nullopt;
}

}  // namespace kalis::net
