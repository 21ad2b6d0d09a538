#pragma once
// One row per service counter.  CacheStats (cache.hpp) and MetricsCounters
// (metrics.hpp) each have a table of them, and the JSON replies, the
// Prometheus exposition and each struct's operator+= walk it: a new counter
// is its field, its row and its increment site.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace vlcsa::service {

/// A flag is a 0/1 gauge that the JSON replies spell as a bool.
enum class CounterType { kCounter, kGauge, kFlag };

template <class Stats>
struct CounterRow {
  const char* json;    // key in the JSON reply
  const char* family;  // Prometheus family; rows that share one are adjacent
  CounterType type;
  const char* help;    // the family's # HELP text
  const char* label;   // the sample's label pair (tier="disk"), or ""
  std::uint64_t Stats::*member;
};

template <class Stats>
using CounterRows = std::span<const CounterRow<std::type_identity_t<Stats>>>;

template <class Stats>
Stats& add_rows(Stats& to, const Stats& from, CounterRows<Stats> rows) {
  for (const auto& row : rows) to.*row.member += from.*row.member;
  return to;
}

/// The rows up to and including the one keyed `json`, and the rest: a reply
/// puts its derived values between the two.
template <class Row, std::size_t Extent>
std::pair<std::span<const Row>, std::span<const Row>> split_after(
    std::span<const Row, Extent> rows, std::string_view json) {
  const auto it = std::find_if(rows.begin(), rows.end(),
                               [json](const Row& row) { return row.json == json; });
  const auto end = static_cast<std::size_t>(it - rows.begin()) + (it != rows.end() ? 1 : 0);
  return {rows.first(end), rows.subspan(end)};
}

}  // namespace vlcsa::service
