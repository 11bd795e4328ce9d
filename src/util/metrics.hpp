// kalis::obs — the low-overhead observability kit (DESIGN.md "Observability").
//
// Three zero-allocation primitives live on the hot path:
//
//   Counter    monotonic event count (packets routed, alerts raised, ...)
//   Gauge      last-value + high-water mark (queue depth, window size, ...)
//   Histogram  fixed power-of-two buckets for latency-like values; recording
//              is a bit_width + two adds, no allocation ever
//
// and one cold-path sink: Registry, which components fill with named
// snapshots of their metrics and which serializes to JSON for the bench/CI
// artifact pipeline.
//
// Design constraint: instrumentation must never change simulation behavior.
// It may *read* the wall clock (the one exception to the types.hpp rule, for
// latency histograms only) but must never feed wall time back into
// simulation logic.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace kalis::obs {

/// Monotonic steady-clock timestamp in nanoseconds.
inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last value plus high-water mark.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > highWater_) highWater_ = v;
  }
  double value() const { return value_; }
  double highWater() const { return highWater_; }
  void reset() { value_ = highWater_ = 0.0; }

 private:
  double value_ = 0.0;
  double highWater_ = 0.0;
};

/// Fixed-bucket histogram over unsigned values (typically nanoseconds).
/// Bucket i counts values whose bit width is i, i.e. value v lands in
/// bucket bit_width(v), giving exponential bounds 0,1,3,7,...,2^k-1.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(std::uint64_t v) {
    const std::size_t idx =
        std::min<std::size_t>(kBuckets - 1, std::bit_width(v));
    ++buckets_[idx];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
  /// Inclusive upper bound of bucket i (2^i - 1; saturates at uint64 max).
  static std::uint64_t bucketUpperBound(std::size_t i) {
    if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
  }

  /// Upper bound of the bucket containing the q-quantile (q in [0,1]).
  /// Exact to within one power-of-two bucket.
  std::uint64_t quantile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cumulative += buckets_[i];
      if (static_cast<double>(cumulative) >= target) {
        return std::min(bucketUpperBound(i), max_);
      }
    }
    return max_;
  }

  void reset() { *this = Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Cold-path snapshot sink. Components append named metric values with
/// `collectMetrics(Registry&, prefix)`; the registry serializes everything
/// to JSON (the CI artifact format).
class Registry {
 public:
  /// Free-form run metadata ("run", "seed", "build", ...).
  void setLabel(const std::string& key, const std::string& value) {
    labels_.emplace_back(key, value);
  }

  void counter(const std::string& name, std::uint64_t value) {
    counters_.emplace_back(name, value);
  }
  void counter(const std::string& name, const Counter& c) {
    counters_.emplace_back(name, c.value());
  }

  void gauge(const std::string& name, double value, double highWater) {
    gauges_.push_back(GaugeEntry{name, value, highWater});
  }
  void gauge(const std::string& name, const Gauge& g) {
    gauges_.push_back(GaugeEntry{name, g.value(), g.highWater()});
  }

  void histogram(const std::string& name, const Histogram& h) {
    histograms_.emplace_back(name, h);
  }

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  std::uint64_t counterValue(const std::string& name) const {
    for (const auto& [n, v] : counters_) {
      if (n == name) return v;
    }
    return 0;
  }
  bool hasCounter(const std::string& name) const {
    for (const auto& [n, v] : counters_) {
      if (n == name) return true;
    }
    return false;
  }
  const Histogram* findHistogram(const std::string& name) const {
    for (const auto& [n, h] : histograms_) {
      if (n == name) return &h;
    }
    return nullptr;
  }

  std::string toJson() const {
    std::ostringstream out;
    out << "{\n  \"labels\": {";
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      out << (i ? ", " : "") << quote(labels_[i].first) << ": "
          << quote(labels_[i].second);
    }
    out << "},\n  \"counters\": {";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      out << (i ? "," : "") << "\n    " << quote(counters_[i].first) << ": "
          << counters_[i].second;
    }
    out << (counters_.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      const GaugeEntry& g = gauges_[i];
      out << (i ? "," : "") << "\n    " << quote(g.name) << ": {\"value\": "
          << formatNumber(g.value)
          << ", \"high_water\": " << formatNumber(g.highWater) << "}";
    }
    out << (gauges_.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
      const auto& [name, h] = histograms_[i];
      out << (i ? "," : "") << "\n    " << quote(name) << ": {\"count\": "
          << h.count() << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
          << ", \"max\": " << h.max()
          << ", \"mean\": " << formatNumber(h.mean())
          << ", \"p50\": " << h.quantile(0.50)
          << ", \"p90\": " << h.quantile(0.90)
          << ", \"p99\": " << h.quantile(0.99) << ", \"buckets\": [";
      bool first = true;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (h.bucketCount(b) == 0) continue;
        out << (first ? "" : ", ") << "{\"le\": "
            << Histogram::bucketUpperBound(b)
            << ", \"count\": " << h.bucketCount(b) << "}";
        first = false;
      }
      out << "]}";
    }
    out << (histograms_.empty() ? "" : "\n  ") << "}\n}\n";
    return out.str();
  }

  bool writeJsonFile(const std::string& path) const {
    return writeFile(path, toJson());
  }

 private:
  struct GaugeEntry {
    std::string name;
    double value;
    double highWater;
  };

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) break;  // drop controls
          out += c;
      }
    }
    out += '"';
    return out;
  }

  /// Plain (non-scientific) formatting so the JSON stays parseable by
  /// naive consumers; integers print without a trailing ".0".
  static std::string formatNumber(double v) {
    std::ostringstream out;
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        v > -1e15 && v < 1e15) {
      out << static_cast<std::int64_t>(v);
    } else {
      out.setf(std::ios::fixed);
      out.precision(6);
      out << v;
    }
    return out.str();
  }

  static bool writeFile(const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << body;
    return static_cast<bool>(out);
  }

  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<std::pair<std::string, Histogram>> histograms_;
};

}  // namespace kalis::obs
