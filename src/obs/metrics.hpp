/// \file metrics.hpp
/// Library-wide observability: a metric registry shared by the compile
/// pipeline, the timed simulator and the threaded runtime.
///
/// Three instrument kinds, modeled on the Prometheus data model:
///
///  * Counter   — monotonically increasing int64 (messages, bytes,
///                block events). Lock-free: a relaxed std::atomic
///                fetch_add, cheap enough for hot paths.
///  * Gauge     — a double that goes up and down (plan-level facts,
///                phase wall-clock seconds).
///  * Histogram — fixed upper-bound buckets with atomic counts
///                (latencies, per-iteration periods). Quantiles are
///                estimated by linear interpolation inside a bucket.
///
/// Instruments are identified by (name, labels); asking the registry for
/// the same identity twice returns the same instrument. Handles returned
/// by the registry stay valid for the registry's lifetime, so hot code
/// resolves its instruments once and then only touches atomics.
///
/// Two exporters serialize a consistent snapshot of everything
/// registered: `to_json()` (machine-readable, consumed by
/// `spi_compile --metrics=json` and the tooling ctest tier) and
/// `to_prometheus()` (text exposition format 0.0.4, scrapeable).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace spi::obs {

/// Sorted (key, value) pairs identifying one time series of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::int64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending; an implicit +inf bucket
  /// is appended. Throws std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> upper_bounds;   ///< finite bounds (no +inf entry)
    std::vector<std::int64_t> buckets;  ///< per bound + final +inf bucket
    std::int64_t count = 0;
    double sum = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate (q clamped to [0,1]) by linear interpolation
  /// within the containing bucket. Defined edge cases (asserted in
  /// tests/test_metrics.cpp, documented in docs/observability.md):
  /// empty histogram -> 0; q=0 -> the lower edge of the first nonempty
  /// bucket; q=1 -> the upper bound of the last nonempty finite bucket;
  /// any quantile landing in the implicit +inf bucket -> that bucket's
  /// floor (the largest finite bound, or 0 with no finite bounds).
  [[nodiscard]] double quantile(double q) const;

  /// "count=N sum=S mean=M p50=.. p90=.. p99=.." — one line for bench
  /// and report output.
  [[nodiscard]] std::string summary(const std::string& unit = "") const;

  /// Convenience bucket layouts.
  [[nodiscard]] static std::vector<double> exponential_bounds(double start, double factor,
                                                              std::size_t count);
  [[nodiscard]] static std::vector<double> linear_bounds(double start, double step,
                                                         std::size_t count);

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;  ///< upper_bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Thread-safe instrument registry with JSON / Prometheus exporters.
/// Registration takes a mutex; returned instrument references are stable
/// and lock-free to update.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {}, const std::string& help = "");
  /// For an already-registered (name, labels) the existing histogram is
  /// returned and `upper_bounds` is ignored.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       const Labels& labels = {}, const std::string& help = "");

  /// Sum of one counter metric over all its label sets (0 when absent).
  [[nodiscard]] std::int64_t counter_total(const std::string& name) const;
  /// Value of one exact (name, labels) counter (0 when absent).
  [[nodiscard]] std::int64_t counter_value(const std::string& name, const Labels& labels) const;
  /// Value of one exact (name, labels) gauge (0 when absent).
  [[nodiscard]] double gauge_value(const std::string& name, const Labels& labels = {}) const;

  /// One collected time series: the live values frozen at collect()
  /// time, decoupled from the instrument they came from.
  struct SeriesSnapshot {
    enum class Kind { kCounter, kGauge, kHistogram };
    std::string name;
    Labels labels;
    std::string help;
    Kind kind = Kind::kCounter;
    std::int64_t counter_value = 0;
    double gauge_value = 0.0;
    Histogram::Snapshot histogram;
  };

  /// Freezes every registered series in one pass under the registry
  /// lock. Both exporters format from this, never from live
  /// instruments, so concurrent updates cannot tear an export
  /// mid-format; each histogram snapshot keeps its +Inf cumulative
  /// bucket equal to its count.
  [[nodiscard]] std::vector<SeriesSnapshot> collect() const;

  /// {"counters":[...],"gauges":[...],"histograms":[...]} — stable
  /// (name, labels) ordering.
  [[nodiscard]] std::string to_json() const;
  /// Prometheus text exposition format: # HELP / # TYPE lines followed
  /// by the series; histograms emit _bucket{le=...}, _sum, _count.
  [[nodiscard]] std::string to_prometheus() const;

 private:
  struct Series {
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, Labels>;

  Series& series(const std::string& name, const Labels& labels, const std::string& help);

  mutable std::mutex mutex_;
  std::map<Key, Series> series_;
};

/// RAII wall-clock phase timer: on destruction records the elapsed
/// seconds into a gauge (set) and/or a histogram (observe).
class ScopedTimer {
 public:
  explicit ScopedTimer(Gauge* gauge, Histogram* histogram = nullptr);
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

  /// Elapsed seconds so far.
  [[nodiscard]] double elapsed_seconds() const;

 private:
  Gauge* gauge_;
  Histogram* histogram_;
  std::int64_t start_ns_;
};

/// Monotonic wall-clock now, nanoseconds (steady_clock).
[[nodiscard]] std::int64_t monotonic_ns();

/// This process's resident set size in bytes, read from /proc/self/statm
/// (0 where that file cannot be read).
[[nodiscard]] std::int64_t resident_memory_bytes();

}  // namespace spi::obs
