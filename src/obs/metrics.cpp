#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "obs/text_escape.hpp"

namespace spi::obs {

namespace {

void add_atomic_double(std::atomic<double>& target, double d) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void append_json_escaped(std::ostringstream& out, const std::string& s) {
  // Full RFC 8259 escaping (text_escape.hpp): a raw newline or control
  // character in a label would make the whole export unparseable.
  out << detail::json_escaped(s);
}

void append_json_labels(std::ostringstream& out, const Labels& labels) {
  out << "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ",";
    first = false;
    out << "\"";
    append_json_escaped(out, k);
    out << "\":\"";
    append_json_escaped(out, v);
    out << "\"";
  }
  out << "}";
}

/// Prometheus label value escaping: backslash, double quote, newline.
void append_prom_escaped(std::ostringstream& out, const std::string& s) {
  for (char c : s) {
    if (c == '\\')
      out << "\\\\";
    else if (c == '"')
      out << "\\\"";
    else if (c == '\n')
      out << "\\n";
    else
      out << c;
  }
}

/// # HELP text escaping per exposition format 0.0.4: only backslash and
/// newline — double quotes are NOT escaped on HELP lines (that rule is
/// specific to quoted label values).
void append_prom_help_escaped(std::ostringstream& out, const std::string& s) {
  for (char c : s) {
    if (c == '\\')
      out << "\\\\";
    else if (c == '\n')
      out << "\\n";
    else
      out << c;
  }
}

void append_prom_labels(std::ostringstream& out, const Labels& labels,
                        const std::string& extra_key = "", const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return;
  out << "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ",";
    first = false;
    out << k << "=\"";
    append_prom_escaped(out, v);
    out << "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out << ",";
    out << extra_key << "=\"" << extra_value << "\"";
  }
  out << "}";
}

/// JSON/Prometheus-safe number rendering (no inf/nan in JSON output).
std::string render_double(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

// --- Histogram -----------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)), buckets_(upper_bounds_.size() + 1) {
  for (std::size_t i = 1; i < upper_bounds_.size(); ++i)
    if (upper_bounds_[i] <= upper_bounds_[i - 1])
      throw std::invalid_argument("Histogram: bucket bounds must be strictly ascending");
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - upper_bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_atomic_double(sum_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  // Internally consistent under concurrent observe(): `count` is
  // derived from the bucket reads (never read from count_ separately),
  // so the exported cumulative +Inf bucket always equals `count`; and
  // `sum` is read after the buckets — observe() updates bucket before
  // sum, so a mid-snapshot observation can make the exported sum lead
  // the counted set, never report counted observations missing from it.
  Snapshot s;
  s.upper_bounds = upper_bounds_;
  s.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    const std::int64_t n = b.load(std::memory_order_relaxed);
    s.buckets.push_back(n);
    s.count += n;
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

double Histogram::quantile(double q) const {
  const Snapshot s = snapshot();
  if (s.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(s.count);
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    const std::int64_t next = cumulative + s.buckets[i];
    if (static_cast<double>(next) >= target && s.buckets[i] > 0) {
      const double lo = i == 0 ? 0.0 : s.upper_bounds[i - 1];
      if (i == s.upper_bounds.size()) return lo;  // +inf bucket: report its floor
      const double hi = s.upper_bounds[i];
      const double inside = target - static_cast<double>(cumulative);
      return lo + (hi - lo) * inside / static_cast<double>(s.buckets[i]);
    }
    cumulative = next;
  }
  return upper_bounds_.empty() ? 0.0 : upper_bounds_.back();
}

std::string Histogram::summary(const std::string& unit) const {
  const Snapshot s = snapshot();
  std::ostringstream out;
  const std::string u = unit.empty() ? "" : " " + unit;
  out << "count=" << s.count;
  if (s.count > 0) {
    out << " mean=" << render_double(s.sum / static_cast<double>(s.count)) << u
        << " p50=" << render_double(quantile(0.50)) << u
        << " p90=" << render_double(quantile(0.90)) << u
        << " p99=" << render_double(quantile(0.99)) << u;
  }
  return out.str();
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  if (start <= 0 || factor <= 1)
    throw std::invalid_argument("Histogram::exponential_bounds: need start > 0, factor > 1");
  std::vector<double> bounds;
  bounds.reserve(count);
  double v = start;
  for (std::size_t i = 0; i < count; ++i, v *= factor) bounds.push_back(v);
  return bounds;
}

std::vector<double> Histogram::linear_bounds(double start, double step, std::size_t count) {
  if (step <= 0) throw std::invalid_argument("Histogram::linear_bounds: need step > 0");
  std::vector<double> bounds;
  bounds.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    bounds.push_back(start + step * static_cast<double>(i));
  return bounds;
}

// --- MetricRegistry ------------------------------------------------------

MetricRegistry::Series& MetricRegistry::series(const std::string& name, const Labels& labels,
                                               const std::string& help) {
  const Key key{name, sorted(labels)};
  Series& s = series_[key];
  if (s.name.empty()) {
    s.name = name;
    s.labels = key.second;
    s.help = help;
  }
  if (s.help.empty() && !help.empty()) s.help = help;
  return s;
}

Counter& MetricRegistry::counter(const std::string& name, const Labels& labels,
                                 const std::string& help) {
  std::lock_guard lock(mutex_);
  Series& s = series(name, labels, help);
  if (s.gauge || s.histogram)
    throw std::invalid_argument("MetricRegistry: '" + name + "' is not a counter");
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, const Labels& labels,
                             const std::string& help) {
  std::lock_guard lock(mutex_);
  Series& s = series(name, labels, help);
  if (s.counter || s.histogram)
    throw std::invalid_argument("MetricRegistry: '" + name + "' is not a gauge");
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name, std::vector<double> upper_bounds,
                                     const Labels& labels, const std::string& help) {
  std::lock_guard lock(mutex_);
  Series& s = series(name, labels, help);
  if (s.counter || s.gauge)
    throw std::invalid_argument("MetricRegistry: '" + name + "' is not a histogram");
  if (!s.histogram) s.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  return *s.histogram;
}

std::int64_t MetricRegistry::counter_total(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (const auto& [key, s] : series_)
    if (key.first == name && s.counter) total += s.counter->value();
  return total;
}

std::int64_t MetricRegistry::counter_value(const std::string& name, const Labels& labels) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(Key{name, sorted(labels)});
  return it != series_.end() && it->second.counter ? it->second.counter->value() : 0;
}

double MetricRegistry::gauge_value(const std::string& name, const Labels& labels) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(Key{name, sorted(labels)});
  return it != series_.end() && it->second.gauge ? it->second.gauge->value() : 0.0;
}

std::vector<MetricRegistry::SeriesSnapshot> MetricRegistry::collect() const {
  // One tight pass under the lock reading each live value exactly once.
  // Formatting happens outside the lock from this frozen copy, so a
  // mid-scrape update can shift values between two series but can never
  // make one series internally inconsistent or tear a formatted line.
  std::lock_guard lock(mutex_);
  std::vector<SeriesSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    SeriesSnapshot snap;
    snap.name = s.name;
    snap.labels = s.labels;
    snap.help = s.help;
    if (s.counter) {
      snap.kind = SeriesSnapshot::Kind::kCounter;
      snap.counter_value = s.counter->value();
    } else if (s.gauge) {
      snap.kind = SeriesSnapshot::Kind::kGauge;
      snap.gauge_value = s.gauge->value();
    } else if (s.histogram) {
      snap.kind = SeriesSnapshot::Kind::kHistogram;
      snap.histogram = s.histogram->snapshot();
    } else {
      continue;  // registered name with no instrument yet
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string MetricRegistry::to_json() const {
  const std::vector<SeriesSnapshot> snapshot = collect();
  std::ostringstream out;
  auto emit_header = [&](const SeriesSnapshot& s) {
    out << "\n    {\"name\":\"";
    append_json_escaped(out, s.name);
    out << "\",\"labels\":";
    append_json_labels(out, s.labels);
  };

  out << "{\n  \"counters\": [";
  bool first = true;
  for (const auto& s : snapshot) {
    if (s.kind != SeriesSnapshot::Kind::kCounter) continue;
    if (!first) out << ",";
    first = false;
    emit_header(s);
    out << ",\"value\":" << s.counter_value << "}";
  }
  out << "\n  ],\n  \"gauges\": [";
  first = true;
  for (const auto& s : snapshot) {
    if (s.kind != SeriesSnapshot::Kind::kGauge) continue;
    if (!first) out << ",";
    first = false;
    emit_header(s);
    out << ",\"value\":" << render_double(s.gauge_value) << "}";
  }
  out << "\n  ],\n  \"histograms\": [";
  first = true;
  for (const auto& s : snapshot) {
    if (s.kind != SeriesSnapshot::Kind::kHistogram) continue;
    if (!first) out << ",";
    first = false;
    emit_header(s);
    const Histogram::Snapshot& snap = s.histogram;
    out << ",\"count\":" << snap.count << ",\"sum\":" << render_double(snap.sum)
        << ",\"buckets\":[";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      cumulative += snap.buckets[i];
      if (i) out << ",";
      out << "{\"le\":";
      if (i < snap.upper_bounds.size())
        out << render_double(snap.upper_bounds[i]);
      else
        out << "\"+Inf\"";
      out << ",\"count\":" << cumulative << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string MetricRegistry::to_prometheus() const {
  const std::vector<SeriesSnapshot> snapshot = collect();
  std::ostringstream out;
  // One # HELP / # TYPE block per metric name, series grouped beneath.
  std::string open_name;
  for (const auto& s : snapshot) {
    const char* type = s.kind == SeriesSnapshot::Kind::kCounter  ? "counter"
                       : s.kind == SeriesSnapshot::Kind::kGauge ? "gauge"
                                                                : "histogram";
    if (s.name != open_name) {
      open_name = s.name;
      if (!s.help.empty()) {
        out << "# HELP " << s.name << " ";
        append_prom_help_escaped(out, s.help);
        out << "\n";
      }
      out << "# TYPE " << s.name << " " << type << "\n";
    }
    if (s.kind == SeriesSnapshot::Kind::kCounter) {
      out << s.name;
      append_prom_labels(out, s.labels);
      out << " " << s.counter_value << "\n";
    } else if (s.kind == SeriesSnapshot::Kind::kGauge) {
      out << s.name;
      append_prom_labels(out, s.labels);
      out << " " << render_double(s.gauge_value) << "\n";
    } else {
      const Histogram::Snapshot& snap = s.histogram;
      std::int64_t cumulative = 0;
      for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
        cumulative += snap.buckets[i];
        out << s.name << "_bucket";
        append_prom_labels(out, s.labels, "le",
                           i < snap.upper_bounds.size() ? render_double(snap.upper_bounds[i])
                                                        : std::string("+Inf"));
        out << " " << cumulative << "\n";
      }
      out << s.name << "_sum";
      append_prom_labels(out, s.labels);
      out << " " << render_double(snap.sum) << "\n";
      out << s.name << "_count";
      append_prom_labels(out, s.labels);
      out << " " << snap.count << "\n";
    }
  }
  return out.str();
}

// --- ScopedTimer ---------------------------------------------------------

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t resident_memory_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  long long resident_pages = 0;
  const bool read = std::fscanf(statm, "%*s %lld", &resident_pages) == 1;
  std::fclose(statm);
  return read ? resident_pages * static_cast<long long>(sysconf(_SC_PAGESIZE)) : 0;
}

ScopedTimer::ScopedTimer(Gauge* gauge, Histogram* histogram)
    : gauge_(gauge), histogram_(histogram), start_ns_(monotonic_ns()) {}

double ScopedTimer::elapsed_seconds() const {
  return static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
}

ScopedTimer::~ScopedTimer() {
  const double seconds = elapsed_seconds();
  if (gauge_) gauge_->set(seconds);
  if (histogram_) histogram_->observe(seconds);
}

}  // namespace spi::obs
