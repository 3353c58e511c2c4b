/// \file stats.hpp
/// The benchmark's own arithmetic, free of I/O so tests/stats_test.cpp
/// can pin it: tail percentiles with a sample floor, self time over
/// nested spans, and the sustained-rate rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// A percentile is reported only when at least this many samples rank
/// above it; with fewer it is the sample maximum under another name.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank q-quantile (0 < q < 1), or nullopt when fewer than
/// kMinTailSamples samples rank above it.
inline std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // The epsilon keeps q * n == 990 from rounding up to rank 991.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A half-open time interval [begin, end).
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// `parent`'s duration minus the part of it the union of `children`
/// covers: children are clipped to the parent and overlaps count once.
inline std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.begin; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::int64_t covered = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return (parent.end - parent.begin) - covered;
}

/// One server call: its interval and the client bursts it answered
/// requests of (an id may repeat).
struct ServerCallSpan {
  Interval span;
  std::vector<std::int64_t> bursts;
};

/// Server time each client burst waited on: the whole duration of every
/// call that answered any of its requests, since a call replies only when
/// it ends. A burst's round trip minus this is its transport time.
inline std::map<std::int64_t, std::int64_t> server_ns_by_burst(
    const std::vector<ServerCallSpan>& calls) {
  std::map<std::int64_t, std::int64_t> out;
  for (const ServerCallSpan& call : calls) {
    std::vector<std::int64_t> ids = call.bursts;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (const std::int64_t id : ids) out[id] += call.span.end - call.span.begin;
  }
  return out;
}

/// One fixed-rate step of an open-loop run, as the sustained-rate rule
/// sees it.
struct StepObservation {
  std::vector<double> latency_us;  ///< every attempted request; refused/failed = kInf
  std::int64_t failed = 0;         ///< refused, wrong or unanswered
  std::vector<double> backlog;     ///< outstanding requests, sampled evenly over the step
  bool generator_late = false;     ///< the driver itself fell behind its schedule
};

/// The backlog grows when the mean outstanding count over the step's
/// last third exceeds one and a half times that of its first third plus
/// `slack` (the in-flight requests a healthy step always shows).
inline bool backlog_grows(const std::vector<double>& backlog, double slack) {
  const std::size_t third = backlog.size() / 3;
  if (third == 0) return false;
  const std::vector<double> head(backlog.begin(),
                                 backlog.begin() + static_cast<std::ptrdiff_t>(third));
  const std::vector<double> tail(backlog.end() - static_cast<std::ptrdiff_t>(third),
                                 backlog.end());
  return mean(tail) > 1.5 * mean(head) + slack;
}

/// The tail latency the rule compares with the limit: p99 when the step
/// has the samples for it, else the maximum (never the optimistic side).
inline double rule_tail_us(const std::vector<double>& latency_us) {
  if (const auto p99 = tail_percentile(latency_us, 0.99)) return *p99;
  return latency_us.empty() ? kInf : *std::max_element(latency_us.begin(), latency_us.end());
}

/// A step is sustained when nothing failed, the driver kept its schedule,
/// the tail latency meets the limit and the backlog does not grow.
inline bool step_sustained(const StepObservation& step, double limit_us, double backlog_slack) {
  if (step.latency_us.empty() || step.failed > 0 || step.generator_late) return false;
  if (rule_tail_us(step.latency_us) > limit_us) return false;
  return !backlog_grows(step.backlog, backlog_slack);
}

/// Geometric grid lo, lo*ratio, ... up to hi (inclusive within rounding).
inline std::vector<double> rate_grid(double lo, double hi, double ratio) {
  std::vector<double> grid;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= ratio) grid.push_back(r);
  return grid;
}

/// Highest index of an ascending grid whose step passes, by binary
/// search (the rule is monotone in the offered rate); -1 when none does.
/// `passes(i)` runs step i; every index returned was actually run.
template <class Passes>
int highest_sustained(std::size_t grid_size, Passes&& passes) {
  int lo = -1;
  int hi = static_cast<int>(grid_size);
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
