// Self-tests of the benchmark's arithmetic (harness/stats.hpp): the
// tail-percentile rule, self time over nested spans, server time per
// client burst, and the sustained-rate rule with backlog-growth
// detection. Plain checks that stay on in every build type; exit status
// 1 on any failure.
#include <cstdio>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
}
#define CHECK(expr) check((expr), #expr, __LINE__)

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void tail_percentile_rule() {
  // 1000 samples: rank 990 has exactly 10 above it, so p99 is defined.
  const auto p99 = perfbench::tail_percentile(ramp(1000), 0.99);
  CHECK(p99.has_value() && *p99 == 990.0);
  // 999 samples: only 9 above rank 990.
  CHECK(!perfbench::tail_percentile(ramp(999), 0.99).has_value());
  // p50 of 21 samples is the 11th, with 10 above it.
  const auto p50 = perfbench::tail_percentile(ramp(21), 0.5);
  CHECK(p50.has_value() && *p50 == 11.0);
  CHECK(!perfbench::tail_percentile(ramp(19), 0.5).has_value());
  CHECK(!perfbench::tail_percentile({}, 0.5).has_value());
  // Order does not matter; failed requests (infinite) land in the tail.
  std::vector<double> shuffled = ramp(1000);
  for (std::size_t i = 0; i + 1 < shuffled.size(); i += 2) std::swap(shuffled[i], shuffled[i + 1]);
  CHECK(*perfbench::tail_percentile(shuffled, 0.99) == 990.0);
  std::vector<double> with_failures = ramp(1000);
  for (std::size_t i = 0; i < 20; ++i) with_failures[i] = perfbench::kInf;
  CHECK(*perfbench::tail_percentile(with_failures, 0.99) == perfbench::kInf);
  // The rule tail falls back to the maximum when p99 is not reportable.
  CHECK(perfbench::rule_tail_us(ramp(50)) == 50.0);
  CHECK(perfbench::rule_tail_us(ramp(1000)) == 990.0);
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void self_time_over_nested_spans() {
  const perfbench::Interval parent{100, 200};
  CHECK(perfbench::self_time(parent, {}) == 100);
  CHECK(perfbench::self_time(parent, {{110, 130}, {150, 160}}) == 70);
  // Overlapping children count once.
  CHECK(perfbench::self_time(parent, {{110, 140}, {120, 150}, {145, 150}}) == 60);
  // Children are clipped to the parent; disjoint ones contribute nothing.
  CHECK(perfbench::self_time(parent, {{50, 120}, {190, 260}, {300, 400}}) == 70);
  CHECK(perfbench::self_time(parent, {{0, 1000}}) == 0);
  // Unsorted input; touching intervals merge.
  CHECK(perfbench::self_time(parent, {{170, 180}, {120, 140}, {140, 150}}) == 60);
}

void server_time_by_burst() {
  // Burst 1 is split over two calls and waits for the whole of both;
  // burst 2 shares the second call and waits for all of it, not a share.
  const auto ns = perfbench::server_ns_by_burst({{{0, 100}, {1, 1}}, {{150, 300}, {1, 2, 2}}});
  CHECK(ns.size() == 2);
  CHECK(ns.at(1) == 250);
  CHECK(ns.at(2) == 150);
  CHECK(perfbench::server_ns_by_burst({}).empty());
}

perfbench::StepObservation healthy_step(double latency_us) {
  perfbench::StepObservation s;
  s.latency_us.assign(2000, latency_us);
  s.backlog.assign(200, 16.0);
  return s;
}

void sustained_rate_rule() {
  const double limit = 1000.0;
  const double slack = 32.0;
  CHECK(perfbench::step_sustained(healthy_step(500), limit, slack));
  CHECK(!perfbench::step_sustained(healthy_step(1500), limit, slack));

  // One failed or refused request misses the limit.
  perfbench::StepObservation failed = healthy_step(500);
  failed.failed = 1;
  CHECK(!perfbench::step_sustained(failed, limit, slack));
  // A late generator invalidates the step.
  perfbench::StepObservation late = healthy_step(500);
  late.generator_late = true;
  CHECK(!perfbench::step_sustained(late, limit, slack));
  // Few samples: the maximum stands in for p99.
  perfbench::StepObservation sparse;
  sparse.latency_us = {100, 100, 100, 1200};
  CHECK(!perfbench::step_sustained(sparse, limit, slack));

  // Backlog growth: a steady climb is growth even while latency is low;
  // a noisy plateau is not.
  std::vector<double> climb;
  for (int i = 0; i < 300; ++i) climb.push_back(i * 2.0);
  CHECK(perfbench::backlog_grows(climb, slack));
  std::vector<double> plateau;
  for (int i = 0; i < 300; ++i) plateau.push_back(i % 2 == 0 ? 0.0 : 32.0);
  CHECK(!perfbench::backlog_grows(plateau, slack));
  perfbench::StepObservation growing = healthy_step(500);
  growing.backlog = climb;
  CHECK(!perfbench::step_sustained(growing, limit, slack));
  CHECK(!perfbench::backlog_grows({}, slack));

  // The grid search finds the highest passing index of a monotone rule
  // in O(log n) steps, and -1 when nothing passes.
  const std::vector<double> grid = perfbench::rate_grid(1000, 64000, 1.05);
  CHECK(grid.size() == 86 && grid.front() == 1000.0);
  for (const int threshold : {-1, 0, 1, 40, 84, 85}) {
    int evaluations = 0;
    const int best = perfbench::highest_sustained(grid.size(), [&](int i) {
      ++evaluations;
      return i <= threshold;
    });
    CHECK(best == threshold);
    CHECK(evaluations <= 7);
  }
}

}  // namespace

int main() {
  tail_percentile_rule();
  self_time_over_nested_spans();
  server_time_by_burst();
  sustained_rate_rule();
  if (failures != 0) return 1;
  std::printf("stats_test: all checks passed\n");
  return 0;
}
