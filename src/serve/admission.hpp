/// \file admission.hpp
/// Admission control for the plan server (docs/serving.md).
///
/// One resource is budgeted, producing a typed 429 reject:
///
///  * "queue-depth" — per-tenant queued jobs. A tenant whose queue is
///    full is rejected without touching other tenants' budgets
///    (per-tenant isolation: one chatty tenant cannot starve the rest).
///
/// Rejections are backpressure, not errors: the client retries later,
/// and the loadgen's open-loop mode measures exactly this behavior.
#pragma once

#include <cstdint>
#include <string>

namespace spi::serve {

struct AdmissionDecision {
  bool admitted = true;
  /// Machine-readable reject reason ("queue-depth"), empty when
  /// admitted. Servers surface it in the 429 body and in the
  /// spi_serve_rejects_total{reason=...} counter.
  std::string reason;
};

class AdmissionController {
 public:
  struct Options {
    std::int64_t max_queue_depth = 4096;  ///< per tenant
  };

  AdmissionController() : AdmissionController(Options{}) {}
  explicit AdmissionController(Options options) : options_(options) {}

  /// Admit one job into a tenant queue currently holding `queued` jobs.
  AdmissionDecision admit_job(std::int64_t queued) {
    if (queued >= options_.max_queue_depth) {
      ++rejected_queue_;
      return {false, "queue-depth"};
    }
    return {};
  }

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::int64_t rejected_queue() const { return rejected_queue_; }

 private:
  Options options_;
  std::int64_t rejected_queue_ = 0;
};

}  // namespace spi::serve
