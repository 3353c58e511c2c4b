#include "obs/request_trace.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/text_escape.hpp"

namespace spi::obs {

namespace {

/// Same decade span as spi_serve_burst_seconds: 1 us .. ~260 ms.
std::vector<double> stage_bounds() { return Histogram::exponential_bounds(1e-6, 4.0, 10); }

void append_span_json(std::string& out, const StoredRequestSpan& stored) {
  const RequestSpan& s = stored.span;
  out += "{\"id\": " + std::to_string(s.id);
  out += ", \"tenant\": \"";
  detail::append_json_escaped(out, stored.tenant);
  out += "\", \"app\": \"";
  detail::append_json_escaped(out, stored.app);
  out += "\", \"status\": " + std::to_string(s.status);
  out += ", \"batch\": " + std::to_string(s.batch_id);
  out += ", \"batch_size\": " + std::to_string(s.batch_size);
  out += ", \"sampled\": ";
  out += s.sampled ? "true" : "false";
  out += ", \"ingest_ns\": " + std::to_string(s.ingest_ns);
  for (std::size_t k = 0; k < kRequestStageCount; ++k) {
    out += ", \"";
    out += request_stage_name(static_cast<RequestStage>(k));
    out += "_ns\": " + std::to_string(s.stage_ns[k]);
  }
  out += ", \"e2e_ns\": " + std::to_string(s.e2e_ns()) + "}";
}

void append_us(std::string& out, double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", us);
  out += buf;
}

}  // namespace

const char* request_stage_name(RequestStage stage) {
  switch (stage) {
    case RequestStage::kAdmission: return "admission";
    case RequestStage::kQueue: return "queue";
    case RequestStage::kBatch: return "batch";
    case RequestStage::kExec: return "exec";
    case RequestStage::kReply: return "reply";
  }
  return "?";
}

RequestTracer::RequestTracer(RequestTracerOptions options, MetricRegistry& registry)
    : options_(options),
      registry_(registry),
      sample_every_(std::max<std::int64_t>(1, options.sample_every)),
      flight_every_(std::max<std::int64_t>(1, options.flight_every)),
      epoch_(std::chrono::steady_clock::now()) {
  options_.sample_every = sample_every_;
  options_.flight_every = flight_every_;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  ring_.reserve(options_.ring_capacity);
}

std::int64_t RequestTracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t RequestTracer::begin_span() {
  return static_cast<std::uint64_t>(requests_total_.fetch_add(1, std::memory_order_relaxed)) + 1;
}

TenantSeries* RequestTracer::make_series(const std::string& tenant) {
  auto series = std::make_unique<TenantSeries>();
  series->name = tenant;
  const Labels tenant_label{{"tenant", tenant}};
  series->requests = &registry_.counter("spi_serve_trace_requests_total", tenant_label,
                                        "completed traced requests per tenant");
  series->rejects = &registry_.counter("spi_serve_trace_rejects_total", tenant_label,
                                       "traced requests answered 429 per tenant");
  series->e2e_ns = &registry_.counter("spi_serve_request_ns_total", tenant_label,
                                      "summed end-to-end request ns per tenant");
  series->e2e_seconds = &registry_.histogram("spi_serve_request_seconds", stage_bounds(),
                                             tenant_label, "end-to-end request latency");
  for (std::size_t k = 0; k < kRequestStageCount; ++k) {
    const char* stage = request_stage_name(static_cast<RequestStage>(k));
    const Labels labels{{"stage", stage}, {"tenant", tenant}};
    series->stage_ns[k] = &registry_.counter("spi_serve_stage_ns_total", labels,
                                             "summed per-stage request ns");
    series->stage_seconds[k] = &registry_.histogram("spi_serve_stage_seconds", stage_bounds(),
                                                    labels, "per-stage request latency");
  }
  TenantSeries* raw = series.get();
  series_.emplace(tenant, std::move(series));
  return raw;
}

TenantSeries* RequestTracer::tenant_series(const std::string& tenant) {
  if (!options_.enabled) return nullptr;
  const auto it = series_.find(tenant);
  if (it != series_.end()) return it->second.get();
  if (series_.size() >= options_.max_tenants) {
    // Cardinality cap: overflow tenants share the "_other" series.
    if (other_series_ == nullptr) other_series_ = make_series("_other");
    return other_series_;
  }
  return make_series(tenant);
}

void RequestTracer::complete(TenantSeries& series, const RequestSpan& span,
                             const std::string& tenant, const std::string& app) {
  series.requests->inc();
  if (span.status == 429) series.rejects->inc();
  std::int64_t e2e = 0;
  for (std::size_t k = 0; k < kRequestStageCount; ++k) {
    const std::int64_t ns = span.stage_ns[k];
    if (ns != 0) series.stage_ns[k]->inc(ns);
    series.stage_seconds[k]->observe(static_cast<double>(ns) * 1e-9);
    e2e += ns;
  }
  series.e2e_ns->inc(e2e);
  series.e2e_seconds->observe(static_cast<double>(e2e) * 1e-9);

  if (span.sampled) {
    sampled_total_.fetch_add(1, std::memory_order_relaxed);
    if (ring_.size() < options_.ring_capacity) {
      ring_.push_back({span, tenant, app});
    } else {
      StoredRequestSpan& slot = ring_[ring_count_ % options_.ring_capacity];
      slot.span = span;
      slot.tenant = tenant;
      slot.app = app;
    }
    ++ring_count_;
  }

  // Tail outliers bypass the sampling decision: admission to the
  // reservoir only needs one integer compare on the non-outlier path.
  if (outliers_.size() < options_.outlier_capacity || e2e > outlier_min_ns_)
    store_outlier(span, tenant, app);
}

void RequestTracer::store_outlier(const RequestSpan& span, const std::string& tenant,
                                  const std::string& app) {
  if (options_.outlier_capacity == 0) return;
  if (outliers_.size() < options_.outlier_capacity) {
    outliers_.push_back({span, tenant, app});
  } else {
    auto slowest_min =
        std::min_element(outliers_.begin(), outliers_.end(),
                         [](const StoredRequestSpan& a, const StoredRequestSpan& b) {
                           return a.span.e2e_ns() < b.span.e2e_ns();
                         });
    *slowest_min = {span, tenant, app};
  }
  if (outliers_.size() == options_.outlier_capacity) {
    outlier_min_ns_ = outliers_.front().span.e2e_ns();
    for (const StoredRequestSpan& s : outliers_)
      outlier_min_ns_ = std::min(outlier_min_ns_, s.span.e2e_ns());
  }
}

void RequestTracer::note_flight(std::int64_t batch_id, FlightLog log) {
  flight_batch_ = batch_id;
  flight_log_ = std::move(log);
}

std::string RequestTracer::trace_json() const {
  std::string out = "{\"schema\": 1, \"enabled\": ";
  out += options_.enabled ? "true" : "false";
  out += ", \"sample_every\": " + std::to_string(sample_every_);
  out += ", \"flight_every\": " + std::to_string(flight_every_);
  out += ", \"ring_capacity\": " + std::to_string(options_.ring_capacity);
  out += ", \"outlier_capacity\": " + std::to_string(options_.outlier_capacity);
  out += ", \"requests_total\": " + std::to_string(requests_total());
  out += ", \"sampled_total\": " + std::to_string(sampled_total());
  out += ", \"spans_evicted\": " +
         std::to_string(ring_count_ > ring_.size() ? ring_count_ - ring_.size() : 0);
  out += ", \"flight_batch\": " + std::to_string(flight_batch_);
  out += ",\n \"spans\": [\n";
  const std::uint64_t held = ring_.size();
  for (std::uint64_t i = 0; i < held; ++i) {
    // Oldest first: the ring index of the (count - held + i)-th span.
    const StoredRequestSpan& stored = ring_[(ring_count_ - held + i) % options_.ring_capacity];
    out += "  ";
    append_span_json(out, stored);
    out += i + 1 < held ? ",\n" : "\n";
  }
  out += " ],\n \"outliers\": [\n";
  std::vector<const StoredRequestSpan*> slowest;
  slowest.reserve(outliers_.size());
  for (const StoredRequestSpan& s : outliers_) slowest.push_back(&s);
  std::sort(slowest.begin(), slowest.end(),
            [](const StoredRequestSpan* a, const StoredRequestSpan* b) {
              return a->span.e2e_ns() > b->span.e2e_ns();
            });
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    out += "  ";
    append_span_json(out, *slowest[i]);
    out += i + 1 < slowest.size() ? ",\n" : "\n";
  }
  out += " ]\n}\n";
  return out;
}

void RequestTracer::append_rollup_json(std::string& out, const TenantSeries& series) const {
  const std::int64_t requests = series.requests->value();
  const double n = requests > 0 ? static_cast<double>(requests) : 1.0;
  out += "\"requests\": " + std::to_string(requests);
  out += ", \"rejects\": " + std::to_string(series.rejects->value());
  out += ", \"series\": \"";
  detail::append_json_escaped(out, series.name);
  out += "\", \"e2e\": {\"ns_total\": " + std::to_string(series.e2e_ns->value());
  out += ", \"us_mean\": ";
  append_us(out, static_cast<double>(series.e2e_ns->value()) / n / 1e3);
  out += ", \"us_p50\": ";
  append_us(out, series.e2e_seconds->quantile(0.50) * 1e6);
  out += ", \"us_p99\": ";
  append_us(out, series.e2e_seconds->quantile(0.99) * 1e6);
  out += "}, \"stages\": {";
  for (std::size_t k = 0; k < kRequestStageCount; ++k) {
    if (k != 0) out += ", ";
    out += "\"";
    out += request_stage_name(static_cast<RequestStage>(k));
    out += "\": {\"ns_total\": " + std::to_string(series.stage_ns[k]->value());
    out += ", \"us_mean\": ";
    append_us(out, static_cast<double>(series.stage_ns[k]->value()) / n / 1e3);
    out += ", \"us_p99\": ";
    append_us(out, series.stage_seconds[k]->quantile(0.99) * 1e6);
    out += "}";
  }
  out += "}";
}

}  // namespace spi::obs
