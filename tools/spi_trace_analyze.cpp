/// \file spi_trace_analyze.cpp
/// Post-mortem bottleneck attribution over a flight-recorder dump: reads
/// the event log written by `spi_compile --flight-out` (or by a
/// JobInstance's recorder / sim::to_flight_log directly), reconstructs the
/// causal DAG, and reports the realized critical path with per-channel
/// and per-actor attribution.
///
///   spi_trace_analyze flight.json                    # JSON report on stdout
///   spi_trace_analyze -o report.json flight.json     # ... to a file
///   spi_trace_analyze --plan plan.json flight.json   # + predicted-MCM comparison
///   spi_trace_analyze --mcm-scale 1000 ...           # cycles->units exchange rate
///   spi_trace_analyze --chrome-out cp.json flight.json
///                                    # Chrome trace with the critical path
///                                    # overlaid as flow events (Perfetto)
///   spi_trace_analyze --metrics flight.json
///                                    # spi_critpath_* gauges (Prometheus text)
///                                    # on stdout, report to stderr
///   spi_trace_analyze --serve-trace trace.json --chrome-out serve.json
///                                    # Chrome trace of a spi_served GET /trace
///                                    # dump: one row per tenant, per-request
///                                    # stage slices with queue-wait bars
///   spi_trace_analyze --serve-trace trace.json --chrome-out merged.json flight.json
///                                    # ... merged with a sampled batch's
///                                    # flight log (GET /trace/flight),
///                                    # time-aligned on the batch markers
///
/// The plan is only consulted for its predicted MCM; the dump itself
/// carries the names and topology needed for attribution, so analyzing
/// a dump without its plan still yields the full report.
///
/// Exit codes: 0 success, 1 I/O or parse error, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/text_escape.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: spi_trace_analyze [--plan FILE] [--mcm-scale X] [-o FILE]\n"
               "                         [--chrome-out FILE] [--metrics] <flight.json>\n"
               "       spi_trace_analyze --serve-trace TRACE [--chrome-out FILE] [flight.json]\n");
  return 2;
}

bool read_file(const std::string& path, std::string& content) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "spi_trace_analyze: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  content = buffer.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "spi_trace_analyze: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// ---------------------------------------------------------------------------
// --serve-trace: Chrome export of a spi_served GET /trace dump.
//
// The dump's span objects are deliberately flat (obs/request_trace.cpp), so
// a brace scan plus per-key field extraction is a complete parser for them —
// no nested objects, no escapes beyond \" in tenant/app names.

/// One request-lifecycle span as dumped by GET /trace. Stage durations
/// tile [ingest, ingest + e2e): admission, queue, batch, exec, reply.
struct ServeSpan {
  long long id = 0;
  std::string tenant;
  std::string app;
  long long status = 0;
  long long batch = -1;
  long long batch_size = 0;
  long long ingest_ns = 0;
  long long stage_ns[5] = {0, 0, 0, 0, 0};
};

constexpr const char* kServeStageKeys[5] = {"admission_ns", "queue_ns", "batch_ns", "exec_ns",
                                            "reply_ns"};
constexpr const char* kServeStageNames[5] = {"admission", "queue", "batch", "exec", "reply"};

long long span_field_int(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return 0;
  return std::atoll(obj.c_str() + at + needle.size());
}

std::string span_field_string(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  std::size_t at = obj.find(needle);
  if (at == std::string::npos) return {};
  at += needle.size();
  std::string value;
  while (at < obj.size() && obj[at] != '"') {
    if (obj[at] == '\\' && at + 1 < obj.size()) ++at;  // \" and \\ in tenant names
    value += obj[at++];
  }
  return value;
}

/// Brace-scans the array named `key` for flat span objects, appending any
/// span whose id is not already in `seen` (the ring and the outlier
/// reservoir can both hold the same request).
void parse_span_array(const std::string& text, const char* key, std::vector<ServeSpan>& spans,
                      std::map<long long, bool>& seen) {
  const std::string needle = std::string("\"") + key + "\": [";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) return;
  at += needle.size();
  const std::size_t close = text.find(']', at);
  while (true) {
    const std::size_t open = text.find('{', at);
    if (open == std::string::npos || (close != std::string::npos && open > close)) break;
    const std::size_t end = text.find('}', open);
    if (end == std::string::npos) break;
    const std::string obj = text.substr(open, end - open + 1);
    at = end + 1;
    ServeSpan span;
    span.id = span_field_int(obj, "id");
    if (span.id <= 0 || seen.count(span.id)) continue;
    seen[span.id] = true;
    span.tenant = span_field_string(obj, "tenant");
    span.app = span_field_string(obj, "app");
    span.status = span_field_int(obj, "status");
    span.batch = span_field_int(obj, "batch");
    span.batch_size = span_field_int(obj, "batch_size");
    span.ingest_ns = span_field_int(obj, "ingest_ns");
    for (int s = 0; s < 5; ++s) span.stage_ns[s] = span_field_int(obj, kServeStageKeys[s]);
    spans.push_back(std::move(span));
  }
}

std::vector<ServeSpan> parse_serve_trace(const std::string& text) {
  std::vector<ServeSpan> spans;
  std::map<long long, bool> seen;
  parse_span_array(text, "spans", spans, seen);
  parse_span_array(text, "outliers", spans, seen);
  return spans;
}

void append_chrome_double(std::string& out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3f", v);
  out += buffer;
}

/// Comma/newline-joined Chrome events for the serve spans: pid 1, one
/// thread row per tenant, stage X-slices tiling each request (queue wait
/// categorized "wait" so it renders as the idle bars between admission
/// and batch formation). `offset_us` shifts serve timestamps into the
/// flight log's timebase when the two documents are merged.
std::string serve_chrome_events(const std::vector<ServeSpan>& spans, double offset_us) {
  std::map<std::string, int> tenant_tid;
  for (const ServeSpan& span : spans) tenant_tid.emplace(span.tenant, 0);
  int next_tid = 0;
  for (auto& [tenant, tid] : tenant_tid) tid = next_tid++;

  std::string out;
  bool first = true;
  auto item = [&]() -> std::string& {
    if (!first) out += ",";
    first = false;
    out += "\n";
    return out;
  };
  item() +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"spi_served requests\"}}";
  for (const auto& [tenant, tid] : tenant_tid) {
    std::string& o = item();
    o += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":\"tenant ";
    spi::obs::detail::append_json_escaped(o, tenant);
    o += "\"}}";
  }
  for (const ServeSpan& span : spans) {
    const int tid = tenant_tid[span.tenant];
    double ts_us = static_cast<double>(span.ingest_ns) / 1000.0 + offset_us;
    for (int s = 0; s < 5; ++s) {
      const double dur_us = static_cast<double>(span.stage_ns[s]) / 1000.0;
      if (span.stage_ns[s] <= 0) continue;
      std::string& o = item();
      o += "{\"name\":\"";
      o += kServeStageNames[s];
      o += "\",\"cat\":\"";
      o += s == 1 ? "wait" : "stage";  // queue wait renders as idle bars
      o += "\",\"ph\":\"X\",\"ts\":";
      append_chrome_double(o, ts_us);
      o += ",\"dur\":";
      append_chrome_double(o, dur_us);
      o += ",\"pid\":1,\"tid\":" + std::to_string(tid);
      o += ",\"args\":{\"request\":" + std::to_string(span.id) + ",\"app\":\"";
      spi::obs::detail::append_json_escaped(o, span.app);
      o += "\",\"status\":" + std::to_string(span.status) +
           ",\"batch\":" + std::to_string(span.batch) +
           ",\"batch_size\":" + std::to_string(span.batch_size) + "}}";
      ts_us += dur_us;
    }
  }
  return out;
}

/// Time shift (µs) that moves serve-span timestamps into the flight log's
/// timebase: matches a kBatchBegin marker (seq == batch id) against the
/// exec-begin stamp of a span from that batch. 0.0 when no batch of the
/// trace appears in the flight log (the documents still merge — rows are
/// just not aligned).
double serve_flight_offset_us(const std::vector<ServeSpan>& spans, const spi::obs::FlightLog& log) {
  if (log.time_unit != "ns") return 0.0;
  for (const spi::obs::FlightEvent& event : log.events) {
    if (event.kind != spi::obs::FlightEventKind::kBatchBegin) continue;
    for (const ServeSpan& span : spans) {
      if (span.batch != event.seq) continue;
      const long long exec_begin_ns =
          span.ingest_ns + span.stage_ns[0] + span.stage_ns[1] + span.stage_ns[2];
      return static_cast<double>(event.t - exec_begin_ns) / 1000.0;
    }
  }
  std::fprintf(stderr,
               "spi_trace_analyze: no batch of the serve trace appears in the flight log; "
               "rows are merged but not time-aligned\n");
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path;
  std::string out_path;
  std::string chrome_out;
  std::string flight_path;
  std::string serve_trace_path;
  double mcm_scale = 1.0;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plan") {
      if (++i >= argc) return usage();
      plan_path = argv[i];
    } else if (arg == "--serve-trace") {
      if (++i >= argc) return usage();
      serve_trace_path = argv[i];
    } else if (arg == "-o") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else if (arg == "--chrome-out") {
      if (++i >= argc) return usage();
      chrome_out = argv[i];
    } else if (arg == "--mcm-scale") {
      if (++i >= argc) return usage();
      char* end = nullptr;
      mcm_scale = std::strtod(argv[i], &end);
      if (end == argv[i] || *end != '\0' || mcm_scale <= 0.0) {
        std::fprintf(stderr, "spi_trace_analyze: --mcm-scale needs a positive number, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      if (!flight_path.empty()) return usage();
      flight_path = arg;
    }
  }
  if (flight_path.empty() && serve_trace_path.empty()) return usage();

  if (!serve_trace_path.empty()) {
    try {
      std::string trace_text;
      if (!read_file(serve_trace_path, trace_text)) return 1;
      const std::vector<ServeSpan> spans = parse_serve_trace(trace_text);
      if (spans.empty()) {
        std::fprintf(stderr, "spi_trace_analyze: no spans in '%s' (is tracing enabled?)\n",
                     serve_trace_path.c_str());
        return 1;
      }

      std::string doc;
      if (!flight_path.empty()) {
        // Merge: the flight chrome doc (pid 0, critical path + flow
        // arrows) plus the serve rows (pid 1), serve timestamps shifted
        // into the flight timebase via the kBatchBegin markers.
        std::string flight_text;
        if (!read_file(flight_path, flight_text)) return 1;
        const spi::obs::FlightLog log = spi::obs::FlightLog::from_json(flight_text);
        const spi::obs::CriticalPathReport report =
            spi::obs::analyze_critical_path(log, spi::obs::AnalyzeOptions{});
        doc = report.to_chrome_trace_json(log);
        const std::string tail = "\n],\"displayTimeUnit\":\"ms\"}\n";
        const std::size_t at = doc.rfind(tail);
        if (at == std::string::npos) {
          std::fprintf(stderr, "spi_trace_analyze: unexpected chrome trace tail\n");
          return 1;
        }
        doc.insert(at, "," + serve_chrome_events(spans, serve_flight_offset_us(spans, log)));
      } else {
        doc = "{\"traceEvents\":[" + serve_chrome_events(spans, 0.0) +
              "\n],\"displayTimeUnit\":\"ms\"}\n";
      }

      if (!chrome_out.empty()) {
        if (!write_file(chrome_out, doc)) return 1;
        std::fprintf(stderr, "spi_trace_analyze: wrote %zu serve spans to %s\n", spans.size(),
                     chrome_out.c_str());
      } else {
        std::printf("%s", doc.c_str());
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spi_trace_analyze: %s\n", e.what());
      return 1;
    }
  }

  try {
    std::string flight_text;
    if (!read_file(flight_path, flight_text)) return 1;
    const spi::obs::FlightLog log = spi::obs::FlightLog::from_json(flight_text);

    spi::obs::AnalyzeOptions options;
    options.mcm_scale = mcm_scale;
    if (!plan_path.empty()) {
      std::string plan_text;
      if (!read_file(plan_path, plan_text)) return 1;
      const spi::core::ExecutablePlan plan = spi::core::ExecutablePlan::from_json(plan_text);
      options.predicted_mcm = plan.predicted_mcm();
      // Headline the compile-time witness next to the realized critical
      // path: the tasks of the cycle whose mean IS the predicted MCM.
      if (plan.resync && !plan.resync->critical_cycle.empty()) {
        std::string cycle;
        for (std::int32_t t : plan.resync->critical_cycle) {
          if (!cycle.empty()) cycle += " -> ";
          const std::string& name = plan.sync_graph.task(t).name;
          cycle += name.empty() ? ("task" + std::to_string(t)) : name;
        }
        std::fprintf(stderr, "spi_trace_analyze: predicted critical cycle (MCM %.6g): %s\n",
                     options.predicted_mcm, cycle.c_str());
      }
    }

    const spi::obs::CriticalPathReport report = spi::obs::analyze_critical_path(log, options);

    // Headline how close the run came to the schedule-theoretic floor,
    // and whether cross-iteration pipelining was actually realized
    // (depth 1 = barriered / strictly iteration-sequential workers).
    const double realized = report.realized_period_steady > 0.0
                                ? report.realized_period_steady
                                : report.realized_period_avg;
    if (report.pipelined_iterations_max > 1) {
      std::fprintf(stderr,
                   "spi_trace_analyze: pipelined execution, up to %lld iterations in "
                   "flight; realized steady period %.6g\n",
                   static_cast<long long>(report.pipelined_iterations_max), realized);
    } else {
      std::fprintf(stderr,
                   "spi_trace_analyze: barriered execution (1 iteration in flight); "
                   "realized steady period %.6g\n",
                   realized);
    }
    if (report.period_ratio > 0.0) {
      std::fprintf(stderr,
                   "spi_trace_analyze: realized/MCM = %.4g (predicted MCM %.6g)%s\n",
                   report.period_ratio, report.predicted_mcm,
                   report.period_ratio <= 1.1
                       ? " — within 10% of the bound"
                       : "");
    }

    if (!chrome_out.empty() && !write_file(chrome_out, report.to_chrome_trace_json(log)))
      return 1;

    const std::string report_json = report.to_json();
    if (!out_path.empty()) {
      if (!write_file(out_path, report_json)) return 1;
    }
    if (metrics) {
      // Metrics own stdout; the report moves to stderr (or the -o file).
      spi::obs::MetricRegistry registry;
      report.publish_metrics(registry);
      std::printf("%s", registry.to_prometheus().c_str());
      if (out_path.empty()) std::fprintf(stderr, "%s\n", report_json.c_str());
    } else if (out_path.empty()) {
      std::printf("%s\n", report_json.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spi_trace_analyze: %s\n", e.what());
    return 1;
  }
}
