#include "core/plan.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/reliable_link.hpp"

namespace spi::core {

namespace {

// --- JSON emission --------------------------------------------------------

std::string escape(const std::string& s) {
  std::string r;
  for (char c : s) {
    if (c == '"' || c == '\\') r.push_back('\\');
    r.push_back(c);
  }
  return r;
}

/// Doubles print exactly (round-trip through strtod) and deterministically:
/// integral values as "N.0", everything else with max_digits10 precision.
std::string format_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64 ".0", static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* kind_name(sched::SyncEdgeKind kind) {
  switch (kind) {
    case sched::SyncEdgeKind::kSequence: return "sequence";
    case sched::SyncEdgeKind::kIpc: return "ipc";
    case sched::SyncEdgeKind::kAck: return "ack";
    case sched::SyncEdgeKind::kResync: return "resync";
  }
  return "sequence";
}

sched::SyncEdgeKind kind_from_name(const std::string& name) {
  if (name == "sequence") return sched::SyncEdgeKind::kSequence;
  if (name == "ipc") return sched::SyncEdgeKind::kIpc;
  if (name == "ack") return sched::SyncEdgeKind::kAck;
  if (name == "resync") return sched::SyncEdgeKind::kResync;
  throw std::invalid_argument("ExecutablePlan: unknown sync-edge kind '" + name + "'");
}

template <typename T>
void write_int_array(std::ostringstream& out, const std::vector<T>& values) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ", ";
    out << static_cast<std::int64_t>(values[i]);
  }
  out << "]";
}

// --- JSON parsing ---------------------------------------------------------
//
// A minimal recursive-descent parser for the subset to_json() emits
// (objects, arrays, strings, numbers, booleans, null). Kept private to
// this translation unit — the repo deliberately has no external JSON
// dependency (tools/json_check.cpp is the same-idiom validator).

struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::int64_t integer = 0;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const char* key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
  [[nodiscard]] const JsonValue& at(const char* key) const {
    const JsonValue* v = find(key);
    if (!v) throw std::invalid_argument(std::string("ExecutablePlan: missing key '") + key + "'");
    return *v;
  }
  [[nodiscard]] std::int64_t as_int(const char* what) const {
    if (kind != Kind::kInt)
      throw std::invalid_argument(std::string("ExecutablePlan: '") + what + "' is not an integer");
    return integer;
  }
  [[nodiscard]] double as_double(const char* what) const {
    if (kind == Kind::kInt) return static_cast<double>(integer);
    if (kind != Kind::kDouble)
      throw std::invalid_argument(std::string("ExecutablePlan: '") + what + "' is not a number");
    return number;
  }
  [[nodiscard]] const std::string& as_string(const char* what) const {
    if (kind != Kind::kString)
      throw std::invalid_argument(std::string("ExecutablePlan: '") + what + "' is not a string");
    return string;
  }
  [[nodiscard]] bool as_bool(const char* what) const {
    if (kind != Kind::kBool)
      throw std::invalid_argument(std::string("ExecutablePlan: '") + what + "' is not a boolean");
    return boolean;
  }
  [[nodiscard]] const std::vector<JsonValue>& as_array(const char* what) const {
    if (kind != Kind::kArray)
      throw std::invalid_argument(std::string("ExecutablePlan: '") + what + "' is not an array");
    return array;
  }

  [[nodiscard]] std::vector<std::int64_t> as_int_vector(const char* what) const {
    std::vector<std::int64_t> values;
    values.reserve(as_array(what).size());
    for (const JsonValue& v : array) values.push_back(v.as_int(what));
    return values;
  }
  /// as_int for 32-bit ids and counts: out-of-range values are rejected,
  /// never wrapped into a different (possibly valid) id.
  [[nodiscard]] std::int32_t as_int32(const char* what) const {
    const std::int64_t value = as_int(what);
    if (value < std::numeric_limits<std::int32_t>::min() ||
        value > std::numeric_limits<std::int32_t>::max())
      throw std::invalid_argument(std::string("ExecutablePlan: '") + what + "' is out of range");
    return static_cast<std::int32_t>(value);
  }
  [[nodiscard]] std::vector<std::int32_t> as_int32_vector(const char* what) const {
    std::vector<std::int32_t> values;
    values.reserve(as_array(what).size());
    for (const JsonValue& v : array) values.push_back(v.as_int32(what));
    return values;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("ExecutablePlan: JSON parse error at byte " +
                                std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("malformed number");
    JsonValue v;
    char* end = nullptr;
    if (fractional) {
      v.kind = JsonValue::Kind::kDouble;
      v.number = std::strtod(token.c_str(), &end);
    } else {
      v.kind = JsonValue::Kind::kInt;
      v.integer = std::strtoll(token.c_str(), &end, 10);
    }
    if (end != token.c_str() + token.size()) fail("malformed number '" + token + "'");
    return v;
  }

  JsonValue value() {
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::Kind::kObject;
      if (!consume('}')) {
        do {
          std::string key = parse_string();
          expect(':');
          v.object.emplace_back(std::move(key), value());
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      ++pos_;
      v.kind = JsonValue::Kind::kArray;
      if (!consume(']')) {
        do {
          v.array.push_back(value());
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
    } else if (c == 't' && consume_word("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (c == 'f' && consume_word("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
    } else if (c == 'n' && consume_word("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      v = parse_number();
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

// --- lookup ---------------------------------------------------------------

const ChannelSpec* ExecutablePlan::find_channel(df::EdgeId edge) const {
  if (edge < 0 || static_cast<std::size_t>(edge) >= channel_index.size()) return nullptr;
  const std::int32_t slot = channel_index[static_cast<std::size_t>(edge)];
  return slot < 0 ? nullptr : &channels[static_cast<std::size_t>(slot)];
}

std::int64_t ChannelSpec::capacity_tokens() const {
  std::int64_t per_iteration = 0;
  std::int64_t window = 0;
  std::int64_t capacity = 0;
  if (__builtin_mul_overflow(prod_tokens, src_firings_per_iteration, &per_iteration) ||
      __builtin_mul_overflow(bbs_capacity_tokens.value_or(1), per_iteration, &window) ||
      __builtin_add_overflow(window, delay_tokens, &capacity))
    return -1;
  return capacity;
}

std::int64_t ExecutablePlan::token_bound_bytes(df::EdgeId edge) const {
  const df::VtsEdgeInfo& info = vts.edges.at(static_cast<std::size_t>(edge));
  return info.converted ? info.b_max_bytes : vts.graph.edge(edge).token_bytes;
}

const ChannelSpec& ExecutablePlan::channel_for(df::EdgeId edge) const {
  const ChannelSpec* spec = find_channel(edge);
  if (!spec) throw std::out_of_range("ExecutablePlan::channel_for: edge is not interprocessor");
  return *spec;
}

void ExecutablePlan::rebuild_channel_index() {
  channel_index.assign(vts.graph.edge_count(), -1);
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const df::EdgeId edge = channels[i].edge;
    if (edge < 0 || static_cast<std::size_t>(edge) >= channel_index.size())
      throw std::invalid_argument("ExecutablePlan: channel references unknown edge " +
                                  std::to_string(edge));
    channel_index[static_cast<std::size_t>(edge)] = static_cast<std::int32_t>(i);
  }
}

std::unordered_set<df::EdgeId> ExecutablePlan::dynamic_edges() const {
  std::unordered_set<df::EdgeId> edges;
  for (std::size_t i = 0; i < vts.edges.size(); ++i)
    if (vts.edges[i].converted) edges.insert(static_cast<df::EdgeId>(i));
  return edges;
}

std::unique_ptr<SpiBackend> ExecutablePlan::make_backend() const {
  return std::make_unique<SpiBackend>(costs, dynamic_edges());
}

std::uint64_t ExecutablePlan::content_hash() const {
  // FNV-1a over (schema, topology, exec), little-endian byte order. The
  // schema version participates so a breaking encoding change can never
  // leave two different encodings under one key.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(kSchemaVersion));
  mix(fingerprints.topology);
  mix(fingerprints.exec);
  return h;
}

std::string ExecutablePlan::content_hash_hex() const {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << std::setw(16) << content_hash();
  return out.str();
}

// --- report / metrics -----------------------------------------------------

std::string ExecutablePlan::report() const {
  std::ostringstream out;
  out << "SPI system: " << graph_name << "\n";
  out << "  actors: " << vts.graph.actor_count() << ", edges: " << vts.graph.edge_count()
      << ", processors: " << proc_count << "\n";
  out << "  tasks (HSDF): " << sync_graph.task_count()
      << ", firings/iteration: " << repetitions.total_firings() << "\n";
  out << "  content hash: " << content_hash_hex() << "\n";
  out << "  interprocessor channels: " << channels.size() << "\n";
  for (const ChannelSpec& plan : channels) {
    out << "    [" << plan.edge << "] " << plan.name << ": "
        << (plan.mode == SpiMode::kDynamic ? "SPI_dynamic" : "SPI_static") << " / "
        << (plan.protocol == sched::SyncProtocol::kBbs ? "BBS" : "UBS")
        << ", b_max=" << plan.b_max_bytes << "B, c(e)=" << plan.c_bytes << "B";
    if (plan.bbs_capacity_tokens)
      out << ", B(e)=" << *plan.bbs_capacity_tokens << " msgs (" << *plan.bbs_capacity_bytes
          << "B)";
    if (plan.acks_total > 0)
      out << ", acks " << (plan.acks_total - plan.acks_elided) << "/" << plan.acks_total
          << " (elided " << plan.acks_elided << ")";
    out << "\n";
  }
  if (resync) {
    out << "  resynchronization: +" << resync->edges_added << " sync edges, -"
        << resync->edges_removed << " redundant, acks " << resync->acks_before << " -> "
        << resync->acks_after << ", MCM " << resync->mcm_before << " -> " << resync->mcm_after
        << "\n";
    if (!resync->critical_cycle.empty()) {
      out << "  critical cycle (bounds throughput):";
      for (std::int32_t t : resync->critical_cycle)
        out << " " << sync_graph.task(t).name;
      out << "\n";
    }
  }
  out << "  messages/iteration: " << messages_per_iteration << "\n";
  return out.str();
}

void ExecutablePlan::publish_metrics(obs::MetricRegistry& registry) const {
  static constexpr const char* kModes[] = {"static", "dynamic"};
  static constexpr const char* kProtocols[] = {"bbs", "ubs"};
  // Zero-initialize the full mode x protocol matrix so exports always
  // carry every combination.
  for (const char* mode : kModes)
    for (const char* protocol : kProtocols)
      registry
          .gauge("spi_plan_channels", {{"mode", mode}, {"protocol", protocol}},
                 "Interprocessor channels in the compiled plan by SPI mode and sync protocol")
          .set(0.0);

  std::int64_t acks_total = 0, acks_elided = 0, eq1_bytes = 0, eq2_bytes = 0;
  for (const ChannelSpec& plan : channels) {
    const char* mode = plan.mode == SpiMode::kDynamic ? "dynamic" : "static";
    const char* protocol = plan.protocol == sched::SyncProtocol::kBbs ? "bbs" : "ubs";
    registry.gauge("spi_plan_channels", {{"mode", mode}, {"protocol", protocol}}).add(1.0);

    const obs::Labels channel{{"channel", plan.name}};
    registry
        .gauge("spi_plan_channel_acks", channel,
               "UBS acknowledgement edges created for one channel")
        .set(static_cast<double>(plan.acks_total));
    registry
        .gauge("spi_plan_channel_acks_elided", channel,
               "Acknowledgement edges removed from one channel by resynchronization")
        .set(static_cast<double>(plan.acks_elided));
    registry
        .gauge("spi_plan_channel_b_max_bytes", channel,
               "Maximum bytes of one message payload (VTS bound)")
        .set(static_cast<double>(plan.b_max_bytes));
    registry
        .gauge("spi_plan_channel_c_bytes", channel,
               "Equation-1 static buffer bytes c_sdf(e) * b_max(e)")
        .set(static_cast<double>(plan.c_bytes));
    if (plan.bbs_capacity_bytes)
      registry
          .gauge("spi_plan_channel_bbs_capacity_bytes", channel,
                 "Equation-2 statically guaranteed BBS buffer bound in bytes")
          .set(static_cast<double>(*plan.bbs_capacity_bytes));
    acks_total += static_cast<std::int64_t>(plan.acks_total);
    acks_elided += static_cast<std::int64_t>(plan.acks_elided);
    eq1_bytes += plan.c_bytes;
    eq2_bytes += plan.bbs_capacity_bytes.value_or(0);
  }

  registry.gauge("spi_plan_acks", {}, "UBS acknowledgement edges created across all channels")
      .set(static_cast<double>(acks_total));
  registry
      .gauge("spi_plan_acks_elided", {},
             "Acknowledgement edges removed across all channels by resynchronization")
      .set(static_cast<double>(acks_elided));
  registry.gauge("spi_plan_eq1_buffer_bytes", {}, "Sum of equation-1 buffer bounds in bytes")
      .set(static_cast<double>(eq1_bytes));
  registry
      .gauge("spi_plan_eq2_buffer_bytes", {},
             "Sum of equation-2 (BBS) statically guaranteed buffer bounds in bytes")
      .set(static_cast<double>(eq2_bytes));
  registry
      .gauge("spi_plan_messages_per_iteration", {},
             "Synchronization messages per graph iteration under the compiled plan")
      .set(static_cast<double>(messages_per_iteration));
  if (resync) {
    registry.gauge("spi_plan_resync_acks_before", {}, "Ack edges before resynchronization")
        .set(static_cast<double>(resync->acks_before));
    registry.gauge("spi_plan_resync_acks_after", {}, "Ack edges after resynchronization")
        .set(static_cast<double>(resync->acks_after));
    registry.gauge("spi_plan_resync_mcm_before", {}, "Maximum cycle mean before resynchronization")
        .set(resync->mcm_before);
    registry.gauge("spi_plan_resync_mcm_after", {}, "Maximum cycle mean after resynchronization")
        .set(resync->mcm_after);
    registry
        .gauge("spi_plan_critical_cycle_tasks", {},
               "Tasks on the witness critical cycle realizing the post-resync MCM")
        .set(static_cast<double>(resync->critical_cycle.size()));
  }
}

// --- serialization --------------------------------------------------------

std::string ExecutablePlan::to_json() const {
  std::ostringstream out;
  out << "{\n  \"schema\": " << kSchemaVersion << ",\n";
  out << "  \"graph\": \"" << escape(graph_name) << "\",\n";
  out << "  \"processors\": " << proc_count << ",\n";
  out << "  \"messages_per_iteration\": " << messages_per_iteration << ",\n";
  if (resync) {
    out << "  \"resynchronization\": {\"acks_before\": " << resync->acks_before
        << ", \"acks_after\": " << resync->acks_after
        << ", \"edges_added\": " << resync->edges_added
        << ", \"edges_removed\": " << resync->edges_removed
        << ", \"mcm_before\": " << format_double(resync->mcm_before)
        << ", \"mcm_after\": " << format_double(resync->mcm_after)
        << ", \"critical_cycle\": ";
    write_int_array(out, resync->critical_cycle);
    out << "},\n";
  }
  // uint64 fingerprints are serialized as strings: JSON numbers above
  // 2^53 are not representable exactly.
  out << "  \"fingerprints\": {\"topology\": \"" << fingerprints.topology
      << "\", \"exec\": \"" << fingerprints.exec << "\", \"content\": \""
      << content_hash_hex() << "\"},\n";
  out << "  \"costs\": {\"send_enqueue_cycles\": " << costs.send_enqueue_cycles
      << ", \"offload_fixed_cycles\": " << costs.offload_fixed_cycles
      << ", \"ack_wire_bytes\": " << costs.ack_wire_bytes << "},\n";

  out << "  \"repetitions\": ";
  write_int_array(out, repetitions.q);
  out << ",\n  \"assignment\": ";
  write_int_array(out, proc_of_actor);

  out << ",\n  \"vts\": {\n    \"name\": \"" << escape(vts.graph.name()) << "\",\n";
  out << "    \"actors\": [";
  for (std::size_t a = 0; a < vts.graph.actor_count(); ++a) {
    const df::Actor& actor = vts.graph.actor(static_cast<df::ActorId>(a));
    if (a) out << ",";
    out << "\n      {\"name\": \"" << escape(actor.name)
        << "\", \"exec_cycles\": " << actor.exec_cycles << "}";
  }
  out << (vts.graph.actor_count() ? "\n    ],\n" : "],\n");
  out << "    \"edges\": [";
  for (std::size_t e = 0; e < vts.graph.edge_count(); ++e) {
    const df::Edge& edge = vts.graph.edge(static_cast<df::EdgeId>(e));
    const df::VtsEdgeInfo& info = vts.edges[e];
    if (e) out << ",";
    out << "\n      {\"src\": " << edge.src << ", \"snk\": " << edge.snk
        << ", \"prod\": " << edge.prod.value() << ", \"cons\": " << edge.cons.value()
        << ", \"delay\": " << edge.delay << ", \"token_bytes\": " << edge.token_bytes
        << ", \"name\": \"" << escape(edge.name) << "\", \"converted\": "
        << (info.converted ? "true" : "false") << ", \"b_max_bytes\": " << info.b_max_bytes
        << ", \"raw_token_bytes\": " << info.raw_token_bytes
        << ", \"prod_rate_bound\": " << info.prod_rate_bound
        << ", \"cons_rate_bound\": " << info.cons_rate_bound << "}";
  }
  out << (vts.graph.edge_count() ? "\n    ]\n  },\n" : "]\n  },\n");

  out << "  \"pass\": {\"firings\": ";
  write_int_array(out, pass.firings);
  out << ", \"buffer_bound\": ";
  write_int_array(out, pass.buffer_bound);
  out << "},\n";

  out << "  \"sync_graph\": {\n    \"proc_count\": " << sync_graph.proc_count() << ",\n";
  out << "    \"tasks\": [";
  for (std::size_t t = 0; t < sync_graph.task_count(); ++t) {
    const sched::TaskNode& task = sync_graph.task(static_cast<std::int32_t>(t));
    if (t) out << ",";
    out << "\n      {\"actor\": " << task.actor << ", \"firing\": " << task.firing
        << ", \"exec_cycles\": " << task.exec_cycles << ", \"name\": \"" << escape(task.name)
        << "\", \"proc\": " << sync_graph.proc_of(static_cast<std::int32_t>(t)) << "}";
  }
  out << (sync_graph.task_count() ? "\n    ],\n" : "],\n");
  out << "    \"edges\": [";
  for (std::size_t i = 0; i < sync_graph.edges().size(); ++i) {
    const sched::SyncEdge& e = sync_graph.edges()[i];
    if (i) out << ",";
    out << "\n      {\"src\": " << e.src << ", \"snk\": " << e.snk << ", \"delay\": " << e.delay
        << ", \"kind\": \"" << kind_name(e.kind) << "\", \"dataflow_edge\": " << e.dataflow_edge
        << ", \"removed\": " << (e.removed ? "true" : "false") << "}";
  }
  out << (sync_graph.edges().empty() ? "]\n  },\n" : "\n    ]\n  },\n");

  out << "  \"proc_order\": [";
  for (std::size_t p = 0; p < proc_order.size(); ++p) {
    if (p) out << ", ";
    write_int_array(out, proc_order[p]);
  }
  out << "],\n";

  out << "  \"programs\": [";
  for (std::size_t p = 0; p < programs.size(); ++p) {
    if (p) out << ",";
    out << "\n    [";
    for (std::size_t s = 0; s < programs[p].size(); ++s) {
      const FiringStep& step = programs[p][s];
      if (s) out << ",";
      out << "\n      {\"actor\": " << step.actor << ", \"invocation\": " << step.invocation
          << ", \"in\": ";
      write_int_array(out, step.in_edges);
      out << ", \"out\": ";
      write_int_array(out, step.out_edges);
      out << "}";
    }
    out << (programs[p].empty() ? "]" : "\n    ]");
  }
  out << (programs.empty() ? "],\n" : "\n  ],\n");

  out << "  \"channels\": [";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelSpec& plan = channels[i];
    if (i) out << ",";
    out << "\n    {\"edge\": " << plan.edge << ", \"name\": \"" << escape(plan.name)
        << "\", \"mode\": \"" << (plan.mode == SpiMode::kDynamic ? "SPI_dynamic" : "SPI_static")
        << "\", \"protocol\": \""
        << (plan.protocol == sched::SyncProtocol::kBbs ? "BBS" : "UBS")
        << "\", \"b_max_bytes\": " << plan.b_max_bytes << ", \"c_bytes\": " << plan.c_bytes;
    if (plan.bbs_capacity_tokens)
      out << ", \"capacity_messages\": " << *plan.bbs_capacity_tokens
          << ", \"capacity_bytes\": " << *plan.bbs_capacity_bytes;
    out << ", \"acks_total\": " << plan.acks_total << ", \"acks_elided\": " << plan.acks_elided
        << ",\n     \"sync_edges\": ";
    write_int_array(out, plan.sync_edges);
    out << ", \"token_bytes\": " << plan.token_bytes
        << ", \"raw_token_bytes\": " << plan.raw_token_bytes
        << ", \"prod_tokens\": " << plan.prod_tokens
        << ", \"delay_tokens\": " << plan.delay_tokens
        << ", \"src_firings_per_iteration\": " << plan.src_firings_per_iteration
        << ", \"reliable\": " << (plan.reliable ? "true" : "false") << "}";
  }
  out << (channels.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

ExecutablePlan ExecutablePlan::from_json(std::string_view text) {
  const JsonValue root = JsonParser(text).parse();
  if (root.kind != JsonValue::Kind::kObject)
    throw std::invalid_argument("ExecutablePlan: top-level JSON value is not an object");
  const std::int64_t schema = root.at("schema").as_int("schema");
  if (schema != kSchemaVersion)
    throw std::invalid_argument("ExecutablePlan: unsupported schema version " +
                                std::to_string(schema) + " (expected " +
                                std::to_string(kSchemaVersion) + ")");

  ExecutablePlan plan;
  plan.graph_name = root.at("graph").as_string("graph");
  plan.proc_count = root.at("processors").as_int32("processors");
  plan.messages_per_iteration =
      static_cast<std::size_t>(root.at("messages_per_iteration").as_int("messages_per_iteration"));

  if (const JsonValue* r = root.find("resynchronization")) {
    sched::ResyncReport report;
    report.acks_before = static_cast<std::size_t>(r->at("acks_before").as_int("acks_before"));
    report.acks_after = static_cast<std::size_t>(r->at("acks_after").as_int("acks_after"));
    report.edges_added = static_cast<std::size_t>(r->at("edges_added").as_int("edges_added"));
    report.edges_removed =
        static_cast<std::size_t>(r->at("edges_removed").as_int("edges_removed"));
    report.mcm_before = r->at("mcm_before").as_double("mcm_before");
    report.mcm_after = r->at("mcm_after").as_double("mcm_after");
    if (const JsonValue* cycle = r->find("critical_cycle"))
      report.critical_cycle = cycle->as_int32_vector("critical_cycle");
    plan.resync = report;
  }

  if (const JsonValue* fp = root.find("fingerprints")) {
    plan.fingerprints.topology =
        std::stoull(fp->at("topology").as_string("fingerprints.topology"));
    plan.fingerprints.exec = std::stoull(fp->at("exec").as_string("fingerprints.exec"));
  }

  const JsonValue& costs = root.at("costs");
  plan.costs.send_enqueue_cycles = costs.at("send_enqueue_cycles").as_int("send_enqueue_cycles");
  plan.costs.offload_fixed_cycles =
      costs.at("offload_fixed_cycles").as_int("offload_fixed_cycles");
  plan.costs.ack_wire_bytes = costs.at("ack_wire_bytes").as_int("ack_wire_bytes");

  plan.repetitions.consistent = true;
  plan.repetitions.q = root.at("repetitions").as_int_vector("repetitions");
  for (std::int64_t p : root.at("assignment").as_int_vector("assignment"))
    plan.proc_of_actor.push_back(static_cast<sched::Proc>(p));

  // --- VTS-converted graph ------------------------------------------------
  const JsonValue& vts = root.at("vts");
  plan.vts.graph = df::Graph(vts.at("name").as_string("vts.name"));
  for (const JsonValue& a : vts.at("actors").as_array("vts.actors"))
    plan.vts.graph.add_actor(a.at("name").as_string("actor.name"),
                             a.at("exec_cycles").as_int("actor.exec_cycles"));
  for (const JsonValue& e : vts.at("edges").as_array("vts.edges")) {
    plan.vts.graph.connect(e.at("src").as_int32("edge.src"),
                           df::Rate::fixed(e.at("prod").as_int("edge.prod")),
                           e.at("snk").as_int32("edge.snk"),
                           df::Rate::fixed(e.at("cons").as_int("edge.cons")),
                           e.at("delay").as_int("edge.delay"),
                           e.at("token_bytes").as_int("edge.token_bytes"),
                           e.at("name").as_string("edge.name"));
    df::VtsEdgeInfo info;
    info.converted = e.at("converted").as_bool("edge.converted");
    info.b_max_bytes = e.at("b_max_bytes").as_int("edge.b_max_bytes");
    info.raw_token_bytes = e.at("raw_token_bytes").as_int("edge.raw_token_bytes");
    info.prod_rate_bound = e.at("prod_rate_bound").as_int("edge.prod_rate_bound");
    info.cons_rate_bound = e.at("cons_rate_bound").as_int("edge.cons_rate_bound");
    plan.vts.edges.push_back(info);
  }

  const JsonValue& pass = root.at("pass");
  for (std::int64_t a : pass.at("firings").as_int_vector("pass.firings"))
    plan.pass.firings.push_back(static_cast<df::ActorId>(a));
  plan.pass.buffer_bound = pass.at("buffer_bound").as_int_vector("pass.buffer_bound");

  // --- synchronization graph ----------------------------------------------
  const JsonValue& sync = root.at("sync_graph");
  std::vector<sched::TaskNode> tasks;
  std::vector<sched::Proc> proc_of_task;
  for (const JsonValue& t : sync.at("tasks").as_array("sync_graph.tasks")) {
    sched::TaskNode task;
    task.actor = t.at("actor").as_int32("task.actor");
    task.firing = t.at("firing").as_int32("task.firing");
    task.exec_cycles = t.at("exec_cycles").as_int("task.exec_cycles");
    task.name = t.at("name").as_string("task.name");
    tasks.push_back(std::move(task));
    proc_of_task.push_back(static_cast<sched::Proc>(t.at("proc").as_int("task.proc")));
  }
  plan.sync_graph =
      sched::SyncGraph(std::move(tasks), std::move(proc_of_task),
                       sync.at("proc_count").as_int32("proc_count"));
  for (const JsonValue& e : sync.at("edges").as_array("sync_graph.edges")) {
    sched::SyncEdge edge;
    edge.src = e.at("src").as_int32("sync_edge.src");
    edge.snk = e.at("snk").as_int32("sync_edge.snk");
    edge.delay = e.at("delay").as_int("sync_edge.delay");
    edge.kind = kind_from_name(e.at("kind").as_string("sync_edge.kind"));
    edge.dataflow_edge =
        e.at("dataflow_edge").as_int32("sync_edge.dataflow_edge");
    edge.removed = e.at("removed").as_bool("sync_edge.removed");
    plan.sync_graph.add_edge(edge);
  }

  for (const JsonValue& p : root.at("proc_order").as_array("proc_order")) {
    plan.proc_order.push_back(p.as_int32_vector("proc_order[p]"));
  }

  for (const JsonValue& p : root.at("programs").as_array("programs")) {
    std::vector<FiringStep> program;
    for (const JsonValue& s : p.as_array("programs[p]")) {
      FiringStep step;
      step.actor = s.at("actor").as_int32("step.actor");
      step.invocation = s.at("invocation").as_int32("step.invocation");
      step.in_edges = s.at("in").as_int32_vector("step.in");
      step.out_edges = s.at("out").as_int32_vector("step.out");
      program.push_back(std::move(step));
    }
    plan.programs.push_back(std::move(program));
  }

  for (const JsonValue& c : root.at("channels").as_array("channels")) {
    ChannelSpec spec;
    spec.edge = c.at("edge").as_int32("channel.edge");
    spec.name = c.at("name").as_string("channel.name");
    const std::string& mode = c.at("mode").as_string("channel.mode");
    if (mode != "SPI_static" && mode != "SPI_dynamic")
      throw std::invalid_argument("ExecutablePlan: unknown channel mode '" + mode + "'");
    spec.mode = mode == "SPI_dynamic" ? SpiMode::kDynamic : SpiMode::kStatic;
    const std::string& protocol = c.at("protocol").as_string("channel.protocol");
    if (protocol != "BBS" && protocol != "UBS")
      throw std::invalid_argument("ExecutablePlan: unknown channel protocol '" + protocol + "'");
    spec.protocol = protocol == "BBS" ? sched::SyncProtocol::kBbs : sched::SyncProtocol::kUbs;
    spec.b_max_bytes = c.at("b_max_bytes").as_int("channel.b_max_bytes");
    spec.c_bytes = c.at("c_bytes").as_int("channel.c_bytes");
    if (const JsonValue* tokens = c.find("capacity_messages")) {
      spec.bbs_capacity_tokens = tokens->as_int("channel.capacity_messages");
      spec.bbs_capacity_bytes = c.at("capacity_bytes").as_int("channel.capacity_bytes");
    }
    spec.acks_total = static_cast<std::size_t>(c.at("acks_total").as_int("channel.acks_total"));
    spec.acks_elided =
        static_cast<std::size_t>(c.at("acks_elided").as_int("channel.acks_elided"));
    for (std::int64_t s : c.at("sync_edges").as_int_vector("channel.sync_edges"))
      spec.sync_edges.push_back(static_cast<std::size_t>(s));
    spec.token_bytes = c.at("token_bytes").as_int("channel.token_bytes");
    spec.raw_token_bytes = c.at("raw_token_bytes").as_int("channel.raw_token_bytes");
    spec.prod_tokens = c.at("prod_tokens").as_int("channel.prod_tokens");
    spec.delay_tokens = c.at("delay_tokens").as_int("channel.delay_tokens");
    spec.src_firings_per_iteration =
        c.at("src_firings_per_iteration").as_int("channel.src_firings_per_iteration");
    spec.reliable = c.at("reliable").as_bool("channel.reliable");
    plan.channels.push_back(std::move(spec));
  }

  plan.rebuild_channel_index();
  plan.validate();  // replays the PASS: admissible is proven, not assumed
  plan.pass.admissible = true;
  return plan;
}

namespace {

/// validate()'s PASS replay on token counts (plan.hpp): throws naming
/// the firing and the edge that would make a colocated run wait.
void replay_pass(const ExecutablePlan& plan) {
  const df::Graph& graph = plan.vts.graph;
  const auto fail = [&](std::size_t firing, df::ActorId actor, df::EdgeId edge,
                        const std::string& what) {
    throw std::invalid_argument(
        "ExecutablePlan: invalid plan: PASS firing " + std::to_string(firing) + " (" +
        graph.actor(actor).name + ") " + what + " on edge " + std::to_string(edge) + " (" +
        graph.edge(edge).name + ")");
  };
  std::vector<std::int64_t> tokens(graph.edge_count());
  for (std::size_t e = 0; e < tokens.size(); ++e)
    tokens[e] = graph.edge(static_cast<df::EdgeId>(e)).delay;
  for (std::size_t f = 0; f < plan.pass.firings.size(); ++f) {
    const df::ActorId actor = plan.pass.firings[f];
    if (actor < 0 || static_cast<std::size_t>(actor) >= graph.actor_count())
      throw std::invalid_argument("ExecutablePlan: invalid plan: PASS firing " +
                                  std::to_string(f) + " names an unknown actor");
    for (const df::EdgeId e : graph.in_edges(actor)) {
      std::int64_t& held = tokens[static_cast<std::size_t>(e)];
      const std::int64_t cons = graph.edge(e).cons.bound();
      if (held < cons)
        fail(f, actor, e,
             "finds " + std::to_string(held) + " of its " + std::to_string(cons) + " tokens");
      held -= cons;
    }
    for (const df::EdgeId e : graph.out_edges(actor)) {
      std::int64_t& held = tokens[static_cast<std::size_t>(e)];
      const std::int32_t channel = plan.channel_index[static_cast<std::size_t>(e)];
      const std::int64_t capacity =
          channel < 0 ? std::numeric_limits<std::int64_t>::max()
                      : plan.channels[static_cast<std::size_t>(channel)].capacity_tokens();
      if (__builtin_add_overflow(held, graph.edge(e).prod.bound(), &held) || held > capacity)
        fail(f, actor, e,
             "overfills the ring capacity of " + std::to_string(capacity) + " tokens");
    }
  }
  for (std::size_t e = 0; e < tokens.size(); ++e) {
    const df::Edge& edge = graph.edge(static_cast<df::EdgeId>(e));
    if (tokens[e] != edge.delay)
      throw std::invalid_argument("ExecutablePlan: invalid plan: the PASS period leaves " +
                                  std::to_string(tokens[e]) + " tokens on edge " +
                                  std::to_string(e) + " (" + edge.name + "), not its " +
                                  std::to_string(edge.delay) + " delay tokens");
  }
}

}  // namespace

void ExecutablePlan::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("ExecutablePlan: invalid plan: ") + what);
  };
  const std::size_t actors = vts.graph.actor_count();
  const std::size_t edges = vts.graph.edge_count();
  require(proc_count > 0, "processor count must be positive");
  require(repetitions.consistent && repetitions.q.size() == actors,
          "repetitions vector does not match the graph");
  require(vts.edges.size() == edges, "VTS edge info does not match the graph");
  require(proc_of_actor.size() == actors, "assignment does not match the graph");
  for (sched::Proc p : proc_of_actor)
    require(p >= 0 && p < proc_count, "assignment names an unknown processor");
  require(pass.firings.size() == static_cast<std::size_t>(repetitions.total_firings()),
          "PASS length does not match the repetitions vector");
  require(pass.buffer_bound.size() == edges, "PASS buffer bounds do not match the graph");
  require(sync_graph.task_count() == pass.firings.size(),
          "sync graph task count does not match the firings per iteration");
  require(proc_order.size() == static_cast<std::size_t>(proc_count),
          "proc_order does not cover every processor");
  require(programs.size() == static_cast<std::size_t>(proc_count),
          "programs do not cover every processor");
  std::size_t program_steps = 0;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    program_steps += programs[p].size();
    for (const FiringStep& step : programs[p]) {
      require(step.actor >= 0 && static_cast<std::size_t>(step.actor) < actors,
              "program step names an unknown actor");
      require(proc_of_actor[static_cast<std::size_t>(step.actor)] == static_cast<sched::Proc>(p),
              "program step runs on a processor its actor is not assigned to");
      require(step.invocation >= 0 &&
                  step.invocation < repetitions.of(step.actor),
              "program step invocation exceeds the repetitions vector");
      // JobInstance indexes its per-edge channels by these ids, so they
      // must be exactly the actor's edges, in graph order.
      const auto in = vts.graph.in_edges(step.actor);
      const auto out = vts.graph.out_edges(step.actor);
      require(std::equal(step.in_edges.begin(), step.in_edges.end(), in.begin(), in.end()),
              "program step input edges are not its actor's input edges");
      require(std::equal(step.out_edges.begin(), step.out_edges.end(), out.begin(), out.end()),
              "program step output edges are not its actor's output edges");
    }
  }
  require(program_steps == pass.firings.size(),
          "programs do not contain exactly the PASS firings");
  require(channel_index.size() == edges, "channel index does not match the graph");
  // JobInstance gives an edge a cross-thread ring only if it has a
  // channel: an interprocessor edge without one would be a local FIFO
  // shared by two gang workers.
  for (std::size_t i = 0; i < edges; ++i) {
    const df::Edge& edge = vts.graph.edge(static_cast<df::EdgeId>(i));
    require(proc_of_actor[static_cast<std::size_t>(edge.src)] ==
                    proc_of_actor[static_cast<std::size_t>(edge.snk)] ||
                channel_index[i] >= 0,
            "interprocessor edge has no channel");
  }
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelSpec& spec = channels[i];
    require(spec.edge >= 0 && static_cast<std::size_t>(spec.edge) < edges,
            "channel references an unknown edge");
    require(channel_index[static_cast<std::size_t>(spec.edge)] == static_cast<std::int32_t>(i),
            "channel index disagrees with the channel list");
    for (std::size_t s : spec.sync_edges)
      require(s < sync_graph.edges().size(), "channel references an unknown sync edge");
    require(spec.bbs_capacity_tokens.has_value() == spec.bbs_capacity_bytes.has_value(),
            "BBS capacity tokens and bytes must be set together");
    // The runtime's ring for this channel: capacity slots (plus the
    // reliable ring's discardable ones) of the token bound plus the
    // sequenced-frame overhead each.
    const std::int64_t capacity = spec.capacity_tokens();
    require(capacity >= 1, "channel capacity must be at least one token");
    const std::int64_t bound = token_bound_bytes(spec.edge);
    const __int128 slab = (static_cast<__int128>(capacity) + kDiscardableSlots) *
                          (static_cast<__int128>(bound) + kSequencedOverheadBytes);
    require(bound >= 0 && slab <= kMaxChannelSlabBytes, "channel slab exceeds the size ceiling");
  }
  replay_pass(*this);
  const std::size_t expected = sync_graph.count_active(sched::SyncEdgeKind::kIpc) +
                               sync_graph.count_active(sched::SyncEdgeKind::kAck) +
                               sync_graph.count_active(sched::SyncEdgeKind::kResync);
  require(messages_per_iteration == expected,
          "messages_per_iteration disagrees with the sync graph");
}

// --- execution glue -------------------------------------------------------

void ExecutablePlan::install_workload_defaults(sim::WorkloadModel& workload) const {
  if (!workload.payload_bytes) {
    workload.payload_bytes = [this](const sched::SyncEdge& e, std::int64_t) -> std::int64_t {
      if (e.dataflow_edge == df::kInvalidEdge) return 0;
      const df::Edge& edge = vts.graph.edge(e.dataflow_edge);
      return edge.prod.value() * edge.token_bytes;  // worst case for dynamic channels
    };
  }
  if (!workload.channel_info) {
    workload.channel_info = [this](const sched::SyncEdge& e) -> sim::ChannelInfo {
      const ChannelSpec* spec = find_channel(e.dataflow_edge);
      return spec ? spec->channel_info() : sim::ChannelInfo{e.dataflow_edge, false};
    };
  }
}

sim::ExecStats run_timed(const ExecutablePlan& plan, const sim::CommBackend& backend,
                         const sim::TimedExecutorOptions& options, sim::WorkloadModel workload) {
  plan.install_workload_defaults(workload);
  return sim::run_timed(plan.sync_graph, plan.proc_order, backend, workload, options);
}

sim::StaticRunResult run_fully_static(const ExecutablePlan& plan, const sim::CommBackend& backend,
                                      sim::WorkloadModel wcet, sim::WorkloadModel actual,
                                      const sim::TimedExecutorOptions& options) {
  plan.install_workload_defaults(wcet);
  plan.install_workload_defaults(actual);
  return sim::run_fully_static(plan.sync_graph, plan.proc_order, backend, wcet, actual, options);
}

}  // namespace spi::core
