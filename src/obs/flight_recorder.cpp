#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "obs/text_escape.hpp"

namespace spi::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void append_escaped(std::ostringstream& out, const std::string& s) {
  out << detail::json_escaped(s);
}

/// Minimal strict parser for the flight-log dump format: a cursor over
/// the text with typed extractors that throw std::invalid_argument
/// naming the offending position. Not a general JSON library — exactly
/// the subset to_json() emits (objects, arrays, strings, integers).
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  [[nodiscard]] bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!accept(c)) fail(std::string("expected '") + c + "'");
  }

  [[nodiscard]] std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            const int code = std::stoi(std::string(text_.substr(pos_, 4)), nullptr, 16);
            pos_ += 4;
            out += static_cast<char>(code);  // dump format only escapes < 0x20
            break;
          }
          default: out += e;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[nodiscard]] std::int64_t integer() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start) fail("expected integer");
    return std::stoll(std::string(text_.substr(start, pos_ - start)));
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("FlightLog::from_json: " + what + " at offset " +
                                std::to_string(pos_));
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

// --- FlightRing ----------------------------------------------------------

FlightRing::FlightRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(2, capacity))), mask_(slots_.size() - 1) {}

bool FlightRing::try_push(const FlightEvent& event) noexcept {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[static_cast<std::size_t>(tail) & mask_] = event;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

void FlightRing::drain(std::vector<FlightEvent>& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  out.reserve(out.size() + static_cast<std::size_t>(tail - head));
  for (; head != tail; ++head) out.push_back(slots_[static_cast<std::size_t>(head) & mask_]);
  head_.store(head, std::memory_order_release);
}

// --- FlightRecorder ------------------------------------------------------

FlightRecorder::FlightRecorder(std::int32_t proc_count, std::size_t ring_capacity)
    : epoch_ns_(monotonic_ns()) {
  if (proc_count <= 0)
    throw std::invalid_argument("FlightRecorder: proc_count must be positive");
  rings_.reserve(static_cast<std::size_t>(proc_count));
  for (std::int32_t p = 0; p < proc_count; ++p)
    rings_.push_back(std::make_unique<FlightRing>(ring_capacity));
}

std::int64_t FlightRecorder::now_ns() const { return monotonic_ns() - epoch_ns_; }

void FlightRecorder::record(std::int32_t proc, FlightEventKind kind, std::int32_t actor,
                            std::int32_t edge, std::int64_t seq, std::int64_t iteration,
                            std::int32_t aux) noexcept {
  if (!armed_.load(std::memory_order_relaxed)) return;
  if (proc < 0 || static_cast<std::size_t>(proc) >= rings_.size()) return;
  FlightEvent e;
  e.t = now_ns();
  e.seq = seq;
  e.iteration = iteration;
  e.proc = proc;
  e.actor = actor;
  e.edge = edge;
  e.aux = aux;
  e.kind = kind;
  rings_[static_cast<std::size_t>(proc)]->try_push(e);
}

void FlightRecorder::set_names(std::vector<std::string> actor_names,
                               std::vector<std::string> edge_names) {
  actor_names_ = std::move(actor_names);
  edge_names_ = std::move(edge_names);
}

FlightLog FlightRecorder::collect() {
  FlightLog log;
  log.time_unit = time_unit_;
  log.proc_count = proc_count();
  log.actor_names = actor_names_;
  log.edge_names = edge_names_;
  for (auto& ring : rings_) ring->drain(log.events);
  log.dropped = dropped_total();
  collected_ += static_cast<std::int64_t>(log.events.size());
  return log;
}

std::int64_t FlightRecorder::dropped_total() const {
  std::int64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

std::size_t FlightRecorder::pending_events() const {
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring->size();
  return total;
}

void FlightRecorder::publish_metrics(MetricRegistry& registry) const {
  registry
      .gauge("spi_flight_events_recorded", {},
             "Flight-recorder events collected from the per-thread rings")
      .set(static_cast<double>(collected_));
  registry
      .gauge("spi_flight_events_dropped", {},
             "Flight-recorder events lost to ring overflow (never silent)")
      .set(static_cast<double>(dropped_total()));
}

// --- FlightLog JSON ------------------------------------------------------

std::string FlightLog::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":" << kSchemaVersion << ",\"time_unit\":\"";
  append_escaped(out, time_unit);
  out << "\",\"proc_count\":" << proc_count << ",\"dropped\":" << dropped
      << ",\n\"actor_names\":[";
  for (std::size_t i = 0; i < actor_names.size(); ++i) {
    if (i) out << ",";
    out << "\"";
    append_escaped(out, actor_names[i]);
    out << "\"";
  }
  out << "],\n\"edge_names\":[";
  for (std::size_t i = 0; i < edge_names.size(); ++i) {
    if (i) out << ",";
    out << "\"";
    append_escaped(out, edge_names[i]);
    out << "\"";
  }
  out << "],\n\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i) out << ",";
    out << "\n{\"k\":" << static_cast<int>(e.kind) << ",\"t\":" << e.t << ",\"p\":" << e.proc
        << ",\"a\":" << e.actor << ",\"e\":" << e.edge << ",\"s\":" << e.seq
        << ",\"i\":" << e.iteration << ",\"x\":" << e.aux << "}";
  }
  out << "\n]}\n";
  return out.str();
}

FlightLog FlightLog::from_json(std::string_view text) {
  Cursor c(text);
  FlightLog log;
  c.expect('{');
  bool first = true;
  while (!c.accept('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.string();
    c.expect(':');
    if (key == "schema") {
      const std::int64_t schema = c.integer();
      if (schema != kSchemaVersion)
        throw std::invalid_argument("FlightLog::from_json: unsupported schema version " +
                                    std::to_string(schema));
    } else if (key == "time_unit") {
      log.time_unit = c.string();
    } else if (key == "proc_count") {
      log.proc_count = static_cast<std::int32_t>(c.integer());
    } else if (key == "dropped") {
      log.dropped = c.integer();
    } else if (key == "actor_names" || key == "edge_names") {
      std::vector<std::string>& names = key[0] == 'a' ? log.actor_names : log.edge_names;
      c.expect('[');
      if (!c.accept(']')) {
        do {
          names.push_back(c.string());
        } while (c.accept(','));
        c.expect(']');
      }
    } else if (key == "events") {
      c.expect('[');
      if (!c.accept(']')) {
        do {
          c.expect('{');
          FlightEvent e;
          bool efirst = true;
          while (!c.accept('}')) {
            if (!efirst) c.expect(',');
            efirst = false;
            const std::string field = c.string();
            c.expect(':');
            const std::int64_t v = c.integer();
            if (field == "k") {
              if (v < 0 || v > static_cast<std::int64_t>(FlightEventKind::kBatchEnd))
                throw std::invalid_argument("FlightLog::from_json: unknown event kind " +
                                            std::to_string(v));
              e.kind = static_cast<FlightEventKind>(v);
            } else if (field == "t") {
              e.t = v;
            } else if (field == "p") {
              e.proc = static_cast<std::int32_t>(v);
            } else if (field == "a") {
              e.actor = static_cast<std::int32_t>(v);
            } else if (field == "e") {
              e.edge = static_cast<std::int32_t>(v);
            } else if (field == "s") {
              e.seq = v;
            } else if (field == "i") {
              e.iteration = v;
            } else if (field == "x") {
              e.aux = static_cast<std::int32_t>(v);
            } else {
              c.fail("unknown event field '" + field + "'");
            }
          }
          log.events.push_back(e);
        } while (c.accept(','));
        c.expect(']');
      }
    } else {
      c.fail("unknown key '" + key + "'");
    }
  }
  if (log.proc_count <= 0)
    throw std::invalid_argument("FlightLog::from_json: missing or non-positive proc_count");
  for (const FlightEvent& e : log.events)
    if (e.proc < 0 || e.proc >= log.proc_count)
      throw std::invalid_argument("FlightLog::from_json: event proc out of range");
  return log;
}

}  // namespace spi::obs
