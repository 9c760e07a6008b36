#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <vector>

#include "common/hex.hpp"

namespace jenga::telemetry {

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

namespace {

void write_line(std::ostream& out, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out << buf << "\n";
}

/// Sorted tx entries (submit time, then hash) — the deterministic export
/// order shared by the tx lines and the DAG union.
std::vector<const std::pair<const Hash256, TxTrace>*> sorted_traces(const PhaseTracer& tracer) {
  std::vector<const std::pair<const Hash256, TxTrace>*> order;
  order.reserve(tracer.traces().size());
  for (const auto& entry : tracer.traces()) order.push_back(&entry);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b2) {
    if (a->second.submit != b2->second.submit) return a->second.submit < b2->second.submit;
    return a->first < b2->first;
  });
  return order;
}

/// Union of every finished tx's causal DAG, ascending span ids (so parents
/// always precede children in the export).
std::vector<std::uint64_t> dag_union(const CausalTracer& causal, const PhaseTracer& tracer) {
  std::vector<std::uint64_t> ids;
  if (!causal.enabled()) return ids;
  for (const auto& [hash, t] : tracer.traces()) {
    if (!t.done || t.submit < 0) continue;
    const auto lineage = causal.lineage(hash, t.submit);
    ids.insert(ids.end(), lineage.begin(), lineage.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

void Telemetry::export_jsonl(std::ostream& out) const {
  const PhaseBreakdown b = tracer.breakdown();
  const std::vector<std::uint64_t> dag = dag_union(causal, tracer);
  write_line(out,
             "{\"kind\":\"meta\",\"version\":1,\"traced_txs\":%zu,\"committed\":%llu,"
             "\"aborted\":%llu,\"incomplete\":%llu,\"cspans\":%zu,\"cspans_total\":%zu,"
             "\"cspans_dropped\":%llu}",
             tracer.traced(), static_cast<unsigned long long>(b.committed),
             static_cast<unsigned long long>(b.aborted),
             static_cast<unsigned long long>(b.incomplete), dag.size(), causal.span_count(),
             static_cast<unsigned long long>(causal.spans_dropped()));

  for (const auto& [name, c] : registry.counters())
    write_line(out, "{\"kind\":\"metric\",\"type\":\"counter\",\"name\":\"%s\",\"value\":%llu}",
               name.c_str(), static_cast<unsigned long long>(c.value()));
  for (const auto& [name, g] : registry.gauges())
    write_line(out, "{\"kind\":\"metric\",\"type\":\"gauge\",\"name\":\"%s\",\"value\":%lld}",
               name.c_str(), static_cast<long long>(g.value()));
  auto write_hist = [&out](const std::string& name, const Histogram& h) {
    write_line(out,
               "{\"kind\":\"metric\",\"type\":\"histogram\",\"name\":\"%s\",\"count\":%llu,"
               "\"sum\":%lld,\"min\":%lld,\"max\":%lld,\"mean\":%.6g,\"p50\":%.6g,"
               "\"p99\":%.6g}",
               name.c_str(), static_cast<unsigned long long>(h.count()),
               static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
               static_cast<long long>(h.max()), h.mean(), h.quantile(0.5), h.quantile(0.99));
  };
  for (const auto& [name, h] : registry.histograms()) write_hist(name, h);
  write_hist("net.hop_delay_us", net.hop_delay_us);

  for (std::size_t t = 0; t < MessageTelemetry::kMaxTypes; ++t) {
    if (net.per_type[t].count == 0) continue;
    write_line(out,
               "{\"kind\":\"msgtype\",\"id\":%zu,\"name\":\"%s\",\"count\":%llu,"
               "\"bytes\":%llu}",
               t, net.type_name[t] != nullptr ? net.type_name[t] : "unknown",
               static_cast<unsigned long long>(net.per_type[t].count),
               static_cast<unsigned long long>(net.per_type[t].bytes));
  }

  for (std::size_t i = 0; i < kIntervalCount; ++i) {
    const Histogram& h = b.interval_hist[i];
    write_line(out,
               "{\"kind\":\"phase_hist\",\"phase\":\"%s\",\"count\":%llu,\"sum_us\":%lld,"
               "\"mean_s\":%.6f,\"p50_s\":%.6f,\"p99_s\":%.6f,\"critical\":%llu}",
               interval_name(i), static_cast<unsigned long long>(h.count()),
               static_cast<long long>(b.interval_sum[i]), b.mean_interval_seconds(i),
               b.quantile_interval_seconds(i, 0.5), b.quantile_interval_seconds(i, 0.99),
               static_cast<unsigned long long>(b.critical[i]));
  }

  // Tx lines, sorted for deterministic output across platforms.
  for (const auto* entry : sorted_traces(tracer)) {
    const TxTrace& t = entry->second;
    const std::string hash = to_hex(entry->first);
    if (!t.done) {
      write_line(out,
                 "{\"kind\":\"tx\",\"hash\":\"%s\",\"outcome\":\"incomplete\","
                 "\"submit_us\":%lld}",
                 hash.c_str(), static_cast<long long>(t.submit));
      continue;
    }
    const auto iv = t.intervals();
    char dag_fields[192] = "";
    if (causal.enabled()) {
      const auto cp = causal.critical_path(entry->first, t.submit, t.finish);
      if (cp.valid)
        std::snprintf(dag_fields, sizeof(dag_fields),
                      ",\"dag_hops\":%zu,\"dag_total_us\":%lld,\"dag_queue_us\":%lld,"
                      "\"dag_link_us\":%lld,\"dag_service_us\":%lld",
                      cp.hops.size(), static_cast<long long>(cp.total),
                      static_cast<long long>(cp.queue), static_cast<long long>(cp.link),
                      static_cast<long long>(cp.service));
    }
    write_line(out,
               "{\"kind\":\"tx\",\"hash\":\"%s\",\"outcome\":\"%s\",\"submit_us\":%lld,"
               "\"finish_us\":%lld,\"state_lock_us\":%lld,\"grant_relay_us\":%lld,"
               "\"execute_us\":%lld,\"commit_us\":%lld,\"critical\":\"%s\"%s}",
               hash.c_str(), t.committed ? "commit" : "abort",
               static_cast<long long>(t.submit), static_cast<long long>(t.finish),
               static_cast<long long>(iv[0]), static_cast<long long>(iv[1]),
               static_cast<long long>(iv[2]), static_cast<long long>(iv[3]),
               interval_name(t.critical_interval()), dag_fields);
  }

  // Causal DAG spans (union over every finished tx's lineage).  Ids are
  // strictly ascending and parent < id, so a streaming consumer always sees
  // a parent before any of its children and the graph is acyclic.
  for (std::uint64_t id : dag) {
    const CausalSpan* s = causal.span(id);
    if (s == nullptr) continue;
    const char* tname =
        s->msg_type < MessageTelemetry::kMaxTypes && net.type_name[s->msg_type] != nullptr
            ? net.type_name[s->msg_type]
            : "unknown";
    write_line(out,
               "{\"kind\":\"cspan\",\"id\":%llu,\"parent\":%llu,\"type\":%u,"
               "\"name\":\"%s\",\"from\":%llu,\"to\":%llu,\"send_us\":%lld,"
               "\"depart_us\":%lld,\"arrive_us\":%lld}",
               static_cast<unsigned long long>(s->id),
               static_cast<unsigned long long>(s->parent), static_cast<unsigned>(s->msg_type),
               tname, static_cast<unsigned long long>(s->from),
               static_cast<unsigned long long>(s->to), static_cast<long long>(s->send),
               static_cast<long long>(s->depart), static_cast<long long>(s->arrive));
  }
}

void Telemetry::export_chrome(std::ostream& out) const {
  // chrome://tracing JSON object format.  One "X" slice per DAG hop on the
  // sending node's lane ([send, arrive] covers queue-wait + link latency),
  // plus an "s"→"f" flow arrow from each parent's arrival to the child's
  // send, which renders the causal chains as connected arcs.
  const std::vector<std::uint64_t> dag = dag_union(causal, tracer);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const char* fmt, auto... args) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out << (first ? "\n" : ",\n") << buf;
    first = false;
  };
  for (std::uint64_t id : dag) {
    const CausalSpan* s = causal.span(id);
    if (s == nullptr) continue;
    const char* tname =
        s->msg_type < MessageTelemetry::kMaxTypes && net.type_name[s->msg_type] != nullptr
            ? net.type_name[s->msg_type]
            : "hop";
    const unsigned long long pid = s->from == kClientNode ? 999999ull : s->from;
    const SimTime end = s->delivered ? s->arrive : s->depart;
    emit("{\"name\":\"%s\",\"cat\":\"hop\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
         "\"pid\":%llu,\"tid\":%u,\"args\":{\"span\":%llu,\"parent\":%llu,\"to\":%llu,"
         "\"queue_us\":%lld,\"link_us\":%lld}}",
         tname, static_cast<long long>(s->send), static_cast<long long>(end - s->send), pid,
         static_cast<unsigned>(s->msg_type), static_cast<unsigned long long>(s->id),
         static_cast<unsigned long long>(s->parent), static_cast<unsigned long long>(s->to),
         static_cast<long long>(s->queue_us()), static_cast<long long>(s->link_us()));
    const CausalSpan* p = causal.span(s->parent);
    if (p != nullptr && p->delivered) {
      const unsigned long long ppid = p->from == kClientNode ? 999999ull : p->from;
      emit("{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%llu,\"ts\":%lld,"
           "\"pid\":%llu,\"tid\":%u}",
           static_cast<unsigned long long>(s->id), static_cast<long long>(p->arrive), ppid,
           static_cast<unsigned>(p->msg_type));
      emit("{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%llu,"
           "\"ts\":%lld,\"pid\":%llu,\"tid\":%u}",
           static_cast<unsigned long long>(s->id), static_cast<long long>(s->send), pid,
           static_cast<unsigned>(s->msg_type));
    }
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Validation (shared by tools/trace_lint and the telemetry tests)
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum class Kind { kString, kNumber, kBool };
  Kind kind = Kind::kNumber;
  std::string text;  // string contents (unescaped not needed: exporter never escapes)
  double num = 0.0;
};

using FlatObject = std::map<std::string, JsonValue>;

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

bool parse_string(const std::string& s, std::size_t& i, std::string* out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out->clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') return false;  // exporter never emits escapes
    out->push_back(s[i++]);
  }
  if (i >= s.size()) return false;
  ++i;  // closing quote
  return true;
}

bool parse_flat_object(const std::string& line, FlatObject* out, std::string* err) {
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') {
    if (err) *err = "line does not start with '{'";
    return false;
  }
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      std::string key;
      skip_ws(line, i);
      if (!parse_string(line, i, &key)) {
        if (err) *err = "expected string key";
        return false;
      }
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') {
        if (err) *err = "expected ':' after key \"" + key + "\"";
        return false;
      }
      ++i;
      skip_ws(line, i);
      JsonValue v;
      if (i < line.size() && line[i] == '"') {
        v.kind = JsonValue::Kind::kString;
        if (!parse_string(line, i, &v.text)) {
          if (err) *err = "bad string value for \"" + key + "\"";
          return false;
        }
      } else if (line.compare(i, 4, "true") == 0) {
        v.kind = JsonValue::Kind::kBool;
        v.num = 1;
        i += 4;
      } else if (line.compare(i, 5, "false") == 0) {
        v.kind = JsonValue::Kind::kBool;
        v.num = 0;
        i += 5;
      } else {
        const std::size_t start = i;
        while (i < line.size() &&
               (std::isdigit(static_cast<unsigned char>(line[i])) || line[i] == '-' ||
                line[i] == '+' || line[i] == '.' || line[i] == 'e' || line[i] == 'E'))
          ++i;
        if (i == start) {
          if (err) *err = "bad value for \"" + key + "\" (nested objects unsupported)";
          return false;
        }
        v.kind = JsonValue::Kind::kNumber;
        v.text = line.substr(start, i - start);
        char* endp = nullptr;
        v.num = std::strtod(v.text.c_str(), &endp);
        if (endp == nullptr || *endp != '\0') {
          if (err) *err = "unparsable number for \"" + key + "\"";
          return false;
        }
      }
      (*out)[key] = std::move(v);
      skip_ws(line, i);
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (i >= line.size() || line[i] != '}') {
      if (err) *err = "expected '}' at end of object";
      return false;
    }
    ++i;
  }
  skip_ws(line, i);
  if (i != line.size()) {
    if (err) *err = "trailing characters after object";
    return false;
  }
  return true;
}

bool require(const FlatObject& obj, const char* key, JsonValue::Kind kind,
             std::string* err, double* num = nullptr, std::string* text = nullptr) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    if (err) *err = std::string("missing field \"") + key + "\"";
    return false;
  }
  if (it->second.kind != kind) {
    if (err) *err = std::string("field \"") + key + "\" has wrong type";
    return false;
  }
  if (num != nullptr) *num = it->second.num;
  if (text != nullptr) *text = it->second.text;
  return true;
}

bool is_interval_name(const std::string& s) {
  for (std::size_t i = 0; i < kIntervalCount; ++i)
    if (s == interval_name(i)) return true;
  return false;
}

}  // namespace

bool validate_trace_line(const std::string& line, std::string* error) {
  FlatObject obj;
  if (!parse_flat_object(line, &obj, error)) return false;

  std::string kind;
  if (!require(obj, "kind", JsonValue::Kind::kString, error, nullptr, &kind)) return false;

  const auto num_field = [&](const char* key, double* out) {
    return require(obj, key, JsonValue::Kind::kNumber, error, out);
  };
  const auto str_field = [&](const char* key, std::string* out) {
    return require(obj, key, JsonValue::Kind::kString, error, nullptr, out);
  };

  if (kind == "meta") {
    double version = 0;
    if (!num_field("version", &version)) return false;
    if (version < 1) {
      if (error) *error = "meta version must be >= 1";
      return false;
    }
    return true;
  }
  if (kind == "metric") {
    std::string type, name;
    if (!str_field("type", &type) || !str_field("name", &name)) return false;
    if (type == "counter" || type == "gauge") {
      double v = 0;
      return num_field("value", &v);
    }
    if (type == "histogram") {
      double v = 0;
      for (const char* k : {"count", "sum", "min", "max", "mean", "p50", "p99"})
        if (!num_field(k, &v)) return false;
      return true;
    }
    if (error) *error = "unknown metric type \"" + type + "\"";
    return false;
  }
  if (kind == "msgtype") {
    std::string name;
    double v = 0;
    return str_field("name", &name) && num_field("id", &v) && num_field("count", &v) &&
           num_field("bytes", &v);
  }
  if (kind == "phase_hist") {
    std::string phase;
    if (!str_field("phase", &phase)) return false;
    if (!is_interval_name(phase)) {
      if (error) *error = "unknown phase \"" + phase + "\"";
      return false;
    }
    double v = 0;
    for (const char* k : {"count", "sum_us", "mean_s", "p50_s", "p99_s", "critical"})
      if (!num_field(k, &v)) return false;
    return true;
  }
  if (kind == "tx") {
    std::string hash, outcome;
    if (!str_field("hash", &hash) || !str_field("outcome", &outcome)) return false;
    if (hash.size() != 64) {
      if (error) *error = "tx hash must be 64 hex chars";
      return false;
    }
    double submit = 0;
    if (!num_field("submit_us", &submit)) return false;
    if (outcome == "incomplete") return true;
    if (outcome != "commit" && outcome != "abort") {
      if (error) *error = "unknown tx outcome \"" + outcome + "\"";
      return false;
    }
    double finish = 0, phases_sum = 0;
    if (!num_field("finish_us", &finish)) return false;
    for (const char* k : {"state_lock_us", "grant_relay_us", "execute_us", "commit_us"}) {
      double v = 0;
      if (!num_field(k, &v)) return false;
      if (v < 0) {
        if (error) *error = std::string("negative phase interval \"") + k + "\"";
        return false;
      }
      phases_sum += v;
    }
    std::string critical;
    if (!str_field("critical", &critical) || !is_interval_name(critical)) {
      if (error) *error = "tx line missing/bad \"critical\" phase";
      return false;
    }
    // The partition invariant: intervals must reconcile with end-to-end
    // latency (exact in the exporter; allow 1% / 2µs slop for re-encoders).
    const double total = finish - submit;
    const double slop = std::max(2.0, 0.01 * total);
    if (total < 0 || std::abs(phases_sum - total) > slop) {
      if (error)
        *error = "tx phase intervals do not sum to finish_us - submit_us (" +
                 std::to_string(phases_sum) + " vs " + std::to_string(total) + ")";
      return false;
    }
    // Causal-DAG reconciliation: when the exporter attached dag_* fields,
    // the critical-path decomposition must (a) partition dag_total_us
    // exactly and (b) agree with the four-interval total within 1%.
    if (obj.count("dag_total_us") != 0) {
      double hops = 0, dag_total = 0, dag_queue = 0, dag_link = 0, dag_service = 0;
      if (!num_field("dag_hops", &hops) || !num_field("dag_total_us", &dag_total) ||
          !num_field("dag_queue_us", &dag_queue) || !num_field("dag_link_us", &dag_link) ||
          !num_field("dag_service_us", &dag_service))
        return false;
      if (std::abs(dag_queue + dag_link + dag_service - dag_total) > 2.0) {
        if (error) *error = "dag queue+link+service does not partition dag_total_us";
        return false;
      }
      if (std::abs(dag_total - total) > slop) {
        if (error)
          *error = "dag_total_us does not reconcile with phase intervals (" +
                   std::to_string(dag_total) + " vs " + std::to_string(total) + ")";
        return false;
      }
    }
    return true;
  }
  if (kind == "cspan") {
    double id = 0, parent = 0, send = 0, depart = 0, arrive = 0, v = 0;
    std::string name;
    if (!num_field("id", &id) || !num_field("parent", &parent) || !num_field("type", &v) ||
        !str_field("name", &name) || !num_field("from", &v) || !num_field("to", &v) ||
        !num_field("send_us", &send) || !num_field("depart_us", &depart) ||
        !num_field("arrive_us", &arrive))
      return false;
    if (id < 1) {
      if (error) *error = "cspan id must be >= 1";
      return false;
    }
    if (parent >= id) {
      if (error) *error = "cspan parent must precede the span (parent < id)";
      return false;
    }
    if (send > depart || depart > arrive) {
      if (error) *error = "cspan times must satisfy send <= depart <= arrive";
      return false;
    }
    return true;
  }
  if (kind == "flight_meta") {
    std::string reason;
    double v = 0;
    return num_field("version", &v) && str_field("reason", &reason) &&
           num_field("events", &v);
  }
  if (kind == "flight") {
    std::string event;
    double v = 0;
    return num_field("at_us", &v) && num_field("seq", &v) && num_field("node", &v) &&
           str_field("event", &event) && num_field("span", &v) && num_field("parent", &v);
  }
  if (kind == "lineage") {
    std::string what;
    double v = 0;
    if (!str_field("what", &what)) return false;
    if (what == "span") {
      double id = 0, parent = 0, send = 0, depart = 0, arrive = 0;
      if (!num_field("id", &id) || !num_field("parent", &parent) ||
          !num_field("send_us", &send) || !num_field("depart_us", &depart) ||
          !num_field("arrive_us", &arrive))
        return false;
      if (parent >= id) {
        if (error) *error = "lineage span parent must precede the span";
        return false;
      }
      return true;
    }
    if (what == "anchor") {
      std::string anchor;
      return str_field("anchor", &anchor) && num_field("at_us", &v) && num_field("span", &v);
    }
    if (error) *error = "unknown lineage \"what\" value \"" + what + "\"";
    return false;
  }
  if (error) *error = "unknown line kind \"" + kind + "\"";
  return false;
}

bool validate_trace_stream(std::istream& in, std::string* error, TraceLintSummary* summary) {
  TraceLintSummary local;
  std::string line;
  bool saw_meta = false;
  std::size_t line_no = 0;
  double last_cspan_id = 0;       // parent-before-child: ids strictly ascend
  double last_flight_at = -1e18;  // dumps must be causally (time-)ordered
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string err;
    if (!validate_trace_line(line, &err)) {
      if (error) *error = "line " + std::to_string(line_no) + ": " + err;
      return false;
    }
    ++local.lines;
    // Cheap kind extraction (the line just validated, so the field exists).
    if (line.find("\"kind\":\"tx\"") != std::string::npos) {
      ++local.tx_lines;
      if (line.find("\"dag_total_us\":") != std::string::npos) ++local.dag_tx_lines;
    } else if (line.find("\"kind\":\"metric\"") != std::string::npos) {
      ++local.metric_lines;
    } else if (line.find("\"kind\":\"cspan\"") != std::string::npos) {
      ++local.cspan_lines;
      FlatObject obj;
      if (parse_flat_object(line, &obj, nullptr)) {
        const double id = obj["id"].num;
        if (id <= last_cspan_id) {
          if (error)
            *error = "line " + std::to_string(line_no) +
                     ": cspan ids must be strictly ascending (DAG order)";
          return false;
        }
        last_cspan_id = id;
      }
    } else if (line.find("\"kind\":\"phase_hist\"") != std::string::npos) {
      ++local.phase_hist_lines;
    } else if (line.find("\"kind\":\"flight\"") != std::string::npos &&
               line.find("\"kind\":\"flight_meta\"") == std::string::npos) {
      ++local.flight_lines;
      FlatObject obj;
      if (parse_flat_object(line, &obj, nullptr)) {
        const double at = obj["at_us"].num;
        if (at < last_flight_at) {
          if (error)
            *error = "line " + std::to_string(line_no) +
                     ": flight events must be in causal (time) order";
          return false;
        }
        last_flight_at = at;
      }
    } else if (line.find("\"kind\":\"lineage\"") != std::string::npos) {
      ++local.lineage_lines;
    } else if (line.find("\"kind\":\"flight_meta\"") != std::string::npos) {
      saw_meta = true;  // a flight dump is a self-contained stream
    } else if (line.find("\"kind\":\"meta\"") != std::string::npos) {
      saw_meta = true;
    }
  }
  if (!saw_meta) {
    if (error) *error = "no meta line found";
    return false;
  }
  if (summary != nullptr) *summary = local;
  return true;
}

}  // namespace jenga::telemetry
