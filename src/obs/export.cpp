#include "obs/export.h"

#include "util/string_util.h"

namespace hsconas::obs {

util::Json metrics_to_json(const MetricsSnapshot& snap) {
  util::Json doc = util::Json::object();

  util::Json counters = util::Json::object();
  for (const auto& [name, value] : snap.counters) {
    counters[name] = static_cast<unsigned long long>(value);
  }
  doc["counters"] = std::move(counters);

  util::Json gauges = util::Json::object();
  for (const auto& [name, value] : snap.gauges) gauges[name] = value;
  doc["gauges"] = std::move(gauges);

  util::Json histograms = util::Json::object();
  for (const auto& h : snap.histograms) {
    util::Json entry = util::Json::object();
    entry["count"] = static_cast<unsigned long long>(h.count);
    entry["sum_ms"] = h.sum_ms;
    entry["min_ms"] = h.min_ms;
    entry["max_ms"] = h.max_ms;
    entry["mean_ms"] = h.mean_ms();
    entry["p50_ms"] = h.percentile_ms(0.5);
    entry["p95_ms"] = h.percentile_ms(0.95);
    entry["p99_ms"] = h.percentile_ms(0.99);
    util::Json buckets = util::Json::array();
    const auto& edges = Histogram::edges();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      util::Json b = util::Json::object();
      b["le_ms"] = i < edges.size() ? util::Json(edges[i]) : util::Json("inf");
      b["count"] = static_cast<unsigned long long>(h.buckets[i]);
      buckets.push_back(std::move(b));
    }
    entry["buckets"] = std::move(buckets);
    histograms[h.name] = std::move(entry);
  }
  doc["histograms"] = std::move(histograms);
  return doc;
}

void save_metrics(const std::string& path) {
  metrics_to_json(metrics_snapshot()).save(path);
}

util::Json trace_to_json(const std::vector<TraceEvent>& events,
                         std::uint64_t dropped) {
  // Chrome trace-event format: "X" (complete) events with microsecond
  // timestamps. Perfetto and chrome://tracing reconstruct nesting from
  // ts/dur overlap per (pid, tid) track.
  util::Json trace_events = util::Json::array();
  for (const TraceEvent& ev : events) {
    util::Json e = util::Json::object();
    e["name"] = std::string(ev.name);
    e["cat"] = "hsconas";
    e["ph"] = "X";
    e["ts"] = static_cast<double>(ev.start_ns) / 1e3;
    e["dur"] = static_cast<double>(ev.dur_ns) / 1e3;
    e["pid"] = 1;
    e["tid"] = static_cast<unsigned long long>(ev.tid);
    if (ev.items != 0) {
      util::Json args = util::Json::object();
      args["items"] = static_cast<unsigned long long>(ev.items);
      e["args"] = std::move(args);
    }
    trace_events.push_back(std::move(e));
  }
  util::Json doc = util::Json::object();
  doc["traceEvents"] = std::move(trace_events);
  doc["displayTimeUnit"] = "ms";
  doc["droppedEvents"] = static_cast<unsigned long long>(dropped);
  return doc;
}

void save_trace(const std::string& path) {
  trace_to_json(Tracer::snapshot(), Tracer::dropped()).save(path);
}

MetricsSnapshot metrics_from_json(const util::Json& doc) {
  MetricsSnapshot snap;
  if (const util::Json* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->fields()) {
      snap.counters.emplace_back(
          name, static_cast<std::uint64_t>(v.as_double()));
    }
  }
  if (const util::Json* gauges = doc.find("gauges")) {
    for (const auto& [name, v] : gauges->fields()) {
      snap.gauges.emplace_back(name, v.as_double());
    }
  }
  if (const util::Json* histograms = doc.find("histograms")) {
    for (const auto& [name, v] : histograms->fields()) {
      MetricsSnapshot::HistogramData h;
      h.name = name;
      if (const util::Json* f = v.find("count")) {
        h.count = static_cast<std::uint64_t>(f->as_double());
      }
      if (const util::Json* f = v.find("sum_ms")) h.sum_ms = f->as_double();
      if (const util::Json* f = v.find("min_ms")) h.min_ms = f->as_double();
      if (const util::Json* f = v.find("max_ms")) h.max_ms = f->as_double();
      if (const util::Json* f = v.find("buckets")) {
        const auto& items = f->items();
        for (std::size_t i = 0; i < items.size() && i < h.buckets.size();
             ++i) {
          if (const util::Json* c = items[i].find("count")) {
            h.buckets[i] = static_cast<std::uint64_t>(c->as_double());
          }
        }
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

std::string render_metrics_report(const MetricsSnapshot& snap) {
  std::string out;

  if (!snap.counters.empty()) {
    util::Table table({"counter", "value"});
    for (const auto& [name, value] : snap.counters) {
      table.add_row({name, util::format("%llu",
                                        static_cast<unsigned long long>(value))});
    }
    out += "counters:\n" + table.render();
    // The pool's work floor at a glance: loops that never left the
    // calling thread, as a share of all parallel_for calls.
    const std::uint64_t loops =
        snap.counter_value("hsconas.pool.parallel_for_calls");
    if (loops > 0) {
      const std::uint64_t inline_loops =
          snap.counter_value("hsconas.pool.parallel_for_inline");
      out += util::format(
          "parallel_for ran inline: %llu of %llu loops (%.1f%%)\n",
          static_cast<unsigned long long>(inline_loops),
          static_cast<unsigned long long>(loops),
          100.0 * static_cast<double>(inline_loops) /
              static_cast<double>(loops));
    }
    // What train-mode forwards kept for backward, per backward that used
    // it. Score and eval forwards keep nothing, so search scoring and
    // serving leave this flat.
    const std::uint64_t kept =
        snap.counter_value("hsconas.nn.backward_state_bytes");
    if (kept > 0) {
      const std::uint64_t backwards =
          snap.counter_value("hsconas.supernet.backwards");
      out += util::format("backward state kept: %.1f MiB",
                          static_cast<double>(kept) / (1024.0 * 1024.0));
      out += backwards > 0
                 ? util::format(" (%.1f KiB per supernet backward)\n",
                                static_cast<double>(kept) / 1024.0 /
                                    static_cast<double>(backwards))
                 : std::string(" (no supernet backward)\n");
    }
  }

  if (!snap.gauges.empty()) {
    util::Table table({"gauge", "value"});
    for (const auto& [name, value] : snap.gauges) {
      table.add_row({name, util::format("%.6g", value)});
    }
    out += "\ngauges:\n" + table.render();
  }

  if (!snap.histograms.empty()) {
    util::Table table({"histogram", "count", "mean (ms)", "p50 (ms)",
                       "p95 (ms)", "p99 (ms)", "min (ms)", "max (ms)"});
    for (const auto& h : snap.histograms) {
      table.add_row({h.name,
                     util::format("%llu",
                                  static_cast<unsigned long long>(h.count)),
                     util::format("%.4g", h.mean_ms()),
                     util::format("%.4g", h.percentile_ms(0.5)),
                     util::format("%.4g", h.percentile_ms(0.95)),
                     util::format("%.4g", h.percentile_ms(0.99)),
                     util::format("%.4g", h.min_ms),
                     util::format("%.4g", h.max_ms)});
    }
    out += "\nlatency histograms:\n" + table.render();
  }

  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

}  // namespace hsconas::obs
