// obs_report — render saved observability JSON as human-readable tables.
//
//   obs_report <file.json>
//
// Accepts three document shapes and auto-detects which one it was given:
//   * a metrics snapshot (`hsconas --metrics-out=...`, or the snapshot
//     embedded under bench_kernels' "metrics" key) — counters, gauges and
//     histogram summaries with p50/p95/p99;
//   * a per-op profile report (`hsconas profile --out=...`, schema
//     "hsconas.profile.v1") — per-arch predicted-vs-measured, pooled
//     roofline, worst offenders and correlation summary;
//   * a Perfetto trace (`--trace-out=...`) — event/drop counts and a
//     count/total-time row per span name, with a pointer at
//     ui.perfetto.dev for the real rendering.
//
// Broken inputs fail gracefully: a missing, empty or truncated file gets a
// one-line diagnosis on stderr and exit code 1, never a raw parser abort.

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "obs/export.h"
#include "util/error.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using hsconas::util::Json;

double num(const Json& obj, const char* key, double fallback = 0.0) {
  const Json* f = obj.find(key);
  return f != nullptr && f->is_number() ? f->as_double() : fallback;
}

std::string str(const Json& obj, const char* key,
                const std::string& fallback = "") {
  const Json* f = obj.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : fallback;
}

/// Re-render a "hsconas.profile.v1" document from its JSON alone (the
/// in-process renderer lives in eval/, but obs_report must not drag the
/// whole model stack in just to pretty-print a saved file).
int render_profile(const Json& doc) {
  std::printf("profile report: device=%s batch=%g iters=%g warmup=%g\n",
              str(doc, "device", "?").c_str(), num(doc, "batch"),
              num(doc, "iters"), num(doc, "warmup"));

  if (const Json* archs = doc.find("archs"); archs != nullptr &&
                                             archs->is_array()) {
    hsconas::util::Table table({"arch", "measured (ms)", "p50", "p95",
                                "predicted (ms)", "op τ"});
    std::size_t i = 0;
    for (const Json& a : archs->items()) {
      double tau = 0.0;
      if (const Json* cal = a.find("calibration")) {
        tau = num(*cal, "op_kendall_tau");
      }
      table.add_row({hsconas::util::format("#%zu", i++),
                     hsconas::util::format("%.3f", num(a, "measured_ms")),
                     hsconas::util::format("%.3f", num(a, "measured_p50_ms")),
                     hsconas::util::format("%.3f", num(a, "measured_p95_ms")),
                     hsconas::util::format("%.4f", num(a, "predicted_ms")),
                     hsconas::util::format("%.3f", tau)});
    }
    std::printf("\nper-arch predicted vs measured:\n%s",
                table.render().c_str());
  }

  if (const Json* overall = doc.find("overall")) {
    if (const Json* ops = overall->find("ops"); ops != nullptr &&
                                                ops->is_array()) {
      constexpr std::size_t kTopOps = 12;
      hsconas::util::Table table({"op signature", "calls", "mean (ms)",
                                  "GFLOP/s", "GB/s", "AI", "bound",
                                  "pred (ms)"});
      std::size_t shown = 0;
      for (const Json& op : ops->items()) {
        if (shown++ >= kTopOps) break;
        table.add_row(
            {str(op, "signature", "?"),
             hsconas::util::format("%g", num(op, "calls")),
             hsconas::util::format("%.4f", num(op, "wall_ms_mean")),
             hsconas::util::format("%.2f", num(op, "achieved_gflops")),
             hsconas::util::format("%.2f", num(op, "achieved_gbs")),
             hsconas::util::format("%.2f", num(op, "arithmetic_intensity")),
             str(op, "bound", "-"),
             hsconas::util::format("%.4f", num(op, "predicted_ms"))});
      }
      std::printf("\nroofline, pooled across archs (top %zu of %zu):\n%s",
                  shown < kTopOps ? shown : kTopOps, ops->items().size(),
                  table.render().c_str());
    }
  }

  if (const Json* worst = doc.find("worst_offenders");
      worst != nullptr && worst->is_array() && !worst->items().empty()) {
    hsconas::util::Table table(
        {"op signature", "measured (ms)", "pred (ms)", "ratio", "drift"});
    for (const Json& op : worst->items()) {
      table.add_row({str(op, "signature", "?"),
                     hsconas::util::format("%.4f", num(op, "wall_ms_mean")),
                     hsconas::util::format("%.4f", num(op, "predicted_ms")),
                     hsconas::util::format("%.1f", num(op, "ratio")),
                     hsconas::util::format("%.3f", num(op, "drift"))});
    }
    std::printf("\nworst offenders:\n%s", table.render().c_str());
  }

  if (const Json* corr = doc.find("correlation")) {
    std::printf(
        "\ncorrelation: arch kendall_tau=%.3f spearman_rho=%.3f | "
        "per-op kendall_tau=%.3f spearman_rho=%.3f\n",
        num(*corr, "arch_kendall_tau"), num(*corr, "arch_spearman_rho"),
        num(*corr, "op_kendall_tau"), num(*corr, "op_spearman_rho"));
  }
  return 0;
}

int render_trace(const Json& doc) {
  const Json* events = doc.find("traceEvents");
  const std::size_t n =
      events != nullptr && events->is_array() ? events->items().size() : 0;
  std::printf("trace file: %zu events, %g dropped (ring overflow)\n", n,
              num(doc, "droppedEvents"));
  // Per span name: count, total time and the work items the spans
  // declared (`args.items`, e.g. candidates scored; "-" when none did). A
  // nested span's time also counts in its parent's, so evolution.run minus
  // evolution.score is the time the EA spent breeding and selecting.
  struct SpanTotal {
    std::size_t count = 0;
    double us = 0.0;
    double items = 0.0;
  };
  std::map<std::string, SpanTotal> totals;
  for (std::size_t i = 0; i < n; ++i) {
    const Json& e = events->items()[i];
    SpanTotal& t = totals[str(e, "name", "?")];
    ++t.count;
    t.us += num(e, "dur");
    if (const Json* args = e.find("args")) t.items += num(*args, "items");
  }
  if (!totals.empty()) {
    hsconas::util::Table table({"span", "count", "total (ms)", "items"});
    for (const auto& [name, t] : totals) {
      table.add_row({name, std::to_string(t.count),
                     hsconas::util::format("%.1f", t.us / 1e3),
                     t.items > 0.0 ? hsconas::util::format("%.0f", t.items)
                                   : std::string("-")});
    }
    std::printf("%s", table.render().c_str());
  }
  std::printf("load it at https://ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "-h") {
    std::fputs("usage: obs_report <metrics.json | profile.json | trace.json>\n",
               stderr);
    return 2;
  }
  const std::string path = argv[1];
  try {
    // Read and diagnose the file by hand so a missing, empty or truncated
    // artifact (a run that crashed mid-write, say) produces a message that
    // names the problem instead of a bare parser error.
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s' (missing file?)\n",
                   path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
      std::fprintf(stderr,
                   "error: '%s' is empty — did the producing run exit "
                   "before writing its report?\n",
                   path.c_str());
      return 1;
    }

    Json doc;
    try {
      doc = Json::parse(text);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "error: '%s' is truncated or not valid JSON (%s)\n",
                   path.c_str(), e.what());
      return 1;
    }

    if (str(doc, "schema") == "hsconas.profile.v1" ||
        doc.find("archs") != nullptr) {
      return render_profile(doc);
    }
    if (doc.find("traceEvents") != nullptr) return render_trace(doc);

    // bench_kernels embeds the snapshot under a "metrics" key; accept both
    // a bare snapshot and such a wrapper.
    const Json* snap_json =
        doc.find("counters") != nullptr ? &doc : doc.find("metrics");
    if (snap_json == nullptr) {
      std::fprintf(stderr,
                   "error: '%s' has no metrics snapshot, profile report or "
                   "trace (expected \"counters\", \"metrics\", \"archs\" or "
                   "\"traceEvents\")\n",
                   path.c_str());
      return 1;
    }
    const hsconas::obs::MetricsSnapshot snap =
        hsconas::obs::metrics_from_json(*snap_json);
    std::fputs(hsconas::obs::render_metrics_report(snap).c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
