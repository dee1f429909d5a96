#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "lint/semantic.h"
#include "lint/source_model.h"
#include "util/error.h"

namespace hsconas::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return path_starts_with(s, prefix);
}

bool is_header(const std::string& path) { return is_header_path(path); }

/// `fprintf`/`fputs`-style call whose first argument is `stdout`.
bool has_stdout_call(const std::string& line, const std::string& ident) {
  for (std::size_t pos = find_identifier(line, ident); pos != std::string::npos;
       pos = find_identifier(line, ident, pos + 1)) {
    std::size_t after = skip_spaces(line, pos + ident.size());
    if (after >= line.size() || line[after] != '(') continue;
    after = skip_spaces(line, after + 1);
    if (find_identifier(line.substr(after, 6), "stdout") == 0) return true;
  }
  return false;
}

/// `new` expression that allocates an array: `new` then '[' before any
/// '(' or ';' (so `new Foo(a[i])` does not match but `new float[n]` does).
bool has_array_new(const std::string& line) {
  for (std::size_t pos = find_identifier(line, "new"); pos != std::string::npos;
       pos = find_identifier(line, "new", pos + 1)) {
    for (std::size_t i = pos + 3; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '[') return true;
      if (c == '(' || c == ';' || c == ',') break;
    }
  }
  return false;
}

bool line_is_blank_or_stripped(const std::string& code_line) {
  return code_line.find_first_not_of(" \t") == std::string::npos;
}

void report(const FileContext& ctx, std::vector<Violation>* out,
            const Options& opts, std::size_t line, const char* rule,
            const std::string& message) {
  if (!rule_enabled(opts, rule)) return;
  if (is_suppressed(ctx, line, rule)) return;
  out->push_back(Violation{ctx.path, line, rule, message});
}

// ---------------------------------------------------------------------------
// Line rules. Each takes the preprocessed file and appends violations.

constexpr const char* kSerialRawMemcpy = "serial-raw-memcpy";
constexpr const char* kSerialPointerCast = "serial-pointer-cast";
constexpr const char* kScratchDiscipline = "scratch-discipline";
constexpr const char* kThreadDiscipline = "thread-discipline";
constexpr const char* kRngDiscipline = "rng-discipline";
constexpr const char* kTimingDiscipline = "timing-discipline";
constexpr const char* kQuantDtypeDiscipline = "quant-dtype-discipline";
constexpr const char* kLogNoStdio = "log-no-stdio";
constexpr const char* kTraceScopeInHeader = "trace-scope-in-header";
constexpr const char* kIncludePragmaOnce = "include-pragma-once";
constexpr const char* kIncludeRelativeParent = "include-relative-parent";
constexpr const char* kIncludeIostreamInHeader = "include-iostream-in-header";

bool in_library_or_tools(const std::string& p) {
  return starts_with(p, "src/") || starts_with(p, "tools/");
}

bool is_serial_impl(const std::string& p) {
  return starts_with(p, "src/util/serial");
}

void rule_serial_raw_memcpy(const FileContext& ctx, const Options& opts,
                            std::vector<Violation>* out) {
  if (!in_library_or_tools(ctx.path) || is_serial_impl(ctx.path)) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (has_call(ctx.code[i], "memcpy") || has_call(ctx.code[i], "memmove")) {
      report(ctx, out, opts, i + 1, kSerialRawMemcpy,
             "raw memcpy/memmove outside util/serial; deserialization must "
             "go through the bounds-checked util::ByteReader");
    }
  }
}

void rule_serial_pointer_cast(const FileContext& ctx, const Options& opts,
                              std::vector<Violation>* out) {
  if (!in_library_or_tools(ctx.path) || is_serial_impl(ctx.path)) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (find_identifier(ctx.code[i], "reinterpret_cast") !=
        std::string::npos) {
      report(ctx, out, opts, i + 1, kSerialPointerCast,
             "reinterpret_cast outside util/serial; type-punning "
             "deserialization must go through util::ByteReader");
    }
  }
}

/// Directories bound to the thread/timing hot-path disciplines: the
/// compute kernels themselves plus the serving lanes, whose parallelism
/// must stay on util::ThreadPool and whose timestamps feed the same
/// traces. (Scratch discipline stays kernel-only: serving client/request
/// buffers are preallocated vectors by design, not Workspace leases.)
bool is_discipline_dir(const std::string& p) {
  return starts_with(p, "src/tensor/") || starts_with(p, "src/nn/") ||
         starts_with(p, "src/serve/");
}

void rule_scratch_discipline(const FileContext& ctx, const Options& opts,
                             std::vector<Violation>* out) {
  const bool kernel_dir = starts_with(ctx.path, "src/tensor/") ||
                          starts_with(ctx.path, "src/nn/");
  if (!kernel_dir) return;
  // The tensor container and the one block pool (tensor/workspace) are
  // the two owners allowed to allocate.
  if (starts_with(ctx.path, "src/tensor/tensor") ||
      starts_with(ctx.path, "src/tensor/workspace")) {
    return;
  }
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (has_call(line, "malloc") || has_call(line, "calloc") ||
        has_call(line, "realloc") || has_array_new(line)) {
      report(ctx, out, opts, i + 1, kScratchDiscipline,
             "heap allocation in a kernel hot path; lease scratch from "
             "the block pool via tensor::Workspace::tls() instead");
    }
    if (!is_header(ctx.path) &&
        line.find("std::vector<float>") != std::string::npos) {
      report(ctx, out, opts, i + 1, kScratchDiscipline,
             "ad-hoc std::vector<float> scratch in a kernel translation "
             "unit; lease from the block pool via tensor::Workspace::tls() "
             "instead");
    }
  }
}

/// `std::thread` as a whole token (so `std::this_thread` and
/// `thread_local` do not match): "std::" directly before an identifier
/// occurrence of "thread".
bool has_std_thread(const std::string& line) {
  for (std::size_t pos = find_identifier(line, "thread");
       pos != std::string::npos;
       pos = find_identifier(line, "thread", pos + 1)) {
    if (pos >= 5 && line.compare(pos - 5, 5, "std::") == 0) return true;
  }
  return false;
}

void rule_thread_discipline(const FileContext& ctx, const Options& opts,
                            std::vector<Violation>* out) {
  if (!is_discipline_dir(ctx.path)) return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (has_std_thread(ctx.code[i])) {
      report(ctx, out, opts, i + 1, kThreadDiscipline,
             "raw std::thread in a kernel/serving path; parallelism must "
             "go through util::ThreadPool (nested-safe parallel_for, "
             "deterministic decomposition)");
    }
  }
}

void rule_timing_discipline(const FileContext& ctx, const Options& opts,
                            std::vector<Violation>* out) {
  // Library code must take timestamps through obs/timing.h so every
  // reading shares one epoch/clock (and shows up coherently in traces and
  // the profiler). Direct std::chrono / clock_gettime use anywhere in
  // src/ silently forks the time base — serving deadlines, pool task
  // timers and log stamps must come off the same clock the kernels are
  // profiled on (obs::wait_for_ns exists for deadline waits). src/obs
  // implements those clocks and is the one directory exempt.
  if (!starts_with(ctx.path, "src/") || starts_with(ctx.path, "src/obs/")) {
    return;
  }
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (find_identifier(ctx.code[i], "chrono") != std::string::npos ||
        has_call(ctx.code[i], "clock_gettime")) {
      report(ctx, out, opts, i + 1, kTimingDiscipline,
             "direct std::chrono/clock_gettime in library code; "
             "take timestamps via obs/timing.h (monotonic_ns, "
             "process_cpu_ms, wait_for_ns) so all readings share one clock "
             "and epoch");
    }
  }
}

void rule_rng_discipline(const FileContext& ctx, const Options& opts,
                         std::vector<Violation>* out) {
  if (starts_with(ctx.path, "src/util/rng")) return;
  static const char* kBanned[] = {"random_device", "mt19937", "mt19937_64",
                                  "default_random_engine"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    bool hit = has_call(line, "rand") || has_call(line, "srand");
    for (const char* ident : kBanned) {
      hit = hit || find_identifier(line, ident) != std::string::npos;
    }
    if (hit) {
      report(ctx, out, opts, i + 1, kRngDiscipline,
             "non-deterministic randomness source; all randomness must "
             "flow from seeded util::Rng streams");
    }
  }
}

/// Quantized kernel translation units in src/tensor: the int8 GEMM today,
/// plus any future *_i8 / *quant* kernels dropped next to it.
bool is_quant_kernel(const std::string& p) {
  if (!starts_with(p, "src/tensor/")) return false;
  return p.find("i8") != std::string::npos ||
         p.find("quant") != std::string::npos;
}

/// C-style `(float)` / `(double)` cast: the token in parentheses followed
/// by the start of an expression. A declaration parameter list ending in
/// `(float);` does not match.
bool has_c_float_cast(const std::string& line) {
  for (const char* tok : {"(float)", "(double)"}) {
    const std::size_t n = std::char_traits<char>::length(tok);
    for (std::size_t pos = line.find(tok); pos != std::string::npos;
         pos = line.find(tok, pos + 1)) {
      const std::size_t after = skip_spaces(line, pos + n);
      if (after < line.size() &&
          (is_ident_char(line[after]) || line[after] == '(')) {
        return true;
      }
    }
  }
  return false;
}

void rule_quant_dtype_discipline(const FileContext& ctx, const Options& opts,
                                 std::vector<Violation>* out) {
  // Quantized kernels must stay in integer arithmetic end to end; the only
  // int<->float crossings allowed are the quantizer and requantize lines
  // of quantize_i8.cpp, which carry an explicit
  // hsconas-lint-allow(quant-dtype-discipline) marker. Everything this
  // rule catches — float casts and the float->int rounding family — is a
  // dtype crossing that would silently fork the requantization math.
  if (!is_quant_kernel(ctx.path)) return;
  static const char* kRounders[] = {"lrint",      "lrintf",  "llrint",
                                    "llrintf",    "lround",  "lroundf",
                                    "nearbyint",  "nearbyintf"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    bool hit = line.find("static_cast<float>") != std::string::npos ||
               line.find("static_cast<double>") != std::string::npos ||
               has_c_float_cast(line) || has_call(line, "float") ||
               has_call(line, "double");
    for (const char* fn : kRounders) hit = hit || has_call(line, fn);
    if (hit) {
      report(ctx, out, opts, i + 1, kQuantDtypeDiscipline,
             "int<->float conversion in a quantized kernel; dtype "
             "crossings belong in the sanctioned requant helpers "
             "(marked hsconas-lint-allow(quant-dtype-discipline))");
    }
  }
}

void rule_log_no_stdio(const FileContext& ctx, const Options& opts,
                       std::vector<Violation>* out) {
  if (!starts_with(ctx.path, "src/")) return;  // CLIs/tests may print
  if (starts_with(ctx.path, "src/util/logging")) return;  // the sink itself
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    const bool stream_hit =
        line.find("std::cout") != std::string::npos ||
        line.find("std::cerr") != std::string::npos ||
        line.find("std::clog") != std::string::npos;
    const bool call_hit = has_call(line, "printf") || has_call(line, "puts") ||
                          has_stdout_call(line, "fprintf") ||
                          has_stdout_call(line, "fputs");
    if (stream_hit || call_hit) {
      report(ctx, out, opts, i + 1, kLogNoStdio,
             "direct stdout/stderr output in library code; use the "
             "structured HSCONAS_LOG_* macros (util/logging.h)");
    }
  }
}

void rule_trace_scope_in_header(const FileContext& ctx, const Options& opts,
                                std::vector<Violation>* out) {
  if (!is_header(ctx.path) || ctx.path == "src/obs/trace.h") return;
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (find_identifier(ctx.code[i], "HSCONAS_TRACE_SCOPE") !=
        std::string::npos) {
      report(ctx, out, opts, i + 1, kTraceScopeInHeader,
             "HSCONAS_TRACE_SCOPE in a header; spans belong in .cpp files "
             "so the compile-time kill switch stays effective");
    }
  }
}

void rule_include_pragma_once(const FileContext& ctx, const Options& opts,
                              std::vector<Violation>* out) {
  if (!is_header(ctx.path)) return;
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
    if (line_is_blank_or_stripped(ctx.code[i])) continue;
    const std::size_t first =
        ctx.raw[i].find_first_not_of(" \t");
    if (first == std::string::npos ||
        ctx.raw[i].compare(first, 12, "#pragma once") != 0) {
      report(ctx, out, opts, i + 1, kIncludePragmaOnce,
             "header does not open with #pragma once");
    }
    return;  // only the first code line matters
  }
  report(ctx, out, opts, 1, kIncludePragmaOnce,
         "header does not open with #pragma once");
}

void rule_include_relative_parent(const FileContext& ctx, const Options& opts,
                                  std::vector<Violation>* out) {
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
    const std::string& line = ctx.raw[i];
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '#') continue;
    if (line.find("#include") == std::string::npos) continue;
    if (line.find("\"../") != std::string::npos) {
      report(ctx, out, opts, i + 1, kIncludeRelativeParent,
             "parent-relative #include; use a root-relative path "
             "(\"subsystem/header.h\")");
    }
  }
}

void rule_include_iostream_in_header(const FileContext& ctx,
                                     const Options& opts,
                                     std::vector<Violation>* out) {
  if (!is_header(ctx.path) || !starts_with(ctx.path, "src/")) return;
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) {
    if (ctx.raw[i].find("#include <iostream>") != std::string::npos) {
      report(ctx, out, opts, i + 1, kIncludeIostreamInHeader,
             "<iostream> in a library header drags static iostream "
             "initialization into every includer; include it in the .cpp");
    }
  }
}

void run_line_rules(const FileContext& ctx, const Options& opts,
                    std::vector<Violation>* out) {
  rule_serial_raw_memcpy(ctx, opts, out);
  rule_serial_pointer_cast(ctx, opts, out);
  rule_scratch_discipline(ctx, opts, out);
  rule_thread_discipline(ctx, opts, out);
  rule_timing_discipline(ctx, opts, out);
  rule_rng_discipline(ctx, opts, out);
  rule_quant_dtype_discipline(ctx, opts, out);
  rule_log_no_stdio(ctx, opts, out);
  rule_trace_scope_in_header(ctx, opts, out);
  rule_include_pragma_once(ctx, opts, out);
  rule_include_relative_parent(ctx, opts, out);
  rule_include_iostream_in_header(ctx, opts, out);
}

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {kSerialRawMemcpy,
       "memcpy/memmove outside util/serial (ByteReader-only deserialization)"},
      {kSerialPointerCast,
       "reinterpret_cast outside util/serial (no pointer-cast decoding)"},
      {kScratchDiscipline,
       "no malloc/new[]/ad-hoc vector<float> scratch in tensor/nn kernels "
       "(block pool via Workspace leases only)"},
      {kThreadDiscipline,
       "no raw std::thread in tensor/nn kernels (util::ThreadPool only)"},
      {kRngDiscipline,
       "no rand()/std::random_device/std::mt19937 outside util/rng "
       "(seeded util::Rng streams only)"},
      {kTimingDiscipline,
       "no direct std::chrono/clock_gettime in src/ outside src/obs "
       "(obs/timing.h clocks only)"},
      {kQuantDtypeDiscipline,
       "no int<->float conversions in src/tensor quant kernels outside the "
       "sanctioned requant helpers"},
      {kLogNoStdio,
       "no stdout/stderr printing in library code (structured logging only)"},
      {kTraceScopeInHeader, "no HSCONAS_TRACE_SCOPE in headers"},
      {kIncludePragmaOnce, "headers must open with #pragma once"},
      {kIncludeRelativeParent, "no parent-relative #include paths"},
      {kIncludeIostreamInHeader, "no <iostream> in library headers"},
      // Pass 2 — semantic rules (cross-line/cross-file; see semantic.h).
      {"unchecked-error-discipline",
       "no discarded results of [[nodiscard]]/Error/Status-returning "
       "functions in src/ ((void) marks an explicit discard)"},
      {"lock-discipline",
       "no raw .lock()/.unlock() on mutexes outside RAII guards in src/"},
      // Pass 3 — include-graph layering (see layers.h; needs --layers).
      {"layer-forbidden-edge",
       "module-level #include edges must be sanctioned by "
       "tools/lint/layers.txt"},
      {"layer-cycle", "the module dependency graph must stay acyclic"},
      {"layer-unmapped-file",
       "every src/ file must belong to a module in the layering spec"},
  };
  return kRules;
}

bool rule_enabled(const Options& opts, const std::string& rule) {
  if (std::find(opts.disabled.begin(), opts.disabled.end(), rule) !=
      opts.disabled.end()) {
    return false;
  }
  return opts.only.empty() ||
         std::find(opts.only.begin(), opts.only.end(), rule) !=
             opts.only.end();
}

std::vector<Violation> lint_file(const std::string& path,
                                 const std::string& contents,
                                 const Options& opts) {
  const FileContext ctx = make_file_context(path, contents);
  std::vector<Violation> out;
  run_line_rules(ctx, opts, &out);
  // Single-file mode indexes declarations from this file alone; the tree
  // walk below builds the index across every header first.
  const SemanticIndex index = build_semantic_index({ctx});
  run_semantic_rules(ctx, index, opts, &out);
  return out;
}

std::vector<Violation> lint_tree(const std::string& root,
                                 const Options& opts) {
  const std::vector<FileContext> files =
      load_tree(root, {"src", "tools", "tests"});
  const SemanticIndex index = build_semantic_index(files);
  std::vector<Violation> out;
  for (const FileContext& ctx : files) {
    run_line_rules(ctx, opts, &out);
    run_semantic_rules(ctx, index, opts, &out);
  }
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

Baseline parse_baseline(const std::string& text) {
  Baseline baseline;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::size_t count = 0;
    std::string rule, path;
    if (!(fields >> count >> rule >> path) || count == 0) {
      throw Error("hsconas_lint: malformed baseline line " +
                  std::to_string(lineno) + ": '" + line + "'");
    }
    baseline[{path, rule}] += count;
  }
  return baseline;
}

Baseline load_baseline(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {};
  return parse_baseline(std::string(std::istreambuf_iterator<char>(f),
                                    std::istreambuf_iterator<char>()));
}

std::string format_baseline(const std::vector<Violation>& violations) {
  Baseline counts;
  for (const Violation& v : violations) ++counts[{v.file, v.rule}];
  std::string out =
      "# hsconas_lint baseline — accepted pre-existing debt, one\n"
      "# `count rule-id path` entry per (file, rule). Regenerate with\n"
      "# `hsconas_lint --root . --write-baseline <path>` after paying\n"
      "# debt down; new violations must not be added here.\n";
  for (const auto& [key, count] : counts) {
    out += std::to_string(count) + " " + key.second + " " + key.first + "\n";
  }
  return out;
}

std::vector<Violation> apply_baseline(
    const std::vector<Violation>& violations, const Baseline& baseline,
    std::vector<std::string>* ratchet_notes) {
  Baseline counts;
  for (const Violation& v : violations) ++counts[{v.file, v.rule}];

  std::vector<Violation> out;
  for (const Violation& v : violations) {
    const auto it = baseline.find({v.file, v.rule});
    const std::size_t allowed = it == baseline.end() ? 0 : it->second;
    // All-or-nothing per (file, rule): a count over baseline reports every
    // occurrence, because line numbers cannot identify which one is new.
    if (counts[{v.file, v.rule}] > allowed) out.push_back(v);
  }
  if (ratchet_notes != nullptr) {
    for (const auto& [key, allowed] : baseline) {
      const auto it = counts.find(key);
      const std::size_t actual = it == counts.end() ? 0 : it->second;
      if (actual < allowed) {
        ratchet_notes->push_back(
            key.first + ": " + key.second + " baseline is " +
            std::to_string(allowed) + " but only " + std::to_string(actual) +
            " remain; ratchet the baseline down");
      }
    }
  }
  return out;
}

std::string format_violation(const Violation& v) {
  return v.file + ":" + std::to_string(v.line) + " " + v.rule + " " +
         v.message;
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string format_violations_json(const std::vector<Violation>& active,
                                   std::size_t baselined,
                                   const std::vector<std::string>& notes) {
  // Hand-rolled so the lint library stays layered below hsconas_util
  // (schema "hsconas.lint.v1", consumed by obs_report-style tooling).
  std::string out = "{\n  \"schema\": \"hsconas.lint.v1\",\n";
  out += "  \"violations\": [";
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Violation& v = active[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": ";
    append_json_escaped(out, v.file);
    out += ", \"line\": " + std::to_string(v.line) + ", \"rule\": ";
    append_json_escaped(out, v.rule);
    out += ", \"message\": ";
    append_json_escaped(out, v.message);
    out += "}";
  }
  out += active.empty() ? "],\n" : "\n  ],\n";
  out += "  \"violation_count\": " + std::to_string(active.size()) + ",\n";
  out += "  \"baselined_count\": " + std::to_string(baselined) + ",\n";
  out += "  \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    ";
    append_json_escaped(out, notes[i]);
  }
  out += notes.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace hsconas::lint
