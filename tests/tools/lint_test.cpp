// hsconas_lint engine tests: every rule is demonstrated against the
// fixture tree under tests/tools/fixtures/lintroot (one deliberate
// violation per rule), and shown to vanish when that rule is disabled.
// The suppression-comment and baseline-ratchet mechanisms are exercised
// the same way. The production scan skips directories named `fixtures`,
// which is what keeps these deliberately bad files out of `ctest -L lint`.

#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace lint = hsconas::lint;

namespace {

const char* fixtures_root() { return HSCONAS_LINT_FIXTURES_DIR "/lintroot"; }

std::vector<lint::Violation> tree(const lint::Options& opts = {}) {
  return lint::lint_tree(fixtures_root(), opts);
}

std::size_t count_rule(const std::vector<lint::Violation>& vs,
                       const std::string& rule, const std::string& file) {
  return static_cast<std::size_t>(
      std::count_if(vs.begin(), vs.end(), [&](const lint::Violation& v) {
        return v.rule == rule && v.file == file;
      }));
}

bool has_violation(const std::vector<lint::Violation>& vs,
                   const std::string& rule, const std::string& file,
                   std::size_t line) {
  return std::any_of(vs.begin(), vs.end(), [&](const lint::Violation& v) {
    return v.rule == rule && v.file == file && v.line == line;
  });
}

/// One fixture expectation per rule: with the rule enabled the exact
/// (file, line, rule-id) triple is reported; with it disabled, nothing is.
struct RuleFixture {
  const char* rule;
  const char* file;
  std::size_t line;
};

const RuleFixture kRuleFixtures[] = {
    {"serial-raw-memcpy", "src/util/bad_serial.cpp", 8},
    {"serial-pointer-cast", "src/util/bad_serial.cpp", 12},
    {"scratch-discipline", "src/tensor/bad_kernel.cpp", 8},
    {"thread-discipline", "src/tensor/bad_thread.cpp", 9},
    {"thread-discipline", "src/serve/bad_lane.cpp", 9},
    {"timing-discipline", "src/tensor/bad_chrono.cpp", 9},
    {"timing-discipline", "src/serve/bad_lane.cpp", 10},
    {"rng-discipline", "src/core/bad_rng.cpp", 8},
    {"quant-dtype-discipline", "src/tensor/bad_quant_i8.cpp", 10},
    {"quant-dtype-discipline", "src/tensor/bad_quant_i8.cpp", 14},
    {"quant-dtype-discipline", "src/tensor/bad_quant_i8.cpp", 18},
    {"log-no-stdio", "src/core/bad_log.cpp", 8},
    {"trace-scope-in-header", "src/nn/bad_trace.h", 7},
    {"include-pragma-once", "src/util/no_pragma.h", 3},
    {"include-relative-parent", "src/core/bad_include.cpp", 2},
    {"include-iostream-in-header", "src/util/bad_iostream.h", 3},
    // Semantic pass: the declarations live in error_api.h, the discards in
    // bad_discard.cpp — the cross-file index connects them.
    {"unchecked-error-discipline", "src/core/bad_discard.cpp", 10},
    {"unchecked-error-discipline", "src/core/bad_discard.cpp", 11},
    {"unchecked-error-discipline", "src/core/bad_discard.cpp", 12},
    {"lock-discipline", "src/serve/bad_lock.cpp", 12},
    {"lock-discipline", "src/serve/bad_lock.cpp", 13},
};

TEST(LintRules, EveryRuleHasAFixtureViolation) {
  const auto all = tree();
  for (const RuleFixture& f : kRuleFixtures) {
    EXPECT_TRUE(has_violation(all, f.rule, f.file, f.line))
        << f.rule << " expected at " << f.file << ":" << f.line;
  }
}

TEST(LintRules, DisablingARuleSilencesExactlyThatRule) {
  for (const RuleFixture& f : kRuleFixtures) {
    lint::Options opts;
    opts.disabled.push_back(f.rule);
    const auto vs = tree(opts);
    EXPECT_FALSE(has_violation(vs, f.rule, f.file, f.line))
        << f.rule << " should be silenced by --disable";
    // Every *other* rule's fixture violation must survive.
    for (const RuleFixture& other : kRuleFixtures) {
      if (std::string(other.rule) == f.rule) continue;
      EXPECT_TRUE(has_violation(vs, other.rule, other.file, other.line))
          << other.rule << " must not be affected by disabling " << f.rule;
    }
  }
}

TEST(LintRules, OnlyRestrictsToListedRules) {
  lint::Options opts;
  opts.only = {"rng-discipline"};
  const auto vs = tree(opts);
  EXPECT_GE(count_rule(vs, "rng-discipline", "src/core/bad_rng.cpp"), 1u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, "rng-discipline");
}

TEST(LintRules, RuleIdsAreStableAndListed) {
  std::vector<std::string> ids;
  for (const auto& r : lint::rules()) ids.push_back(r.id);
  for (const RuleFixture& f : kRuleFixtures) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), f.rule), ids.end())
        << f.rule << " missing from rules()";
  }
  EXPECT_GE(ids.size(), 6u);
}

TEST(LintRules, ExactReportFormat) {
  const auto all = tree();
  const auto it =
      std::find_if(all.begin(), all.end(), [](const lint::Violation& v) {
        return v.rule == "serial-pointer-cast";
      });
  ASSERT_NE(it, all.end());
  const std::string line = lint::format_violation(*it);
  EXPECT_EQ(line.rfind("src/util/bad_serial.cpp:12 serial-pointer-cast ", 0),
            0u)
      << line;
}

TEST(LintSuppression, InlineAllowsSilenceSameLineAndLineAbove) {
  const auto all = tree();
  EXPECT_EQ(count_rule(all, "serial-raw-memcpy", "src/core/suppressed.cpp"),
            0u);
}

TEST(LintSuppression, CleanFileWithBannedWordsInCommentsAndStrings) {
  const auto all = tree();
  for (const auto& v : all) EXPECT_NE(v.file, "src/core/clean.cpp");
}

TEST(LintFile, CommentAndStringStrippingIsLineAccurate) {
  const std::string src =
      "#pragma once\n"
      "/* std::mt19937 in a block comment\n"
      "   spanning lines: rand() */\n"
      "inline int f() { return 0; }  // memcpy(a, b, n)\n"
      "const char* s = \"std::random_device\";\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.h", src).empty());
}

TEST(LintFile, RawStringsAreStripped) {
  const std::string src =
      "#pragma once\n"
      "const char* kBlob = R\"json({\"cmd\": \"rand()\"})json\";\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.h", src).empty());
}

TEST(LintFile, PrefixedAndMultiLineRawStringsAreStripped) {
  // Encoding-prefixed raw strings (u8R, uR, UR, LR) with multi-line
  // bodies: the lexer used to detect only the plain R form, so these
  // bodies leaked into rule matching line by line.
  const std::string src =
      "#pragma once\n"
      "const char* kCfg = u8R\"cfg(\n"
      "  rand() std::mt19937 memcpy(dst, src, n)\n"
      "  reinterpret_cast<double*>(p)\n"
      ")cfg\";\n"
      "const wchar_t* kMsg = LR\"(std::random_device seed)\";\n"
      "inline int after() { return 0; }\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.h", src).empty());
  // Code AFTER the closing delimiter on the same line is still scanned.
  const std::string tail =
      "#pragma once\n"
      "const char* kB = uR\"(quiet)\"; std::mt19937 gen;\n";
  const auto vs = lint::lint_file("src/core/y.h", tail);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "rng-discipline");
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(LintFile, IdentifierBoundariesRespected) {
  // "operand(" must not trip the rand() matcher; "memcpy_impl" is not
  // memcpy.
  const std::string src =
      "#pragma once\n"
      "int operand(int x);\n"
      "void memcpy_impl();\n";
  EXPECT_TRUE(lint::lint_file("src/core/x.h", src).empty());
}

TEST(LintFile, ThreadDisciplineTokenBoundaries) {
  // Only the std::thread token is banned, and only in kernel directories:
  // std::this_thread, thread_local and a bare <thread> include are fine,
  // and util/ (home of ThreadPool itself) is out of scope.
  const std::string clean =
      "#include <thread>\n"
      "thread_local int tls_slot = 0;\n"
      "void pause() { std::this_thread::yield(); }\n";
  EXPECT_TRUE(lint::lint_file("src/tensor/x.cpp", clean).empty());
  const std::string bad = "#include <thread>\nstd::thread t;\n";
  const auto vs = lint::lint_file("src/nn/x.cpp", bad);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "thread-discipline");
  EXPECT_EQ(vs[0].line, 2u);
  EXPECT_TRUE(lint::lint_file("src/util/thread_pool.cpp", bad).empty());
}

TEST(LintFile, TimingDisciplineCoversSrcOutsideObs) {
  // Every library directory takes its clocks from obs/timing.h; src/obs,
  // which implements them, and code outside src/ may read std::chrono.
  const std::string bad_clock = "auto t = std::chrono::steady_clock::now();\n";
  for (const char* path : {"src/util/thread_pool.cpp", "src/util/logging.cpp",
                           "src/core/pipeline.cpp", "src/eval/runner.cpp"}) {
    const auto vs = lint::lint_file(path, bad_clock);
    ASSERT_EQ(vs.size(), 1u) << path;
    EXPECT_EQ(vs[0].rule, "timing-discipline") << path;
  }
  EXPECT_TRUE(lint::lint_file("src/obs/timing.cpp", bad_clock).empty());
  EXPECT_TRUE(lint::lint_file("tools/bench_tool.cpp", bad_clock).empty());
}

TEST(LintFile, ServingLanesObeyThreadAndTimingDiscipline) {
  // src/serve is bound to the same hot-path disciplines as the kernels.
  const std::string bad_thread = "std::thread lane;\n";
  auto vs = lint::lint_file("src/serve/batch_server.cpp", bad_thread);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "thread-discipline");
  const std::string bad_clock = "auto t = std::chrono::steady_clock::now();\n";
  vs = lint::lint_file("src/serve/load_gen.cpp", bad_clock);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "timing-discipline");
  // Scratch discipline stays kernel-only: preallocated client buffers in
  // serving code are by design.
  const std::string buffers = "std::vector<float> input(64);\n";
  EXPECT_TRUE(lint::lint_file("src/serve/load_gen.cpp", buffers).empty());
}

TEST(LintFile, QuantDtypeDisciplineScopeAndSanctionedHelpers) {
  // Float crossings are only policed in src/tensor quant kernel TUs
  // (*_i8* / *quant*): the fp32 GEMM and non-tensor code may cast freely.
  const std::string cast = "float f(int x) { return static_cast<float>(x); }\n";
  EXPECT_TRUE(lint::lint_file("src/tensor/gemm.cpp", cast).empty());
  EXPECT_TRUE(lint::lint_file("src/nn/quantize.cpp", cast).empty());
  auto vs = lint::lint_file("src/tensor/gemm_i8.cpp", cast);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "quant-dtype-discipline");
  // The rounding family (float -> int requantization) is a crossing too.
  const std::string rounder =
      "#include <cmath>\n"
      "int q(float x) { return static_cast<int>(std::lrintf(x)); }\n";
  vs = lint::lint_file("src/tensor/dequant_util.cpp", rounder);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 2u);
  // Integer-width casts (int8 -> int32 widening) are not crossings.
  const std::string widen =
      "int w(signed char a) { return static_cast<int>(a) * 2; }\n";
  EXPECT_TRUE(lint::lint_file("src/tensor/gemm_i8.cpp", widen).empty());
  // The sanctioned helper carries the allow marker.
  const std::string sanctioned =
      "// hsconas-lint-allow(quant-dtype-discipline)\n"
      "float r(int acc) { return static_cast<float>(acc); }\n";
  EXPECT_TRUE(lint::lint_file("src/tensor/gemm_i8.cpp", sanctioned).empty());
}

TEST(LintFile, SerialItselfIsExempt) {
  const std::string src =
      "#include <cstring>\n"
      "void f(char* d, const char* s) { std::memcpy(d, s, 4); }\n"
      "double g(const char* p) { return *reinterpret_cast<const double*>(p); }\n";
  EXPECT_TRUE(lint::lint_file("src/util/serial.cpp", src).empty());
  EXPECT_FALSE(lint::lint_file("src/core/checkpoint.cpp", src).empty());
}

TEST(LintFile, TestsAreExemptFromLibraryOnlyRules) {
  // Printing and memcpy are fine in tests; determinism discipline is not.
  const std::string src =
      "#include <cstdio>\n"
      "void t() { printf(\"ok\\n\"); }\n";
  EXPECT_TRUE(lint::lint_file("tests/core/x_test.cpp", src).empty());
  const std::string rng_src = "#include <random>\nstd::mt19937 gen;\n";
  const auto vs = lint::lint_file("tests/core/x_test.cpp", rng_src);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "rng-discipline");
}

TEST(LintBaseline, RoundTripAndExactCountSuppression) {
  const auto all = tree();
  // A baseline written from the current tree makes the tree clean.
  const lint::Baseline baseline =
      lint::parse_baseline(lint::format_baseline(all));
  std::vector<std::string> notes;
  EXPECT_TRUE(lint::apply_baseline(all, baseline, &notes).empty());
  EXPECT_TRUE(notes.empty());
}

TEST(LintBaseline, ExceedingTheCountReportsEveryOccurrence) {
  // bad_kernel.cpp has 3 scratch-discipline violations. Baseline 2 of
  // them: all 3 must be reported (new debt cannot hide in the group).
  const auto all = tree();
  const std::size_t actual =
      count_rule(all, "scratch-discipline", "src/tensor/bad_kernel.cpp");
  ASSERT_GE(actual, 3u);
  lint::Baseline baseline;
  baseline[{"src/tensor/bad_kernel.cpp", "scratch-discipline"}] = actual - 1;
  const auto active = lint::apply_baseline(all, baseline);
  EXPECT_EQ(count_rule(active, "scratch-discipline",
                       "src/tensor/bad_kernel.cpp"),
            actual);
}

TEST(LintBaseline, StaleEntriesProduceRatchetNotes) {
  lint::Baseline baseline;
  baseline[{"src/core/clean.cpp", "serial-raw-memcpy"}] = 4;
  std::vector<std::string> notes;
  lint::apply_baseline(tree(), baseline, &notes);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("ratchet"), std::string::npos);
}

TEST(LintBaseline, MalformedLinesThrow) {
  EXPECT_THROW(lint::parse_baseline("not a baseline line\n"),
               hsconas::Error);
  EXPECT_THROW(lint::parse_baseline("0 rule path\n"), hsconas::Error);
  // Comments and blanks are fine.
  EXPECT_TRUE(lint::parse_baseline("# header\n\n").empty());
}

TEST(LintJson, MachineReadableOutputParsesWithOwnJsonParser) {
  const std::vector<lint::Violation> vs = {
      {"src/a.cpp", 3, "rng-discipline",
       "message with \"quotes\", a \\ and a\ttab"},
  };
  const std::string json =
      lint::format_violations_json(vs, 2, {"ratchet note"});
  // Escaping is correct by construction if the project's own (strict)
  // parser round-trips it.
  const hsconas::util::Json doc = hsconas::util::Json::parse(json);
  EXPECT_EQ(doc.find("schema")->as_string(), "hsconas.lint.v1");
  ASSERT_EQ(doc.find("violations")->items().size(), 1u);
  const hsconas::util::Json& v = doc.find("violations")->items()[0];
  EXPECT_EQ(v.find("file")->as_string(), "src/a.cpp");
  EXPECT_EQ(v.find("line")->as_double(), 3.0);
  EXPECT_EQ(v.find("rule")->as_string(), "rng-discipline");
  EXPECT_EQ(v.find("message")->as_string(),
            "message with \"quotes\", a \\ and a\ttab");
  EXPECT_EQ(doc.find("violation_count")->as_double(), 1.0);
  EXPECT_EQ(doc.find("baselined_count")->as_double(), 2.0);
  ASSERT_EQ(doc.find("notes")->items().size(), 1u);
  EXPECT_EQ(doc.find("notes")->items()[0].as_string(), "ratchet note");
}

TEST(LintJson, EmptyRunIsValidJson) {
  const hsconas::util::Json doc =
      hsconas::util::Json::parse(lint::format_violations_json({}, 0, {}));
  EXPECT_TRUE(doc.find("violations")->items().empty());
  EXPECT_TRUE(doc.find("notes")->items().empty());
  EXPECT_EQ(doc.find("violation_count")->as_double(), 0.0);
}

}  // namespace
