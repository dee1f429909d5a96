#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hsconas::lint {

/// `hsconas_lint` — project invariant checker.
///
/// The reproduction's correctness story (bit-for-bit resumable search,
/// deterministic parallel evaluation, crash-safe checkpoints) rests on a
/// handful of project-wide disciplines: all deserialization goes through
/// the bounds-checked util::ByteReader, all kernel scratch through
/// tensor::Workspace leases on the one thread-local block pool (which
/// also backs Tensor storage), all randomness through seeded util::Rng
/// streams, all library output through util/logging. This linter makes
/// those disciplines machine-enforced: it walks `src/`, `tools/` and
/// `tests/`, strips comments and string literals, and reports each
/// violation as `file:line rule-id message`.
///
/// Suppression, most local to least local:
///  - inline: a `hsconas-lint-allow(rule-id[,rule-id...])` comment on the
///    offending line or the line directly above it;
///  - baseline: a checked-in file of `count rule-id path` lines recording
///    accepted pre-existing debt per (file, rule). A file/rule pair with
///    at most its baselined number of violations passes; one more and
///    *all* its occurrences are reported (new debt cannot hide behind the
///    ratchet). Shrinking counts are reported as ratchet opportunities.
///  - rule level: `--disable=rule-id` / Options::disabled.
///
/// See docs/STATIC_ANALYSIS.md for the rule catalog.

struct Rule {
  std::string id;           ///< stable kebab-case identifier
  std::string description;  ///< one-line summary for --list-rules
};

/// All rules, in reporting order. IDs are stable — baselines, suppression
/// comments and tests refer to them.
const std::vector<Rule>& rules();

struct Violation {
  std::string file;  ///< path relative to the scanned root, '/'-separated
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

struct Options {
  std::vector<std::string> disabled;  ///< rule ids to skip
  std::vector<std::string> only;      ///< when non-empty, run just these
};

/// True when `rule` survives Options (enabled, and listed when `only` is
/// non-empty).
bool rule_enabled(const Options& opts, const std::string& rule);

/// Lint one file given its contents. `path` must be the root-relative
/// path with '/' separators — rule applicability keys off it.
std::vector<Violation> lint_file(const std::string& path,
                                 const std::string& contents,
                                 const Options& opts = {});

/// Walk `root`/src, `root`/tools and `root`/tests for .h/.cpp files and
/// lint each. Directories named `fixtures` or starting with `build` are
/// skipped (lint-test fixture trees contain deliberate violations).
/// Results are sorted by (file, line).
std::vector<Violation> lint_tree(const std::string& root,
                                 const Options& opts = {});

/// Accepted debt: (file, rule) -> violation count.
using Baseline = std::map<std::pair<std::string, std::string>, std::size_t>;

/// Parse a baseline file's contents ("count rule-id path" per line; '#'
/// comments and blank lines ignored). Throws hsconas::Error on malformed
/// lines.
Baseline parse_baseline(const std::string& text);

/// Load a baseline from disk; a missing file is an empty baseline.
Baseline load_baseline(const std::string& path);

/// Serialize violations as baseline-file text (sorted, commented header).
std::string format_baseline(const std::vector<Violation>& violations);

/// Subtract the baseline: returns only violations in (file, rule) groups
/// whose count exceeds the baselined count. When `ratchet_notes` is
/// non-null it receives one line per baseline entry whose recorded count
/// now exceeds reality (stale debt that should be ratcheted down).
std::vector<Violation> apply_baseline(
    const std::vector<Violation>& violations, const Baseline& baseline,
    std::vector<std::string>* ratchet_notes = nullptr);

/// Render one violation as `file:line rule-id message`.
std::string format_violation(const Violation& v);

/// Render a run as machine-readable JSON (schema "hsconas.lint.v1"):
/// post-baseline violations, the number suppressed by the baseline, and
/// any ratchet notes. Used by `hsconas_lint --format=json`.
std::string format_violations_json(const std::vector<Violation>& active,
                                   std::size_t baselined,
                                   const std::vector<std::string>& notes);

}  // namespace hsconas::lint
