/// mgs_perf: cross-run performance comparison (docs/observability.md).
///
///   mgs_perf diff BASE.json CUR.json [--top N] [--json OUT]
///       differential critical-path attribution between two run-reports:
///       a ranked "what got slower and where" table whose rows telescope
///       exactly to the makespan delta, with structural changes (plan
///       shape, wave count, resumed stages) flagged separately.
///   mgs_perf gate CUR.json [--json OUT]
///       the modeled-makespan regression gate: diffs CUR against the
///       committed baseline of its (dtype, op) cell,
///       bench_results/BENCH_baseline[_<dtype>_<op>].json, and fails
///       (exit 1) past +5% with the top-10 attribution table and the diff
///       JSON at OUT. A cell without a baseline SKIPs (exit 0).
///   mgs_perf history append --report R.json --label L
///              [--pipeline P] [--g G] [--file F]
///       append one run-report to the NDJSON history store.
///   mgs_perf history record --executor E --label L --seconds S
///              [--dtype D] [--op O] [--pipeline P] [--n N] [--g G]
///              [--devices D] [--payload-bytes B]
///              [--breakdown a=1.5,b=2] [--file F]
///       append a raw entry without a run-report -- pseudo-keys like the
///       nightly chaos campaign's wall time ride the same store.
///   mgs_perf history show [--file F]
///       per-configuration p50/p95/max summaries (deduped by (key,
///       label), keys sorted lexicographically -- output is stable).
///   mgs_perf history top [--file F] [--top N]
///       the configurations whose latest run regressed the most vs their
///       previous run, with the stage that moved the most.
///   mgs_perf history compact [--file F]
///       rewrite the store deduped by (key, label), latest entry wins --
///       run after merging a restored CI history before re-uploading.
///   mgs_perf trend [--file F] [--window N] [--min-effect-pct P]
///              [--mad-k K] [--ack L1,L2] [--ack-file F] [--json OUT]
///       change-point detection over each key's label-ordered series;
///       exits non-zero when any regression step is unacknowledged (the
///       longitudinal CI gate).
///   mgs_perf dashboard [--out F.html] [--title T] [trend flags]
///       the self-contained HTML trend dashboard (sparklines, p50/p95
///       bands, change-point markers, embedded diff tables).
///
/// The subcommand and its file operands are positional; util::Cli parses
/// the remaining --flags.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mgs/obs/diff.hpp"
#include "mgs/obs/history.hpp"
#include "mgs/obs/report.hpp"
#include "mgs/obs/trend.hpp"
#include "mgs/util/check.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/table.hpp"

namespace {

using namespace mgs;

constexpr const char* kDefaultHistory = "bench_results/history.ndjson";
constexpr const char* kDefaultAckFile = "bench_results/history_ack.txt";

int usage(int status) {
  std::fprintf(
      stderr,
      "usage: mgs_perf diff BASE.json CUR.json [--top N] [--json OUT]\n"
      "       mgs_perf gate CUR.json [--json OUT]\n"
      "       mgs_perf history append --report R.json --label L\n"
      "                [--pipeline P] [--g G] [--file F]\n"
      "       mgs_perf history record --executor E --label L --seconds S\n"
      "                [--breakdown a=1.5,b=2] [--file F] [...]\n"
      "       mgs_perf history show [--file F]\n"
      "       mgs_perf history top [--file F] [--top N]\n"
      "       mgs_perf history compact [--file F]\n"
      "       mgs_perf trend [--file F] [--window N] [--min-effect-pct P]\n"
      "                [--mad-k K] [--ack L1,L2] [--ack-file F] "
      "[--json OUT]\n"
      "       mgs_perf dashboard [--out F.html] [--title T] "
      "[trend flags]\n");
  return status;
}

/// Integer flag that must not be negative (counts, sizes, ranks).
std::int64_t get_count(const util::Cli& cli, const std::string& name,
                       std::int64_t def) {
  const std::int64_t v = cli.get_int(name, def);
  MGS_REQUIRE(v >= 0, "--" + name + " must be non-negative, got " +
                          std::to_string(v));
  return v;
}

/// The --json artifact of `diff` and `gate`; no-op when the flag is unset.
void write_diff_artifact(const util::Cli& cli, const obs::ReportDiff& d) {
  const std::string out = cli.get_string("json", "");
  if (out.empty()) return;
  std::ofstream os(out);
  MGS_REQUIRE(os.good(), "mgs_perf: cannot open " + out);
  obs::write_diff_json(os, d);
  std::printf("\nwrote %s\n", out.c_str());
}

int cmd_diff(const std::string& base_path, const std::string& cur_path,
             util::Cli& cli) {
  cli.describe("top", "show only the N largest attribution rows (0 = all)");
  cli.describe("json", "also write the machine-readable diff here");
  cli.reject_unknown();
  const auto top = static_cast<std::size_t>(get_count(cli, "top", 0));
  const auto d = obs::diff_reports(obs::load_run_report(base_path),
                                   obs::load_run_report(cur_path));
  std::printf("baseline: %s\ncurrent:  %s\n\n%s", base_path.c_str(),
              cur_path.c_str(), obs::format_diff(d, top).c_str());
  write_diff_artifact(cli, d);
  return 0;
}

/// Largest modeled-makespan regression `gate` lets through, percent.
/// Modeled time is deterministic, so any drift at all is a real change
/// to the cost model or the schedule; the slack only absorbs intended
/// small re-tunings that re-snapshot the baseline in the same commit.
constexpr double kGateTolerancePct = 5.0;

/// Run-report whose makespan can anchor a relative delta.
obs::RunReport load_gated_report(const std::string& path) {
  auto rep = obs::load_run_report(path);
  MGS_REQUIRE(rep.critical_path.total_seconds > 0.0,
              "gate: " + path + " has a non-positive makespan");
  return rep;
}

int cmd_gate(const std::string& cur_path, util::Cli& cli) {
  cli.describe("json", "write the diff JSON here when the gate fails");
  cli.reject_unknown();
  const auto cur = load_gated_report(cur_path);
  // Bench suffix convention: i32/plus gates against the plain file.
  const std::string cfg = cur.run.dtype + "/" + cur.run.op;
  const std::string base_path =
      "bench_results/BENCH_baseline" +
      (cfg == "i32/plus" ? "" : "_" + cur.run.dtype + "_" + cur.run.op) +
      ".json";
  if (!std::filesystem::exists(base_path)) {
    std::printf("gate: SKIP - no committed baseline for %s (%s missing). "
                "Snapshot one with `cp %s %s` to bring this configuration "
                "under the gate.\n",
                cfg.c_str(), base_path.c_str(), cur_path.c_str(),
                base_path.c_str());
    return 0;
  }
  const auto base = load_gated_report(base_path);
  const std::string base_cfg = base.run.dtype + "/" + base.run.op;
  MGS_REQUIRE(base_cfg == cfg,
              "gate: baseline " + base_path + " is " + base_cfg +
                  " but the current report is " + cfg +
                  "; comparing across performance models would be noise");
  const auto d = obs::diff_reports(base, cur);
  std::printf("gate: config %s\n"
              "gate: baseline makespan %10.3f us (%s)\n"
              "gate: current  makespan %10.3f us (%s)\n"
              "gate: delta %+.2f%% (tolerance +%.1f%%)\n",
              cfg.c_str(), d.base_total * 1e6, base_path.c_str(),
              d.cur_total * 1e6, cur_path.c_str(), d.delta_pct(),
              kGateTolerancePct);
  if (d.delta_pct() <= kGateTolerancePct) {
    std::printf("gate: OK\n");
    return 0;
  }
  std::printf("gate: top attribution of the regression:\n\n%s",
              obs::format_diff(d, 10).c_str());
  write_diff_artifact(cli, d);
  std::fprintf(stderr,
               "gate: FAIL - modeled makespan regressed %+.2f%% (> %.1f%%). "
               "If the change is intentional, re-snapshot %s in the same "
               "commit.\n",
               d.delta_pct(), kGateTolerancePct, base_path.c_str());
  return 1;
}

int cmd_history_append(util::Cli& cli) {
  cli.describe("report", "run-report JSON to append (required)");
  cli.describe("label", "entry label, e.g. the git sha (required)");
  cli.describe("pipeline", "pipeline the run used: auto/sync/overlap");
  cli.describe("g", "problems in the batch (the report header omits G)");
  cli.describe("file", "history store path (default bench_results/"
                       "history.ndjson)");
  cli.reject_unknown();
  const std::string report = cli.get_string("report", "");
  const std::string label = cli.get_string("label", "");
  MGS_REQUIRE(!report.empty() && !label.empty(),
              "mgs_perf: history append needs --report and --label");
  const obs::RunHistory hist(cli.get_string("file", kDefaultHistory));
  const auto entry = obs::entry_from_report(
      obs::load_run_report(report), label,
      cli.get_string("pipeline", "auto"), get_count(cli, "g", 0));
  hist.append(entry);
  std::printf("appended [%s] %s  makespan %.3f us -> %s\n", label.c_str(),
              entry.key.str().c_str(), entry.seconds * 1e6,
              hist.path().c_str());
  return 0;
}

/// "a=1.5,b=2" -> ordered (name, value) pairs.
std::vector<std::pair<std::string, double>> parse_breakdown(
    const std::string& spec) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    MGS_REQUIRE(eq != std::string::npos && eq > 0,
                "mgs_perf: --breakdown items must be name=value, got '" +
                    item + "'");
    out.emplace_back(item.substr(0, eq), std::stod(item.substr(eq + 1)));
  }
  return out;
}

int cmd_history_record(util::Cli& cli) {
  cli.describe("executor", "key executor / pseudo-key name (required)");
  cli.describe("label", "entry label, e.g. the git sha (required)");
  cli.describe("seconds", "measured seconds, e.g. wall time (required)");
  cli.describe("dtype", "key dtype (default i32)");
  cli.describe("op", "key op (default plus)");
  cli.describe("pipeline", "key pipeline (default auto)");
  cli.describe("n", "key problem size (default 0)");
  cli.describe("g", "key batch size (default 0)");
  cli.describe("devices", "key device count (default 0)");
  cli.describe("payload-bytes", "payload bytes (default 0)");
  cli.describe("breakdown",
               "extra name=value pairs stored as the breakdown, e.g. "
               "scenarios=10000,violations=0");
  cli.describe("file", "history store path");
  cli.reject_unknown();
  obs::HistoryEntry e;
  e.key.executor = cli.get_string("executor", "");
  e.label = cli.get_string("label", "");
  e.seconds = cli.get_double("seconds", -1.0);
  MGS_REQUIRE(!e.key.executor.empty() && !e.label.empty() && e.seconds >= 0.0,
              "mgs_perf: history record needs --executor, --label and a "
              "non-negative --seconds");
  e.key.dtype = cli.get_string("dtype", "i32");
  e.key.op = cli.get_string("op", "plus");
  e.key.pipeline = cli.get_string("pipeline", "auto");
  e.key.n = static_cast<std::uint64_t>(get_count(cli, "n", 0));
  e.key.g = get_count(cli, "g", 0);
  e.key.devices = static_cast<int>(get_count(cli, "devices", 0));
  e.payload_bytes =
      static_cast<std::uint64_t>(get_count(cli, "payload-bytes", 0));
  e.breakdown = parse_breakdown(cli.get_string("breakdown", ""));
  const obs::RunHistory hist(cli.get_string("file", kDefaultHistory));
  hist.append(e);
  std::printf("recorded [%s] %s  %.3f s -> %s\n", e.label.c_str(),
              e.key.str().c_str(), e.seconds, hist.path().c_str());
  return 0;
}

int cmd_history_show(util::Cli& cli) {
  cli.describe("file", "history store path");
  cli.reject_unknown();
  const obs::RunHistory hist(cli.get_string("file", kDefaultHistory));
  const auto entries = obs::dedup_entries(hist.load());
  if (entries.empty()) {
    std::printf("history: no entries in %s\n", hist.path().c_str());
    return 0;
  }
  std::printf("history: %zu entries (deduped by key+label) in %s\n\n",
              entries.size(), hist.path().c_str());
  std::printf("%s",
              obs::RunHistory::format_summary(
                  obs::RunHistory::summarize(entries))
                  .c_str());
  return 0;
}

int cmd_history_top(util::Cli& cli) {
  cli.describe("file", "history store path");
  cli.describe("top", "configurations to show (default 10)");
  cli.reject_unknown();
  const auto top = static_cast<std::size_t>(get_count(cli, "top", 10));
  const obs::RunHistory hist(cli.get_string("file", kDefaultHistory));
  // Dedup first: re-runs of a (key, label) pair collapse to the latest
  // entry and the label sequence keeps first-seen order, so "previous"
  // and "latest" mean commits, not appends.
  const auto entries = obs::dedup_entries(hist.load());
  // Latest vs previous entry per key: the "what got slower" ranking, with
  // the breakdown phase that moved the most as the where.
  struct Pair {
    const obs::HistoryEntry* prev = nullptr;
    const obs::HistoryEntry* latest = nullptr;
  };
  std::map<std::string, Pair> by_key;
  for (const auto& e : entries) {
    Pair& p = by_key[e.key.str()];
    p.prev = p.latest;
    p.latest = &e;
  }
  struct Row {
    const Pair* p;
    double delta_pct;
  };
  std::vector<Row> rows;
  for (const auto& [key, p] : by_key) {
    if (p.prev == nullptr || p.prev->seconds <= 0.0) continue;
    rows.push_back({&p, (p.latest->seconds / p.prev->seconds - 1.0) * 100.0});
  }
  // Worst regression first; ties keep the map's lexicographic key order
  // (stable sort), so equal-delta output never reshuffles between runs.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.delta_pct > b.delta_pct;
  });
  if (rows.empty()) {
    std::printf("history: need at least two runs of a configuration for a "
                "regression ranking (%zu entries in %s)\n",
                entries.size(), hist.path().c_str());
    return 0;
  }
  util::Table t({"config", "prev(us)", "latest(us)", "delta", "slowest mover",
                 "labels"});
  for (std::size_t i = 0; i < std::min(top, rows.size()); ++i) {
    const auto& [p, delta_pct] = rows[i];
    // The breakdown phase with the largest absolute drift.
    std::map<std::string, double> prev_phases(p->prev->breakdown.begin(),
                                              p->prev->breakdown.end());
    std::string mover = "-";
    double mover_delta = 0.0;
    for (const auto& [phase, secs] : p->latest->breakdown) {
      const double d = secs - (prev_phases.count(phase) != 0
                                   ? prev_phases.at(phase)
                                   : 0.0);
      if (std::abs(d) > std::abs(mover_delta)) {
        mover_delta = d;
        mover = phase;
      }
    }
    char delta[32], mover_buf[96];
    std::snprintf(delta, sizeof delta, "%+.2f%%", delta_pct);
    std::snprintf(mover_buf, sizeof mover_buf, "%s (%+.2f us)", mover.c_str(),
                  mover_delta * 1e6);
    t.add_row({p->latest->key.str(),
               util::fmt_double(p->prev->seconds * 1e6, 1),
               util::fmt_double(p->latest->seconds * 1e6, 1), delta,
               mover_buf,
               (p->prev->label.empty() ? "-" : p->prev->label) + " -> " +
                   (p->latest->label.empty() ? "-" : p->latest->label)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_history_compact(util::Cli& cli) {
  cli.describe("file", "history store path to rewrite in place");
  cli.reject_unknown();
  const std::string path = cli.get_string("file", kDefaultHistory);
  const obs::RunHistory hist(path);
  const auto entries = hist.load();
  const auto deduped = obs::dedup_entries(entries);
  const std::string tmp = path + ".compact.tmp";
  std::filesystem::remove(tmp);
  const obs::RunHistory out(tmp);
  for (const auto& e : deduped) out.append(e);
  std::filesystem::rename(tmp, path);
  std::printf("compacted %s: %zu -> %zu entries\n", path.c_str(),
              entries.size(), deduped.size());
  return 0;
}

/// Shared trend-analysis flags + pipeline for `trend` and `dashboard`.
struct TrendSetup {
  obs::TrendOptions opt;
  std::vector<obs::KeyTrend> trends;
  std::string file;
};

void describe_trend_flags(util::Cli& cli) {
  cli.describe("file", "history store path (default bench_results/"
                       "history.ndjson)");
  cli.describe("window", "points per side of the detection split "
                         "(default 5)");
  cli.describe("min-effect-pct", "minimum relative step to flag, percent "
                                 "(default 10)");
  cli.describe("mad-k", "noise floor multiplier over the trailing MAD "
                        "(default 4)");
  cli.describe("ack", "comma-separated labels whose change-points are "
                      "acknowledged (never gate)");
  cli.describe("ack-file", "file of acknowledged labels, one per line, "
                           "'#' comments (default bench_results/"
                           "history_ack.txt when present)");
}

std::vector<std::string> load_acks(const util::Cli& cli) {
  std::vector<std::string> acks;
  std::istringstream list(cli.get_string("ack", ""));
  std::string item;
  while (std::getline(list, item, ',')) {
    if (!item.empty()) acks.push_back(item);
  }
  const std::string default_ack =
      std::filesystem::exists(kDefaultAckFile) ? kDefaultAckFile : "";
  const std::string ack_file = cli.get_string("ack-file", default_ack);
  if (!ack_file.empty()) {
    std::ifstream is(ack_file);
    MGS_REQUIRE(is.good() || ack_file == default_ack,
                "mgs_perf: cannot open ack file " + ack_file);
    std::string line;
    while (std::getline(is, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      // Trim whitespace; what remains is one acknowledged label.
      const auto b = line.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      const auto e = line.find_last_not_of(" \t\r");
      acks.push_back(line.substr(b, e - b + 1));
    }
  }
  return acks;
}

TrendSetup analyze_from_cli(const util::Cli& cli) {
  TrendSetup s;
  s.file = cli.get_string("file", kDefaultHistory);
  s.opt.window = static_cast<int>(cli.get_int("window", 5));
  s.opt.min_effect = cli.get_double("min-effect-pct", 10.0) / 100.0;
  s.opt.mad_k = cli.get_double("mad-k", 4.0);
  MGS_REQUIRE(s.opt.window >= 1 && s.opt.min_effect >= 0.0 &&
                  s.opt.mad_k >= 0.0,
              "mgs_perf: trend options must be non-negative (window >= 1)");
  s.trends = obs::analyze_trends(obs::RunHistory(s.file).load(), s.opt);
  obs::acknowledge(s.trends, load_acks(cli));
  return s;
}

int cmd_trend(util::Cli& cli) {
  describe_trend_flags(cli);
  cli.describe("json", "also write the machine-readable trend report "
                       "here");
  cli.reject_unknown();
  const TrendSetup s = analyze_from_cli(cli);
  if (s.trends.empty()) {
    std::printf("trend: no entries in %s\n", s.file.c_str());
    return 0;
  }
  std::printf("trend: %zu configs in %s\n\n%s", s.trends.size(),
              s.file.c_str(), obs::format_trends(s.trends, s.opt).c_str());
  const std::string out = cli.get_string("json", "");
  if (!out.empty()) {
    std::ofstream os(out);
    MGS_REQUIRE(os.good(), "mgs_perf: cannot open " + out);
    obs::write_trend_json(os, s.trends, s.opt);
    std::printf("wrote %s\n", out.c_str());
  }
  return obs::has_unacknowledged_regression(s.trends) ? 1 : 0;
}

int cmd_dashboard(util::Cli& cli) {
  describe_trend_flags(cli);
  cli.describe("out", "output HTML path (default bench_results/"
                      "dashboard.html)");
  cli.describe("title", "dashboard title");
  cli.reject_unknown();
  const TrendSetup s = analyze_from_cli(cli);
  const std::string out =
      cli.get_string("out", "bench_results/dashboard.html");
  const auto parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(out);
  MGS_REQUIRE(os.good(), "mgs_perf: cannot open " + out);
  obs::write_dashboard(os, s.trends, s.opt,
                       cli.get_string("title", "mgs perf trends"));
  MGS_REQUIRE(os.good(), "mgs_perf: write failed for " + out);
  std::size_t cps = 0;
  for (const auto& t : s.trends) cps += t.changes.size();
  std::printf("dashboard: %zu configs, %zu change-point(s) -> %s\n",
              s.trends.size(), cps, out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Split "mgs_perf <subcommand> [operands] --flags" by hand: util::Cli
    // rejects positional arguments, so the leading non-flag words are
    // peeled off before it sees argv.
    std::vector<std::string> pos;
    std::vector<char*> flags;
    flags.push_back(argv[0]);
    bool flags_started = false;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (!flags_started && a.rfind("--", 0) != 0) {
        pos.push_back(a);
      } else {
        flags_started = true;
        flags.push_back(argv[i]);
      }
    }
    util::Cli cli(static_cast<int>(flags.size()), flags.data());
    if (pos.empty()) {
      return usage(cli.help_requested() ? 0 : 2);
    }
    if (pos[0] == "diff") {
      MGS_REQUIRE(pos.size() == 3,
                  "mgs_perf: diff needs exactly two report paths");
      return cmd_diff(pos[1], pos[2], cli);
    }
    if (pos[0] == "gate") {
      MGS_REQUIRE(pos.size() == 2,
                  "mgs_perf: gate needs exactly one report path");
      return cmd_gate(pos[1], cli);
    }
    if (pos[0] == "trend") {
      MGS_REQUIRE(pos.size() == 1, "mgs_perf: trend takes flags only");
      return cmd_trend(cli);
    }
    if (pos[0] == "dashboard") {
      MGS_REQUIRE(pos.size() == 1, "mgs_perf: dashboard takes flags only");
      return cmd_dashboard(cli);
    }
    if (pos[0] == "history") {
      MGS_REQUIRE(pos.size() == 2,
                  "mgs_perf: history needs a subcommand "
                  "(append/record/show/top/compact)");
      if (pos[1] == "append") return cmd_history_append(cli);
      if (pos[1] == "record") return cmd_history_record(cli);
      if (pos[1] == "show") return cmd_history_show(cli);
      if (pos[1] == "top") return cmd_history_top(cli);
      if (pos[1] == "compact") return cmd_history_compact(cli);
      throw util::Error("mgs_perf: unknown history subcommand '" + pos[1] +
                        "'");
    }
    std::fprintf(stderr, "mgs_perf: unknown command '%s'\n", pos[0].c_str());
    return usage(2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgs_perf: %s\n", e.what());
    return 2;
  }
}
