// perfbench: end-to-end benchmark of fedshare's report and serve paths.
//
//   perfbench --workload <report_hetero|report_typed|serve_churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-rev <rev>] [--source-digest <hex>]
//
// A run prints provenance lines, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which
// also writes its spans to <work-dir>/spans-<workload>-<seed>.jsonl).
#include <sched.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "exec/pool.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

// Every per-layer metric, with its unit. A workload whose path does not
// reach a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"io.parse_ms", "ms"},
    {"model.federation_ms", "ms"},
    {"model.build_game_ms", "ms"},
    {"model.values_evaluated", "count"},
    {"core.symmetry_ms", "ms"},
    {"core.properties_ms", "ms"},
    {"core.shapley_ms", "ms"},
    {"core.banzhaf_ms", "ms"},
    {"core.core_check_ms", "ms"},
    {"core.nucleolus_ms", "ms"},
    {"core.compare_schemes_ms", "ms"},
    {"lp.lps", "count"},
    {"lp.pivots", "count"},
    {"lp.excess_rows", "count"},
    {"lp.pivots_per_lp", "count"},
    {"cli.report_ms", "ms"},
    {"cli.render_ms", "ms"},
    {"serve.recover_ms", "ms"},
    {"serve.replayed_events", "count"},
    {"serve.parse_event_ms", "ms"},
    {"serve.apply_ms.join", "ms"},
    {"serve.apply_ms.leave", "ms"},
    {"serve.apply_ms.outage", "ms"},
    {"serve.apply_ms.demand", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.resolve_ms", "ms"},
    {"serve.query_ms", "ms"},
    {"serve.invalidated", "count"},
    {"serve.values_recomputed", "count"},
    {"serve.bound_lps", "count"},
    {"serve.bound_lps_cold", "count"},
    {"serve.bound_pivots", "count"},
    {"exec.cache_hit_ratio", "ratio"},
    {"trace.overhead_ms", "ms"},
};

const std::map<std::string, RunResult (*)(const RunConfig&)> kWorkloads = {
    {"report_hetero", perfbench::run_report_hetero},
    {"report_typed", perfbench::run_report_typed},
    {"serve_churn", perfbench::run_serve_churn},
};

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--git-rev <rev>] "
               "[--source-digest <hex>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage();
  try {
    if (!args.count("workload") || kWorkloads.count(args["workload"]) == 0 ||
        !args.count("seed") || !args.count("seconds") ||
        !args.count("trace")) {
      return usage();
    }
    RunConfig config;
    config.seed = std::stoull(args["seed"]);
    config.workload = args["workload"];
    config.seconds = std::stod(args["seconds"]);
    config.trace = args["trace"] == "1";
    config.work_dir = args.count("work-dir") ? args["work-dir"] : ".";
    std::filesystem::create_directories(config.work_dir);

    RunResult result = kWorkloads.at(config.workload)(config);

    if (config.trace) {
      std::map<std::string, Metric> got;
      for (const Metric& m : result.metrics) got[m.name] = m;
      result.metrics.clear();
      for (const auto& [name, unit] : kPerLayer) {
        const auto it = got.find(name);
        result.metrics.push_back(
            {name, it == got.end() ? 0.0 : it->second.value, unit});
      }
    }
    for (const auto& e : result.errors) std::cerr << "perfbench: " << e << "\n";

    std::cout << "provenance: {\"workload\": " << json_string(config.workload)
              << ", \"seed\": " << config.seed
              << ", \"seconds\": " << json_number(config.seconds)
              << ", \"trace\": " << (config.trace ? 1 : 0)
              << ", \"nproc\": " << online_cpus()
              << ", \"cpu_model\": " << json_string(cpu_model())
              << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
              << ", \"git_rev\": "
              << json_string(args.count("git-rev") ? args["git-rev"] : "none")
              << ", \"source_digest\": "
              << json_string(args.count("source-digest")
                                 ? args["source-digest"]
                                 : "none")
              << ", \"fedshare_threads\": " << fedshare::exec::threads()
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed
              << ", \"reports_checked\": " << result.reports_checked
              << ", \"core_nonempty\": " << result.core_nonempty << "}\n";
    if (config.trace) {
      std::cout << "spans: " << perfbench::spans_path(config) << "\n";
    }
    std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      std::cout << (i ? ", " : "") << json_string(m.name)
                << ": {\"value\": " << json_number(m.value)
                << ", \"unit\": " << json_string(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
