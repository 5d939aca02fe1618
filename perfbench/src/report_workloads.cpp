// The two report workloads: a closed loop of cli::run_report_result
// over a fixed, seeded set of federation configs.
#include <exception>
#include <functional>
#include <optional>

#include "bench.hpp"
#include "check.hpp"
#include "cli/runner.hpp"
#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/properties.hpp"
#include "core/shapley.hpp"
#include "core/sharing.hpp"
#include "gen.hpp"
#include "io/config.hpp"

namespace perfbench {
namespace {

namespace cli = fedshare::cli;
namespace game = fedshare::game;
namespace io = fedshare::io;

struct ReportWorkload {
  int facilities = 0;
  game::SymmetryMode symmetry = game::SymmetryMode::kOff;
  std::vector<ReportInput> (*generate)(std::uint64_t, std::size_t) = nullptr;
  // Inputs per run. Each run cycles over all of them in whole rounds,
  // so every input is reported equally often and the per-seed mix of
  // cheap and expensive games evens out.
  std::size_t inputs = 0;
};

// Per traced operation: the layer calls the report makes, each timed
// from outside on the same input, then the report itself.
struct TracedOp {
  std::string text;
  double report_ms = 0.0;
  double render_ms = 0.0;
  double values_evaluated = 0.0;
  double hit_ratio = 0.0;
  game::NucleolusResult nucleolus;
};

TracedOp traced_report(Tracer& tracer, std::uint64_t op,
                       const ReportInput& input, const ReportWorkload& w,
                       const cli::ReportOptions& options) {
  TracedOp out;
  const auto root = tracer.span("op", op);
  fedshare::lp::SimplexOptions lp_options;
  lp_options.solver = options.lp_solver;

  double outside_render = 0.0;
  auto timed = [&](const char* name, auto&& call, bool in_report) {
    const auto s = tracer.span(name, op);
    call();
    if (in_report) outside_render += s.elapsed_ms();
  };

  std::optional<io::Config> config;
  timed("io.parse", [&] { config = io::Config::parse_string(input.text); },
        false);
  std::optional<fedshare::model::Federation> fed;
  timed("model.federation",
        [&] { fed = cli::federation_from_config(*config); }, true);
  std::optional<game::TabularGame> g;
  timed("model.build_game", [&] { g = fed->build_game(w.symmetry); }, true);
  timed("core.properties", [&] { (void)game::analyze_properties(*g, 1e-9); },
        true);
  std::optional<game::PlayerPartition> partition;
  if (w.symmetry != game::SymmetryMode::kOff) {
    timed("core.symmetry",
          [&] { partition = fed->symmetry_partition(w.symmetry); }, true);
  }
  const auto stats = fed->value_cache().stats();
  out.values_evaluated = static_cast<double>(stats.misses);
  if (partition && !partition->is_trivial()) {
    out.values_evaluated += static_cast<double>(partition->orbit_count());
  }
  out.hit_ratio = stats.hit_rate();

  timed("core.shapley", [&] { (void)game::shapley_exact(*g); }, false);
  timed("core.banzhaf", [&] { (void)game::banzhaf_index(*g); }, false);
  timed("core.nucleolus",
        [&] {
          out.nucleolus = partition ? game::nucleolus(*g, *partition,
                                                      lp_options)
                                    : game::nucleolus(*g, lp_options);
        },
        false);
  std::vector<game::SchemeOutcome> outcomes;
  timed("core.compare_schemes",
        [&] {
          outcomes = game::compare_schemes(
              *g, fed->availability_weights(), fed->consumption_weights(),
              lp_options, partition ? &*partition : nullptr);
        },
        true);
  timed("core.core_check",
        [&] {
          for (const auto& o : outcomes) (void)game::in_core(*g, o.payoffs);
        },
        false);
  {
    const auto s = tracer.span("cli.report", op);
    out.text = cli::run_report_result(*config, options).text;
    out.report_ms = s.elapsed_ms();
  }
  out.render_ms = out.report_ms - outside_render;
  return out;
}

RunResult run_reports(const RunConfig& config, const ReportWorkload& w) {
  RunResult result;
  cli::ReportOptions options;
  options.symmetry = w.symmetry;

  // Set-up: generate and parse the input set, then one warm-up report.
  // It is repeated once per input, warming up on that input, and the
  // median reported: a median over all the games, not one game's cost.
  // Half the repetitions run before the timed loop and half after it,
  // so one short slow spell of the host does not set the figure.
  std::vector<ReportInput> inputs;
  std::vector<io::Config> configs;
  std::vector<double> setup_s;
  auto set_up = [&](std::size_t warm_up) {
    const auto t0 = Clock::now();
    inputs = w.generate(config.seed, w.inputs);
    configs.clear();
    for (const auto& input : inputs) {
      configs.push_back(io::Config::parse_string(input.text));
    }
    (void)cli::run_report_result(configs[warm_up], options);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  };
  for (std::size_t r = 0; r < w.inputs / 2; ++r) set_up(r);

  // Closed loop in whole rounds over the inputs. The first report of
  // each input is checked in full; later ones must repeat it byte for
  // byte, which is compared by digest so the benchmark keeps no report
  // text. Checking is outside the timed calls.
  std::vector<std::optional<std::size_t>> reference(inputs.size());
  std::vector<double> latency_ms;
  std::vector<double> untraced_ms;
  std::vector<TracedOp> traced;
  Tracer tracer;
  std::uint64_t op = 0;
  const auto loop_start = Clock::now();
  do {
    for (std::size_t k = 0; k < inputs.size(); ++k, ++op) {
      ++result.attempted;
      std::string text;
      try {
        // Traced and untraced operations alternate, and swap inputs
        // every round, so both see every input equally often.
        if (config.trace && (k + op / inputs.size()) % 2 == 1) {
          traced.push_back(traced_report(tracer, op, inputs[k], w, options));
          text = traced.back().text;
        } else {
          const auto t0 = Clock::now();
          cli::ReportResult report =
              cli::run_report_result(configs[k], options);
          const double ms = ms_between(t0, Clock::now());
          (config.trace ? untraced_ms : latency_ms).push_back(ms);
          if (report.degraded()) result.fail_check("report degraded");
          text = std::move(report.text);
        }
      } catch (const std::exception& e) {
        ++result.failed;
        result.errors.push_back(std::string("report failed: ") + e.what());
        continue;
      }
      const std::size_t digest = std::hash<std::string>{}(text);
      if (!reference[k]) {
        const ReportCheck check =
            check_report(text, w.facilities, inputs[k].type_of);
        for (const auto& bad : check.bad) {
          result.fail_check("input " + std::to_string(k) + ": " + bad);
        }
        ++result.reports_checked;
        if (check.core_nonempty) ++result.core_nonempty;
        reference[k] = digest;
      } else if (digest != *reference[k]) {
        result.fail_check("input " + std::to_string(k) +
                          ": report differs from its first report");
      }
    }
  } while (ms_between(loop_start, Clock::now()) < config.seconds * 1000.0);
  for (std::size_t r = w.inputs / 2; r < w.inputs; ++r) set_up(r);

  if (!config.trace) {
    add_end_to_end(result, setup_s, latency_ms);
    return result;
  }

  if (!tracer.write(spans_path(config))) {
    result.errors.push_back("cannot write " + spans_path(config));
  }
  const auto per_op = tracer.per_op_ms();
  for (const auto& [span, metric] : std::vector<std::pair<const char*,
                                                          const char*>>{
           {"io.parse", "io.parse_ms"},
           {"model.federation", "model.federation_ms"},
           {"model.build_game", "model.build_game_ms"},
           {"core.symmetry", "core.symmetry_ms"},
           {"core.properties", "core.properties_ms"},
           {"core.shapley", "core.shapley_ms"},
           {"core.banzhaf", "core.banzhaf_ms"},
           {"core.core_check", "core.core_check_ms"},
           {"core.nucleolus", "core.nucleolus_ms"},
           {"core.compare_schemes", "core.compare_schemes_ms"},
           {"cli.report", "cli.report_ms"}}) {
    add_span_metric(result, per_op, span, metric);
  }
  std::vector<double> render, report;
  double values = 0, hits = 0, lps = 0, pivots = 0, rows = 0;
  for (const TracedOp& t : traced) {
    render.push_back(t.render_ms);
    report.push_back(t.report_ms);
    values += t.values_evaluated;
    hits += t.hit_ratio;
    lps += static_cast<double>(t.nucleolus.lps_solved);
    pivots += static_cast<double>(t.nucleolus.pivots);
    rows += static_cast<double>(t.nucleolus.excess_rows);
  }
  const auto count = static_cast<double>(traced.size());
  result.metrics.push_back({"cli.render_ms", median(render), "ms"});
  result.metrics.push_back({"model.values_evaluated", values / count, "count"});
  result.metrics.push_back({"exec.cache_hit_ratio", hits / count, "ratio"});
  result.metrics.push_back({"lp.lps", lps / count, "count"});
  result.metrics.push_back({"lp.pivots", pivots / count, "count"});
  result.metrics.push_back({"lp.excess_rows", rows / count, "count"});
  result.metrics.push_back({"lp.pivots_per_lp", pivots / lps, "count"});
  add_overhead(result, report, untraced_ms);
  return result;
}

}  // namespace

RunResult run_report_hetero(const RunConfig& config) {
  return run_reports(config,
                     {6, game::SymmetryMode::kOff, hetero_inputs, 64});
}

RunResult run_report_typed(const RunConfig& config) {
  return run_reports(config,
                     {12, game::SymmetryMode::kAuto, typed_inputs, 16});
}

}  // namespace perfbench
