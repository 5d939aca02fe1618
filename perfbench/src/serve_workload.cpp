// serve_churn: a seeded churn log applied to a ServiceState recovered
// from a durable log directory, one apply + query per operation.
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/properties.hpp"
#include "core/shapley.hpp"
#include "core/sharing.hpp"
#include "gen.hpp"
#include "model/federation.hpp"
#include "model/value.hpp"
#include "runtime/outage.hpp"
#include "serve/event.hpp"
#include "serve/log.hpp"
#include "serve/state.hpp"

namespace perfbench {
namespace {

namespace game = fedshare::game;
namespace model = fedshare::model;
namespace serve = fedshare::serve;

// Recoveries per run, as many after the timed loop as before it, so
// one short slow spell of the host does not set the median.
constexpr int kSetupReps = 8;
// Cycles in the script; a run uses about one per 5 s.
constexpr int kCycles = 64;
// Every kOracleEvery-th operation is compared with a from-scratch
// solve. The cycle has 5 events per facility and 7 is prime to 5, so
// the sampled operations cover every event kind.
constexpr std::uint64_t kOracleEvery = 7;

// The benchmark's own copy of the roster rules (smallest free slot on
// join, outage masks from runtime::OutageModel over the nominal
// roster), tracked from the log alone.
struct Member {
  int slot = 0;
  model::FacilityConfig config;
  bool outage = false;
  std::vector<bool> up;
};

struct Shadow {
  std::vector<Member> roster;  // by slot
  model::DemandProfile demand;

  void apply(const serve::Event& event) {
    if (const auto* join = std::get_if<serve::FacilityJoin>(&event)) {
      Member m;
      while (std::any_of(roster.begin(), roster.end(), [&](const Member& o) {
        return o.slot == m.slot;
      })) {
        ++m.slot;
      }
      m.config = join->config;
      roster.insert(std::upper_bound(roster.begin(), roster.end(), m,
                                     [](const Member& a, const Member& b) {
                                       return a.slot < b.slot;
                                     }),
                    m);
    } else if (const auto* leave = std::get_if<serve::FacilityLeave>(&event)) {
      roster.erase(roster.begin() + index(leave->name));
    } else if (const auto* start = std::get_if<serve::OutageStart>(&event)) {
      std::vector<model::FacilityConfig> nominal;
      for (const Member& m : roster) nominal.push_back(m.config);
      const int i = index(start->name);
      roster[static_cast<std::size_t>(i)].outage = true;
      roster[static_cast<std::size_t>(i)].up =
          fedshare::runtime::OutageModel(start->seed)
              .sample(model::LocationSpace::disjoint(std::move(nominal)),
                      start->scenario)
              .up[static_cast<std::size_t>(i)];
    } else if (const auto* end = std::get_if<serve::OutageEnd>(&event)) {
      Member& m = roster[static_cast<std::size_t>(index(end->name))];
      m.outage = false;
      m.up.clear();
    } else {
      demand = std::get<serve::DemandUpdate>(event).demand;
    }
  }

  [[nodiscard]] int index(const std::string& name) const {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (roster[i].config.name == name) return static_cast<int>(i);
    }
    return -1;
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const Member& m : roster) out.push_back(m.config.name);
    return out;
  }

  // An outage keeps the surviving locations at full availability.
  [[nodiscard]] std::vector<model::FacilityConfig> effective() const {
    std::vector<model::FacilityConfig> out;
    for (const Member& m : roster) {
      if (!m.outage) {
        out.push_back(m.config);
        continue;
      }
      model::FacilityConfig cfg;
      cfg.name = m.config.name;
      cfg.units_per_location = m.config.units_per_location;
      for (const bool up : m.up) {
        if (up) cfg.custom_units.push_back(m.config.units_per_location);
      }
      cfg.num_locations = static_cast<int>(cfg.custom_units.size());
      out.push_back(std::move(cfg));
    }
    return out;
  }
};

fedshare::lp::SimplexOptions serve_lp_options() {
  fedshare::lp::SimplexOptions options;
  options.solver = serve::ServeOptions{}.lp_solver;
  return options;
}

// The schemes of an answer, solved from scratch for the shadow roster.
std::vector<game::SchemeOutcome> from_scratch(const Shadow& shadow,
                                              double& grand) {
  const model::Federation fed(
      model::LocationSpace::disjoint(shadow.effective()), shadow.demand);
  const game::TabularGame g = fed.build_game();
  grand = g.grand_value();
  return game::compare_schemes(g, fed.availability_weights(),
                               fed.consumption_weights(), serve_lp_options());
}

bool same_answer(const serve::EpochAnswer& a, const serve::EpochAnswer& b) {
  if (a.epoch != b.epoch || a.names != b.names ||
      a.grand_value != b.grand_value || a.grand_bound != b.grand_bound ||
      a.standalone != b.standalone || a.incentives != b.incentives ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.outcomes.size(); ++s) {
    const auto& x = a.outcomes[s];
    const auto& y = b.outcomes[s];
    if (x.scheme != y.scheme || x.shares != y.shares ||
        x.payoffs != y.payoffs || x.in_core != y.in_core) {
      return false;
    }
  }
  return true;
}

const char* apply_span(const serve::Event& event) {
  if (std::holds_alternative<serve::FacilityJoin>(event)) {
    return "serve.apply.join";
  }
  if (std::holds_alternative<serve::FacilityLeave>(event)) {
    return "serve.apply.leave";
  }
  if (std::holds_alternative<serve::DemandUpdate>(event)) {
    return "serve.apply.demand";
  }
  return "serve.apply.outage";
}

struct ApplyCounts {
  double invalidated = 0, values = 0, bound_lps = 0, bound_cold = 0,
         bound_pivots = 0;
  double lps = 0, pivots = 0, rows = 0;
  std::vector<double> resolve_ms;
  std::uint64_t ops = 0;
};

// One traced operation: parse, apply, query, and the publish step and
// the core layers re-run from outside on the epoch's game.
serve::ApplyResult traced_apply(Tracer& tracer, std::uint64_t op,
                                const std::string& line,
                                serve::ServiceState& state,
                                ApplyCounts& counts,
                                serve::EpochAnswer& answer, double& op_ms) {
  const auto root = tracer.span("op", op);
  serve::Event event = [&] {
    const auto s = tracer.span("serve.parse_event", op);
    return serve::parse_event(line);
  }();
  serve::ApplyResult applied;
  double apply_ms = 0.0;
  {
    const auto s = tracer.span(apply_span(event), op);
    applied = state.apply(event);
    apply_ms = s.elapsed_ms();
  }
  {
    const auto s = tracer.span("serve.query", op);
    answer = state.query();
    op_ms = apply_ms + s.elapsed_ms();
  }
  const auto snap = state.snapshot();
  const game::TabularGame& g = *snap->game;
  const model::Federation fed(snap->space, snap->demand);
  std::vector<game::SchemeOutcome> outcomes;
  {
    const auto s = tracer.span("serve.publish", op);
    outcomes = game::compare_schemes(g, fed.availability_weights(),
                                     model::consumption_weights(
                                         snap->space, snap->demand),
                                     serve_lp_options());
    counts.resolve_ms.push_back(apply_ms - s.elapsed_ms());
  }
  {
    const auto s = tracer.span("core.properties", op);
    (void)game::analyze_properties(g, 1e-9);
  }
  {
    const auto s = tracer.span("core.shapley", op);
    (void)game::shapley_exact(g);
  }
  {
    const auto s = tracer.span("core.banzhaf", op);
    (void)game::banzhaf_index(g);
  }
  {
    const auto s = tracer.span("core.nucleolus", op);
    const auto r = game::nucleolus(g, serve_lp_options());
    counts.lps += static_cast<double>(r.lps_solved);
    counts.pivots += static_cast<double>(r.pivots);
    counts.rows += static_cast<double>(r.excess_rows);
  }
  {
    const auto s = tracer.span("core.core_check", op);
    for (const auto& o : outcomes) (void)game::in_core(g, o.payoffs);
  }
  counts.invalidated += static_cast<double>(applied.invalidated);
  counts.values += static_cast<double>(applied.values_recomputed);
  counts.bound_lps += static_cast<double>(applied.lp_solves);
  counts.bound_cold += static_cast<double>(applied.lp_cold);
  counts.bound_pivots += static_cast<double>(applied.lp_pivots);
  ++counts.ops;
  return applied;
}

}  // namespace

RunResult run_serve_churn(const RunConfig& config) {
  RunResult result;
  const ChurnScript script = churn_script(config.seed, kCycles);
  std::vector<serve::Event> logged;
  std::vector<std::vector<serve::Event>> cycles;
  for (const auto* lines : {&script.prefix, &script.suffix}) {
    for (const auto& line : *lines) logged.push_back(serve::parse_event(line));
  }
  for (const auto& lines : script.cycles) {
    cycles.emplace_back();
    for (const auto& line : lines) {
      cycles.back().push_back(serve::parse_event(line));
    }
  }

  // The log recovery starts from, written before any timing: the
  // prefix with a checkpoint at its end, then the suffix, which every
  // recovery replays.
  const std::string dir =
      config.work_dir + "/serve-log-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  serve::DurableLogOptions log_options;
  log_options.checkpoint_every = script.prefix.size();
  Shadow shadow;
  serve::EpochAnswer written;
  {
    serve::ServiceState writer;
    serve::DurableLog log(dir, log_options);
    for (const auto& e : logged) {
      (void)writer.apply(e);
      log.append(e, writer);
      shadow.apply(e);
    }
    written = writer.query();
  }

  // Set-up: recover a state from the log directory.
  std::vector<double> setup_s;
  double replayed = 0.0;
  auto recover = [&] {
    const auto t0 = Clock::now();
    auto state = std::make_unique<serve::ServiceState>();
    serve::DurableLog log(dir, log_options);
    const serve::RecoveryReport report = log.recover(*state);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    replayed = static_cast<double>(report.replayed_events);
    if (report.used_fallback ||
        report.checkpoint_epoch != script.prefix.size() ||
        report.replayed_events != script.suffix.size()) {
      result.fail_check("recovery did not restore the prefix checkpoint");
    }
    if (!same_answer(state->query(), written)) {
      result.fail_check("recovered state answers unlike the writer");
    }
    return state;
  };
  std::unique_ptr<serve::ServiceState> state;
  for (int r = 0; r < kSetupReps / 2; ++r) state = recover();

  // Closed loop in whole cycles of the churn script: cycles 0, 1, ...,
  // and round again from 0 should a run outlast them.
  std::vector<double> latency_ms, untraced_ms, traced_ms;
  Tracer tracer;
  ApplyCounts counts;
  const auto cache_before = state->stats().cache;
  std::uint64_t epoch = state->epoch();
  std::uint64_t op = 0;
  std::size_t c = 0;
  const auto loop_start = Clock::now();
  do {
    const auto& cycle = cycles[c];
    for (std::size_t k = 0; k < cycle.size(); ++k, ++op) {
      ++result.attempted;
      serve::ApplyResult applied;
      serve::EpochAnswer answer;
      try {
        // Traced and untraced operations alternate; the cycle's length
        // is odd, so both see every event equally often.
        if (config.trace && op % 2 == 1) {
          double ms = 0.0;
          applied = traced_apply(tracer, op, script.cycles[c][k], *state, counts,
                                 answer, ms);
          traced_ms.push_back(ms);
        } else {
          const auto t0 = Clock::now();
          applied = state->apply(cycle[k]);
          answer = state->query();
          const double ms = ms_between(t0, Clock::now());
          (config.trace ? untraced_ms : latency_ms).push_back(ms);
        }
      } catch (const std::exception& e) {
        ++result.failed;
        result.errors.push_back(std::string("apply failed: ") + e.what());
        continue;
      }
      shadow.apply(cycle[k]);
      ++epoch;
      if (applied.epoch != epoch || !applied.complete) {
        result.fail_check("epoch did not advance by one to a complete answer");
      }
      if (answer.stale() || answer.epoch != epoch ||
          answer.degraded != fedshare::runtime::StopReason::kNone) {
        result.fail_check("stale answer at epoch " + std::to_string(epoch));
      }
      if (answer.names != shadow.names()) {
        result.fail_check("roster differs at epoch " + std::to_string(epoch));
      }
      if (op % kOracleEvery == 0) {
        double grand = 0.0;
        const auto expect = from_scratch(shadow, grand);
        bool same = answer.grand_value == grand &&
                    answer.outcomes.size() == expect.size();
        for (std::size_t s = 0; same && s < expect.size(); ++s) {
          same = answer.outcomes[s].scheme == expect[s].scheme &&
                 answer.outcomes[s].shares == expect[s].shares &&
                 answer.outcomes[s].in_core == expect[s].in_core;
        }
        if (!same) {
          result.fail_check("epoch " + std::to_string(epoch) +
                            " differs from a from-scratch solve");
        }
      }
    }
    c = (c + 1) % cycles.size();
  } while (ms_between(loop_start, Clock::now()) < config.seconds * 1000.0);
  for (int r = kSetupReps / 2; r < kSetupReps; ++r) (void)recover();
  std::filesystem::remove_all(dir);

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
           {"serve.parse_event", "serve.parse_event_ms"},
           {"serve.apply.join", "serve.apply_ms.join"},
           {"serve.apply.leave", "serve.apply_ms.leave"},
           {"serve.apply.outage", "serve.apply_ms.outage"},
           {"serve.apply.demand", "serve.apply_ms.demand"},
           {"serve.publish", "serve.publish_ms"},
           {"serve.publish", "core.compare_schemes_ms"},
           {"serve.query", "serve.query_ms"},
           {"core.properties", "core.properties_ms"},
           {"core.shapley", "core.shapley_ms"},
           {"core.banzhaf", "core.banzhaf_ms"},
           {"core.core_check", "core.core_check_ms"},
           {"core.nucleolus", "core.nucleolus_ms"}}) {
    add_span_metric(result, per_op, span, metric);
  }
  const auto n = static_cast<double>(counts.ops);
  const auto cache_after = state->stats().cache;
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  result.metrics.push_back(
      {"serve.recover_ms", median(setup_s) * 1000.0, "ms"});
  result.metrics.push_back({"serve.replayed_events", replayed, "count"});
  result.metrics.push_back(
      {"serve.resolve_ms", median(counts.resolve_ms), "ms"});
  result.metrics.push_back({"serve.invalidated", counts.invalidated / n,
                            "count"});
  result.metrics.push_back(
      {"serve.values_recomputed", counts.values / n, "count"});
  result.metrics.push_back({"serve.bound_lps", counts.bound_lps / n, "count"});
  result.metrics.push_back(
      {"serve.bound_lps_cold", counts.bound_cold / n, "count"});
  result.metrics.push_back(
      {"serve.bound_pivots", counts.bound_pivots / n, "count"});
  result.metrics.push_back(
      {"exec.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio"});
  result.metrics.push_back({"lp.lps", counts.lps / n, "count"});
  result.metrics.push_back({"lp.pivots", counts.pivots / n, "count"});
  result.metrics.push_back({"lp.excess_rows", counts.rows / n, "count"});
  result.metrics.push_back(
      {"lp.pivots_per_lp", counts.pivots / counts.lps, "count"});
  add_overhead(result, traced_ms, untraced_ms);
  return result;
}

}  // namespace perfbench
