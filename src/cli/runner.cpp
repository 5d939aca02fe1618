#include "cli/runner.hpp"

#include <cmath>
#include <sstream>

#include "core/game_io.hpp"
#include "core/owen.hpp"
#include "core/shapley.hpp"
#include "core/properties.hpp"
#include "core/sharing.hpp"
#include "io/table.hpp"
#include "runtime/budget.hpp"
#include "runtime/outage.hpp"
#include "runtime/resilient.hpp"
#include "structure/csg.hpp"
#include "structure/hedonic.hpp"
#include "structure/stability.hpp"
#include "verify/audit.hpp"

namespace fedshare::cli {

namespace {

// Region names per facility (empty string = none), in facility order.
std::vector<std::string> region_labels(const io::Config& config) {
  std::vector<std::string> labels;
  for (const auto* section : config.sections_named("facility")) {
    labels.push_back(section->find("region").value_or(""));
  }
  return labels;
}

// Builds the coalition structure implied by the region labels, plus the
// distinct region display names (singletons use the facility name).
struct Hierarchy {
  game::CoalitionStructure structure;
  std::vector<std::string> block_names;
};

std::optional<Hierarchy> hierarchy_from_labels(
    const std::vector<std::string>& labels,
    const std::vector<std::string>& facility_names) {
  bool any = false;
  for (const auto& l : labels) {
    if (!l.empty()) any = true;
  }
  if (!any) return std::nullopt;
  Hierarchy h;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string& label = labels[i];
    if (label.empty()) {
      h.structure.unions.push_back(
          game::Coalition::single(static_cast<int>(i)));
      h.block_names.push_back(facility_names[i]);
      continue;
    }
    bool merged = false;
    for (std::size_t b = 0; b < h.block_names.size(); ++b) {
      if (h.block_names[b] == label) {
        h.structure.unions[b] =
            h.structure.unions[b].with(static_cast<int>(i));
        merged = true;
        break;
      }
    }
    if (!merged) {
      h.structure.unions.push_back(
          game::Coalition::single(static_cast<int>(i)));
      h.block_names.push_back(label);
    }
  }
  return h;
}

// Renders the --verify audit outcome. Deterministic text: counts,
// pass/fail, and the (capped) issue list.
void print_verification(std::ostream& out, verify::VerifyLevel level,
                        const verify::AuditReport& report) {
  io::print_heading(out, "Verification");
  out << "level: " << verify::to_string(level) << "\n";
  out << "audit checks: " << report.checks << " ("
      << (report.passed ? "all passed" : "ISSUES FOUND") << ")\n";
  if (report.lp_stats_valid) {
    const auto& lp = report.lp;
    out << "lp solves: " << lp.solves << " observed, " << lp.certified
        << " certified, " << lp.unchecked << " unchecked";
    if (lp.refined > 0) {
      out << ", " << lp.refined << " repaired by refinement";
    }
    if (lp.escalated > 0) {
      out << ", " << lp.escalated << " escalated (" << lp.dense_answers
          << " answered by the dense engine)";
    }
    if (lp.failures > 0) out << ", " << lp.failures << " UNCERTIFIED";
    out << "\n";
  }
  for (const auto& issue : report.issues) {
    out << "issue: " << issue.check << ": " << issue.detail << "\n";
  }
  for (const auto& note : report.notes) {
    out << "note: " << note.check << ": " << note.detail << "\n";
  }
}

// The --structure section: the partition found by the selected engine,
// per-block values and payoffs, welfare vs the grand coalition, and
// stability verdicts. Deterministic text (both engines are).
void print_structure(std::ostream& out, structure::StructureMode mode,
                     const game::Game& g,
                     const std::vector<std::string>& names, int precision) {
  io::print_heading(out, "Coalition structure");
  game::CoalitionStructure partition;
  if (mode == structure::StructureMode::kOptimal) {
    const auto r = structure::optimal_structure(g);
    partition = r.structure;
    out << "mode: optimal (exact subset-lattice DP, " << r.splits_considered
        << " first-block candidates)\n";
  } else {
    const auto r = structure::hedonic_merge_split(g);
    partition = r.partition;
    out << "mode: hedonic (merge/split dynamics, " << r.iterations
        << " operations, "
        << (r.converged ? "converged" : "operation cap reached") << ")\n";
  }
  const double welfare = structure::structure_welfare(g, partition);
  const double grand = g.value(game::Coalition::grand(g.num_players()));
  const auto payoffs = structure::partition_payoffs(g, partition);

  io::Table table({"block", "V(S)"});
  table.set_align(0, io::Align::kLeft);
  for (const auto& block : partition.unions) {
    std::string label;
    for (const int m : block.members()) {
      if (!label.empty()) label += "+";
      label += names[static_cast<std::size_t>(m)];
    }
    table.add_row({label, io::format_double(g.value(block), precision)});
  }
  table.print(out);
  out << "structure welfare: " << io::format_double(welfare, precision)
      << " (grand coalition " << io::format_double(grand, precision) << ", "
      << (welfare > grand + 1e-12
              ? "partitioning gains " +
                    io::format_double(welfare - grand, precision)
              : "grand coalition is optimal")
      << ")\n";

  io::Table ptable({"facility", "payoff"});
  ptable.set_align(0, io::Align::kLeft);
  for (std::size_t i = 0; i < names.size(); ++i) {
    ptable.add_row({names[i], io::format_double(payoffs[i], precision)});
  }
  out << '\n';
  ptable.print(out);

  const auto stability = structure::analyze_stability(g, partition);
  out << "merge/split stable: " << (stability.merge_split_stable ? "yes" : "no")
      << "\n";
  out << "defection-proof: " << (stability.defection_proof ? "yes" : "no")
      << " (max within-block excess "
      << io::format_double(stability.max_excess, precision);
  if (!stability.defection_proof) {
    out << " by " << stability.worst_deviation.to_string();
  }
  out << ")\n";
}

}  // namespace

model::Federation federation_from_config(const io::Config& config) {
  const auto facility_sections = config.sections_named("facility");
  if (facility_sections.empty()) {
    throw io::ConfigError("config needs at least one [facility] section");
  }
  if (facility_sections.size() > 12) {
    throw io::ConfigError(
        "at most 12 facilities supported (2^n coalition values)");
  }
  std::vector<model::FacilityConfig> configs;
  for (const auto* section : facility_sections) {
    model::FacilityConfig cfg;
    cfg.name = section->find("name").value_or(
        "F" + std::to_string(configs.size() + 1));
    const double locations = section->get_double("locations");
    if (locations < 0.0 || locations != std::floor(locations)) {
      throw io::ConfigError("'locations' must be a non-negative integer",
                            section->entry_line("locations"));
    }
    cfg.num_locations = static_cast<int>(locations);
    cfg.units_per_location = section->get_double_or("units", 1.0);
    if (cfg.units_per_location < 0.0) {
      throw io::ConfigError("'units' must be >= 0",
                            section->entry_line("units"));
    }
    cfg.availability = section->get_double_or("availability", 1.0);
    if (cfg.availability <= 0.0 || cfg.availability > 1.0) {
      throw io::ConfigError("'availability' must be in (0, 1]",
                            section->entry_line("availability"));
    }
    configs.push_back(std::move(cfg));
  }

  const auto demand_sections = config.sections_named("demand");
  if (demand_sections.empty()) {
    throw io::ConfigError("config needs at least one [demand] section");
  }
  model::DemandProfile demand;
  for (const auto* section : demand_sections) {
    model::RequestClass rc;
    rc.count = section->get_double_or("count", 1.0);
    if (rc.count < 0.0) {
      throw io::ConfigError("'count' must be >= 0",
                            section->entry_line("count"));
    }
    rc.min_locations = section->get_double_or("min_locations", 0.0);
    if (rc.min_locations < 0.0) {
      throw io::ConfigError("'min_locations' must be >= 0",
                            section->entry_line("min_locations"));
    }
    rc.units_per_location = section->get_double_or("units", 1.0);
    if (rc.units_per_location <= 0.0) {
      throw io::ConfigError("'units' must be > 0",
                            section->entry_line("units"));
    }
    rc.exponent = section->get_double_or("exponent", 1.0);
    rc.holding_time = section->get_double_or("holding_time", 1.0);
    demand.classes.push_back(rc);
  }

  try {
    demand.validate();
    return model::Federation(model::LocationSpace::disjoint(configs),
                             std::move(demand));
  } catch (const std::invalid_argument& e) {
    throw io::ConfigError(e.what());
  }
}

namespace {

// The --symmetry section: detected types, multiplicities, and the orbit
// count the quotient engine evaluated instead of all 2^n coalitions.
void print_symmetry(std::ostringstream& out, const model::Federation& fed,
                    const game::PlayerPartition& partition,
                    game::SymmetryMode mode) {
  io::print_heading(out, "Symmetry");
  out << "mode: " << game::to_string(mode)
      << (partition.is_trivial() ? " (no interchangeable facilities; full "
                                   "tabulation used)"
                                 : "")
      << "\n";
  io::Table table({"type", "facilities", "multiplicity"});
  table.set_align(0, io::Align::kLeft);
  table.set_align(1, io::Align::kLeft);
  for (int t = 0; t < partition.num_types(); ++t) {
    std::string members;
    for (const int i : partition.members(t)) {
      if (!members.empty()) members += "+";
      members += fed.space().facility(i).name();
    }
    table.add_row({std::to_string(t), members,
                   std::to_string(partition.multiplicity(t))});
  }
  table.print(out);
  out << "orbits: " << partition.orbit_count() << " of "
      << (std::uint64_t{1} << fed.num_facilities())
      << " coalitions evaluated\n";
}

// --cache-stats footer: the federation memo's counters after the report
// body ran. The hit/miss split shows how much the schemes shared; the
// batched-store line is the write-combining telemetry (batch entries vs
// shard locks actually taken).
void print_cache_stats(std::ostream& out, const exec::CacheStats& s) {
  io::print_heading(out, "Value cache");
  out << "entries: " << s.entries << ", hits: " << s.hits << ", misses: "
      << s.misses << ", invalidated: " << s.invalidations << "\n";
  out << "batched stores: " << s.batched_stores << " in " << s.batch_flushes
      << " flushes taking " << s.batch_shard_locks << " shard locks\n";
}

// Quotient-nucleolus footer line (only when the orbit-row path actually
// ran, so reports without --symmetry stay byte-identical).
void print_quotient_nucleolus_stats(std::ostream& out,
                                    const game::QuotientNucleolusInfo& info) {
  if (!info.attempted) return;
  const std::uint64_t lookups = info.orbit_hits + info.orbit_misses;
  out << "quotient nucleolus: " << info.orbit_rows << " orbit rows (dense "
      << info.dense_rows << "), " << info.lps_solved << " LPs, " << info.pivots
      << " pivots, orbit cache ";
  if (lookups == 0) {
    out << "unused";
  } else {
    const double rate =
        100.0 * static_cast<double>(info.orbit_hits) /
        static_cast<double>(lookups);
    out << info.orbit_hits << "/" << lookups << " hits ("
        << io::format_double(rate, 1) << "%)";
  }
  out << "\n";
}

}  // namespace

// The one report body. Every exponential computation runs under the
// budget and degrades instead of overrunning; with no --deadline-ms the
// budget is unlimited and nothing degrades except a nucleolus the dense
// engine cannot reach (n > 10 without a symmetry quotient). Degraded
// sections are recorded in the returned ReportResult so the CLI can
// exit nonzero. ReportOptions::any() only decides whether the
// Resilience section is printed.
ReportResult run_report_result(const io::Config& config,
                               const ReportOptions& ropts) {
  ReportResult result;
  const model::Federation fed = federation_from_config(config);
  int precision = 4;
  const auto options = config.sections_named("options");
  if (!options.empty()) {
    precision =
        static_cast<int>(options.front()->get_double_or("precision", 4.0));
  }

  std::ostringstream out;
  const int n = fed.num_facilities();
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back(fed.space().facility(i).name());
  }

  const runtime::ComputeBudget budget =
      ropts.deadline_ms.has_value()
          ? runtime::ComputeBudget::with_deadline_ms(*ropts.deadline_ms)
          : runtime::ComputeBudget::unlimited();
  const game::FunctionGame fgame(
      n, [&fed](game::Coalition c) { return fed.value(c); });
  // One partition per report: it drives the tabulation (one allocation
  // per orbit), the Symmetry section and the quotient nucleolus. kOff
  // gives the identity partition, i.e. the per-mask tabulation.
  const game::PlayerPartition partition = fed.symmetry_partition(ropts.symmetry);
  const auto tab = fed.build_game_budgeted(partition, budget);

  io::print_heading(out, "Coalition values");
  io::Table values({"coalition", "V(S)"});
  values.set_align(0, io::Align::kLeft);
  if (tab) {
    for (const auto& s : game::all_coalitions(n)) {
      if (s.empty()) continue;
      std::string label;
      for (const int m : s.members()) {
        if (!label.empty()) label += "+";
        label += names[static_cast<std::size_t>(m)];
      }
      values.add_row({label, io::format_double(tab->value(s), precision)});
    }
    values.print(out);
  } else {
    // Polynomial floor: singletons and the grand coalition only.
    for (int i = 0; i < n; ++i) {
      values.add_row({names[static_cast<std::size_t>(i)],
                      io::format_double(fed.value(game::Coalition::single(i)),
                                        precision)});
    }
    std::string grand_label;
    for (const auto& name : names) {
      if (!grand_label.empty()) grand_label += "+";
      grand_label += name;
    }
    values.add_row({grand_label,
                    io::format_double(
                        fed.value(game::Coalition::grand(n)), precision)});
    values.print(out);
    out << "(full coalition table skipped: "
        << runtime::to_string(budget.stop_reason()) << ")\n";
    result.degraded_sections.emplace_back("coalition table");
  }

  if (tab) {
    const auto props = game::analyze_properties(*tab, 1e-9);
    out << "\nGame properties: "
        << (props.superadditive ? "superadditive" : "not superadditive")
        << ", " << (props.convex ? "convex" : "not convex") << ", "
        << (props.monotone ? "monotone" : "not monotone") << ", "
        << (props.essential ? "essential" : "inessential") << "\n";
  } else {
    out << "\nGame properties: not evaluated (coalition table unavailable "
           "under deadline)\n";
  }

  if (ropts.symmetry != game::SymmetryMode::kOff) {
    print_symmetry(out, fed, partition, ropts.symmetry);
  }

  io::print_heading(out, "Sharing schemes");
  std::vector<std::string> headers{"scheme"};
  for (const auto& name : names) headers.push_back(name);
  headers.emplace_back("in core");
  io::Table table(std::move(headers));
  table.set_align(0, io::Align::kLeft);
  verify::VerifyOptions verify_options;
  verify_options.level = ropts.verify;
  verify::AuditReport audit;
  game::QuotientNucleolusInfo nucleolus_info;
  runtime::ResilientSchemes rs = runtime::compare_schemes_resilient_verified(
      tab ? static_cast<const game::Game&>(*tab) : fgame,
      tab ? &*tab : nullptr, fed.availability_weights(),
      fed.consumption_weights(), verify_options, &audit, budget, 4096, 1,
      ropts.lp_solver, &partition, &nucleolus_info);
  if (rs.shapley_engine == runtime::ShapleyEngine::kMonteCarlo) {
    result.degraded_sections.emplace_back("shapley (monte-carlo fallback)");
  }
  switch (rs.nucleolus_skip) {
    case runtime::NucleolusSkip::kNone: break;
    case runtime::NucleolusSkip::kBudget:
      result.degraded_sections.emplace_back("nucleolus");
      break;
    case runtime::NucleolusSkip::kTooLarge:
      result.degraded_sections.emplace_back(
          "nucleolus (n > 10 without a symmetry quotient)");
      break;
  }
  for (const auto& o : rs.outcomes) {
    std::vector<std::string> row{game::to_string(o.scheme)};
    for (int i = 0; i < n; ++i) {
      row.push_back(io::format_double(o.shares[static_cast<std::size_t>(i)],
                                      precision));
    }
    row.emplace_back(rs.core_checked ? (o.in_core ? "yes" : "no") : "n/a");
    table.add_row(std::move(row));
  }
  table.print(out);

  // Optional hierarchy section (needs the full table; Owen and the
  // quotient Shapley are exponential in the block structure).
  const auto labels = region_labels(config);
  if (const auto hierarchy = hierarchy_from_labels(labels, names)) {
    if (tab) {
      io::print_heading(out, "Hierarchy (Owen value)");
      const auto owen = game::normalize_shares(
          game::owen_value(*tab, hierarchy->structure));
      const auto quotient = game::normalize_shares(game::shapley_exact(
          game::quotient_game(*tab, hierarchy->structure)));
      io::Table htable(
          std::vector<std::string>{"facility", "block", "Owen share"});
      htable.set_align(0, io::Align::kLeft);
      htable.set_align(1, io::Align::kLeft);
      for (int i = 0; i < n; ++i) {
        htable.add_row(
            {names[static_cast<std::size_t>(i)],
             hierarchy->block_names[hierarchy->structure.union_of(i)],
             io::format_double(owen[static_cast<std::size_t>(i)],
                               precision)});
      }
      htable.print(out);
      io::Table rtable(
          std::vector<std::string>{"block", "quotient Shapley share"});
      rtable.set_align(0, io::Align::kLeft);
      for (std::size_t b = 0; b < hierarchy->block_names.size(); ++b) {
        rtable.add_row({hierarchy->block_names[b],
                        io::format_double(quotient[b], precision)});
      }
      out << '\n';
      rtable.print(out);
    } else {
      rs.notes.emplace_back(
          "hierarchy: skipped (coalition table unavailable under "
          "deadline)");
      result.degraded_sections.emplace_back("hierarchy");
    }
  }

  // Optional coalition-structure section. The engines read only the
  // tabulated values (free under the charging rule), so once the table
  // exists the section always completes; without it the section is
  // skipped and recorded as degraded rather than re-charging the budget.
  if (ropts.structure != structure::StructureMode::kOff) {
    if (tab) {
      print_structure(out, ropts.structure, *tab, names, precision);
    } else {
      rs.notes.emplace_back(
          "coalition structure: skipped (coalition table unavailable "
          "under deadline)");
      result.degraded_sections.emplace_back("coalition structure");
    }
  }

  if (ropts.any()) {
    io::print_heading(out, "Resilience");
    if (ropts.deadline_ms.has_value()) {
      out << "deadline: " << *ropts.deadline_ms << " ms\n";
    } else {
      out << "deadline: none\n";
    }
    out << "coalition table: "
        << (tab ? "complete"
                : std::string("truncated (") +
                      runtime::to_string(budget.stop_reason()) + ")")
        << "\n";
    out << "shapley engine: " << runtime::to_string(rs.shapley_engine);
    if (rs.shapley_engine == runtime::ShapleyEngine::kMonteCarlo) {
      out << " (" << rs.shapley_samples << " samples, max standard error "
          << io::format_double(rs.shapley_max_se, precision) << ")";
    }
    out << "\n";
    for (const auto& note : rs.notes) {
      out << "note: " << note << "\n";
    }
  }

  if (ropts.verify != verify::VerifyLevel::kOff) {
    print_verification(out, ropts.verify, audit);
  }

  if (ropts.outage_scenarios > 0) {
    const runtime::OutageReport report = runtime::evaluate_outages(
        fed, ropts.outage_scenarios, ropts.outage_seed, budget);
    io::print_heading(out, "Outage distribution");
    out << "scenarios: " << report.scenarios_evaluated << "/"
        << report.scenarios_requested << " (seed " << report.seed << ")"
        << (report.complete() ? "" : " — truncated by the deadline")
        << "\n";
    if (!report.complete()) {
      result.degraded_sections.emplace_back("outage distribution");
    }
    if (report.scenarios_evaluated > 0) {
      out << "V(N): mean " << io::format_double(report.grand_value.mean,
                                                precision)
          << ", q05 " << io::format_double(report.grand_value.q05, precision)
          << ", q95 " << io::format_double(report.grand_value.q95, precision)
          << ", min " << io::format_double(report.grand_value.min, precision)
          << ", max " << io::format_double(report.grand_value.max, precision)
          << "\n\n";
      io::Table shares_table(std::vector<std::string>{
          "scheme", "facility", "mean share", "q05", "q95", "mean payoff"});
      shares_table.set_align(0, io::Align::kLeft);
      shares_table.set_align(1, io::Align::kLeft);
      for (const auto& sr : report.schemes) {
        for (int i = 0; i < n; ++i) {
          const auto fi = static_cast<std::size_t>(i);
          shares_table.add_row(
              {game::to_string(sr.scheme), names[fi],
               io::format_double(sr.shares[fi].mean, precision),
               io::format_double(sr.shares[fi].q05, precision),
               io::format_double(sr.shares[fi].q95, precision),
               io::format_double(sr.payoffs[fi].mean, precision)});
        }
      }
      shares_table.print(out);
      out << '\n';
      io::Table core_table(
          std::vector<std::string>{"scheme", "core fraction"});
      core_table.set_align(0, io::Align::kLeft);
      for (const auto& sr : report.schemes) {
        core_table.add_row({game::to_string(sr.scheme),
                            io::format_double(sr.core_fraction, precision)});
      }
      core_table.print(out);
    }
  }
  if (ropts.cache_stats) {
    print_cache_stats(out, fed.value_cache().stats());
    print_quotient_nucleolus_stats(out, nucleolus_info);
  }
  result.text = out.str();
  if (result.degraded()) {
    (void)budget.exhausted();
    result.stop = budget.stop_reason();
  }
  return result;
}

std::string run_report(const io::Config& config) {
  return run_report_result(config, ReportOptions{}).text;
}

std::string run_report(const io::Config& config,
                       const ReportOptions& options) {
  return run_report_result(config, options).text;
}

std::string run_report_from_string(const std::string& text) {
  return run_report(io::Config::parse_string(text));
}

std::string dump_game_text(const io::Config& config) {
  const model::Federation fed = federation_from_config(config);
  std::ostringstream out;
  game::save_game(out, fed.build_game());
  return out.str();
}

}  // namespace fedshare::cli
