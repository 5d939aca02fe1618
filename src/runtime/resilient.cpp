#include "runtime/resilient.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "alloc/exact.hpp"
#include "alloc/greedy.hpp"
#include "alloc/lp_relax.hpp"
#include "core/banzhaf.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/shapley.hpp"
#include "lp/simplex.hpp"
#include "verify/certified.hpp"

namespace fedshare::runtime {

namespace {

// The Monte-Carlo fallback runs under this fresh deadline once the
// caller's budget has tripped: long enough for a meaningful estimate,
// short enough that "degrade" still means "answer promptly".
constexpr double kMonteCarloGraceMs = 50.0;

// Exact-solver domain (mirrors allocate_exact's preconditions, which
// throw; the cascade probes instead of catching).
bool exact_eligible(const alloc::LocationPool& pool,
                    const std::vector<alloc::RequestClass>& classes) {
  if (pool.num_locations() > 16) return false;
  double experiments = 0.0;
  for (const auto& rc : classes) {
    if (std::abs(rc.count - std::round(rc.count)) > 1e-9) return false;
    experiments += rc.count;
  }
  return experiments <= 8.0 + 1e-9;
}

std::string stop_label(const ComputeBudget& budget) {
  return budget.stop_reason() == StopReason::kNone
             ? "node-cap"
             : to_string(budget.stop_reason());
}

}  // namespace

const char* to_string(AllocEngine engine) noexcept {
  switch (engine) {
    case AllocEngine::kExact: return "exact";
    case AllocEngine::kGreedy: return "greedy";
  }
  return "unknown";
}

const char* to_string(ShapleyEngine engine) noexcept {
  switch (engine) {
    case ShapleyEngine::kExact: return "exact";
    case ShapleyEngine::kMonteCarlo: return "monte-carlo";
  }
  return "unknown";
}

ResilientAllocation resilient_allocate(
    const alloc::LocationPool& pool,
    const std::vector<alloc::RequestClass>& classes,
    const ComputeBudget& budget) {
  ResilientAllocation out;
  if (exact_eligible(pool, classes)) {
    out.exact_attempted = true;
    const auto exact =
        alloc::allocate_exact(pool, classes, std::uint64_t{1} << 24, &budget);
    if (exact) {
      out.engine = AllocEngine::kExact;
      out.result = *exact;
    } else {
      out.note = "exact search exhausted its budget (" + stop_label(budget) +
                 "); greedy fallback";
    }
  }
  if (out.engine != AllocEngine::kExact) {
    out.result = alloc::allocate_greedy(pool, classes);
  }
  // Quality certificate: the LP relaxation bounds the optimum from above
  // for d <= 1, budget allowing.
  const bool lp_applicable = std::all_of(
      classes.begin(), classes.end(),
      [](const alloc::RequestClass& rc) { return rc.exponent <= 1.0; });
  if (lp_applicable && !budget.exhausted()) {
    if (const auto bound =
            alloc::lp_upper_bound_budgeted(pool, classes, budget)) {
      out.upper_bound = *bound;
      out.optimality_gap = std::max(0.0, *bound - out.result.total_utility);
    }
  }
  return out;
}

ResilientShapley resilient_shapley(const game::Game& game,
                                   const ComputeBudget& budget,
                                   std::uint64_t mc_samples,
                                   std::uint64_t mc_seed) {
  ResilientShapley out;
  const int n = game.num_players();
  std::string cause;
  if (n <= 24) {
    if (auto exact = game::shapley_exact_budgeted(game, budget)) {
      out.engine = ShapleyEngine::kExact;
      out.phi = std::move(*exact);
      return out;
    }
    cause = "exact Shapley budget exhausted (" + stop_label(budget) + ")";
  } else {
    cause = "n > 24 puts exact Shapley out of reach";
  }

  // Monte-Carlo fallback. If the caller's budget already tripped, run
  // under a short grace deadline instead, so a 1 ms deadline still
  // produces an estimate (at least one antithetic pair) rather than
  // nothing.
  std::uint64_t samples = std::max<std::uint64_t>(2, mc_samples);
  if (samples % 2 != 0) ++samples;
  const ComputeBudget grace =
      ComputeBudget::with_deadline_ms(kMonteCarloGraceMs);
  const ComputeBudget* mc_budget = budget.exhausted() ? &grace : &budget;
  const auto mc =
      game::shapley_monte_carlo_antithetic(game, samples, mc_seed, mc_budget);
  out.engine = ShapleyEngine::kMonteCarlo;
  out.phi = mc.phi;
  out.standard_error = mc.standard_error;
  out.samples = mc.samples;
  double max_se = 0.0;
  for (const double se : mc.standard_error) max_se = std::max(max_se, se);
  std::ostringstream note;
  note << cause << "; antithetic monte-carlo (" << mc.samples
       << " samples, max se " << max_se << ")";
  out.note = note.str();
  return out;
}

namespace {

// Shared implementation; `observer` (may be null) is attached to the
// nucleolus LPs — the only solves this cascade performs.
ResilientSchemes compare_schemes_impl(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const ComputeBudget& budget, std::uint64_t mc_samples,
    std::uint64_t mc_seed, lp::SolverKind lp_solver,
    lp::SolveObserver* observer, const game::PlayerPartition* partition,
    game::QuotientNucleolusInfo* nucleolus_info) {
  const int n = game.num_players();
  const double total =
      tab != nullptr ? tab->grand_value() : game.grand_value();

  ResilientSchemes out;
  out.core_checked = tab != nullptr && n <= 16;
  auto push = [&](game::Scheme scheme, std::vector<double> shares) {
    game::SchemeOutcome o;
    o.scheme = scheme;
    o.payoffs.resize(shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i) {
      o.payoffs[i] = shares[i] * total;
    }
    o.shares = std::move(shares);
    if (out.core_checked) o.in_core = game::in_core(*tab, o.payoffs);
    out.outcomes.push_back(std::move(o));
  };

  // Shapley, degrading to Monte Carlo under the budget.
  const game::Game& shapley_game =
      tab != nullptr ? static_cast<const game::Game&>(*tab) : game;
  const auto shapley =
      resilient_shapley(shapley_game, budget, mc_samples, mc_seed);
  out.shapley_engine = shapley.engine;
  out.shapley_samples = shapley.samples;
  for (const double se : shapley.standard_error) {
    out.shapley_max_se = std::max(out.shapley_max_se, se);
  }
  if (!shapley.note.empty()) out.notes.push_back("shapley: " + shapley.note);
  push(game::Scheme::kShapley, game::normalize_shares(shapley.phi));

  if (!availability_weights.empty()) {
    if (availability_weights.size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument(
          "compare_schemes_resilient: availability weight count must equal "
          "n");
    }
    push(game::Scheme::kProportionalAvailability,
         game::proportional_shares(availability_weights));
  }
  if (!consumption_weights.empty()) {
    if (consumption_weights.size() != static_cast<std::size_t>(n)) {
      throw std::invalid_argument(
          "compare_schemes_resilient: consumption weight count must equal "
          "n");
    }
    push(game::Scheme::kProportionalConsumption,
         game::proportional_shares(consumption_weights));
  }
  push(game::Scheme::kEqual, game::equal_shares(n));

  // Nucleolus: the orbit-row quotient formulation when a non-trivial
  // partition certifies interchangeable players (no n ceiling — rows
  // scale with orbit count), the dense 2^n-row formulation otherwise
  // (n <= 10 only). Every skip is recorded in nucleolus_skip.
  const bool quotient_nucleolus =
      partition != nullptr && !partition->is_trivial();
  if (!quotient_nucleolus && n > 10) {
    out.nucleolus_skip = NucleolusSkip::kTooLarge;
    out.notes.emplace_back(
        "nucleolus: skipped (n > 10 without a symmetry quotient)");
  } else if (tab == nullptr) {
    out.nucleolus_skip = NucleolusSkip::kBudget;
    out.notes.emplace_back(
        "nucleolus: skipped (coalition table unavailable under deadline)");
  } else if (budget.exhausted()) {
    out.nucleolus_skip = NucleolusSkip::kBudget;
    out.notes.emplace_back("nucleolus: skipped (" + stop_label(budget) + ")");
  } else {
    lp::SimplexOptions options;
    options.solver = lp_solver;
    options.budget = &budget;
    options.observer = observer;
    game::NucleolusResult r;
    if (quotient_nucleolus) {
      const game::QuotientGame quotient(*tab, *partition);
      r = game::nucleolus_quotient(quotient, options);
      if (nucleolus_info != nullptr) {
        nucleolus_info->attempted = true;
        nucleolus_info->used = r.solved;
        nucleolus_info->orbit_rows = r.excess_rows;
        nucleolus_info->dense_rows = n < 63 ? (std::uint64_t{1} << n) - 2 : 0;
        nucleolus_info->lps_solved = r.lps_solved;
        nucleolus_info->pivots = r.pivots;
        const auto stats = quotient.cache().stats();
        nucleolus_info->orbit_hits = stats.hits;
        nucleolus_info->orbit_misses = stats.misses;
      }
    } else {
      r = game::nucleolus(*tab, options);
    }
    if (r.solved) {
      std::vector<double> shares;
      if (std::abs(total) < 1e-12) {
        shares = game::equal_shares(n);
      } else {
        shares.resize(r.allocation.size());
        for (std::size_t i = 0; i < shares.size(); ++i) {
          shares[i] = r.allocation[i] / total;
        }
      }
      push(game::Scheme::kNucleolus, std::move(shares));
    } else {
      out.nucleolus_skip = NucleolusSkip::kBudget;
      out.notes.emplace_back("nucleolus: skipped (" + stop_label(budget) +
                             ")");
    }
  }

  if (tab != nullptr) {
    push(game::Scheme::kBanzhaf, game::banzhaf_index(*tab));
  } else {
    out.notes.emplace_back(
        "banzhaf: skipped (coalition table unavailable under deadline)");
  }
  if (!out.core_checked) {
    out.notes.emplace_back(
        tab == nullptr
            ? "core membership: skipped (coalition table unavailable under "
              "deadline)"
            : "core membership: skipped (n > 16)");
  }
  return out;
}

}  // namespace

ResilientSchemes compare_schemes_resilient(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const ComputeBudget& budget, std::uint64_t mc_samples,
    std::uint64_t mc_seed, lp::SolverKind lp_solver,
    const game::PlayerPartition* partition,
    game::QuotientNucleolusInfo* nucleolus_info) {
  return compare_schemes_impl(game, tab, availability_weights,
                              consumption_weights, budget, mc_samples, mc_seed,
                              lp_solver, nullptr, partition, nucleolus_info);
}

ResilientSchemes compare_schemes_resilient_verified(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const verify::VerifyOptions& verify_options, verify::AuditReport* audit,
    const ComputeBudget& budget, std::uint64_t mc_samples,
    std::uint64_t mc_seed, lp::SolverKind lp_solver,
    const game::PlayerPartition* partition,
    game::QuotientNucleolusInfo* nucleolus_info) {
  if (verify_options.level == verify::VerifyLevel::kOff || audit == nullptr) {
    return compare_schemes_resilient(game, tab, availability_weights,
                                     consumption_weights, budget, mc_samples,
                                     mc_seed, lp_solver, partition,
                                     nucleolus_info);
  }

  lp::SimplexOptions base;
  base.solver = lp_solver;
  base.budget = &budget;
  verify::CertifyingObserver observer(verify_options, base);
  const bool full = verify_options.level == verify::VerifyLevel::kFull;
  ResilientSchemes out = compare_schemes_impl(
      game, tab, availability_weights, consumption_weights, budget, mc_samples,
      mc_seed, lp_solver, full ? &observer : nullptr, partition,
      nucleolus_info);

  if (tab != nullptr) {
    *audit = verify::audit_game(*tab, verify_options);
    verify::audit_outcomes(*tab, out.outcomes, base, verify_options, *audit);
  } else {
    audit->add_issue("coverage",
                     "audits skipped: coalition table unavailable under "
                     "deadline",
                     0.0);
  }
  if (full) {
    audit->lp = observer.stats();
    audit->lp_stats_valid = true;
    if (audit->lp.failures > 0) {
      audit->add_issue(
          "lp-certificates",
          std::to_string(audit->lp.failures) +
              " solve(s) exhausted the cascade without a valid certificate",
          static_cast<double>(audit->lp.failures));
    }
  }
  return out;
}

}  // namespace fedshare::runtime
