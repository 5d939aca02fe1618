// Resilience subsystem: compute budgets, the fallback cascades, and the
// outage fault-injection model.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "alloc/exact.hpp"
#include "alloc/greedy.hpp"
#include "core/game.hpp"
#include "core/shapley.hpp"
#include "core/sharing.hpp"
#include "core/symmetry.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "model/demand.hpp"
#include "model/federation.hpp"
#include "model/location_space.hpp"
#include "runtime/budget.hpp"
#include "runtime/outage.hpp"
#include "runtime/resilient.hpp"

namespace fedshare::runtime {
namespace {

// --- ComputeBudget -------------------------------------------------------

TEST(ComputeBudget, UnlimitedNeverTrips) {
  const ComputeBudget b;
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(b.charge());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.stop_reason(), StopReason::kNone);
  EXPECT_FALSE(b.limited());
}

TEST(ComputeBudget, NodeCapTripsAtTheCap) {
  const ComputeBudget b = ComputeBudget().cap_nodes(10);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(b.charge()) << "unit " << i;
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.charge());
  EXPECT_EQ(b.stop_reason(), StopReason::kNodeCap);
  EXPECT_TRUE(b.exhausted());
  EXPECT_TRUE(b.limited());
}

TEST(ComputeBudget, TrippedStaysTripped) {
  const ComputeBudget b = ComputeBudget().cap_nodes(1);
  ASSERT_TRUE(b.charge());
  ASSERT_FALSE(b.charge());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(b.charge());
  EXPECT_EQ(b.stop_reason(), StopReason::kNodeCap);
}

TEST(ComputeBudget, ExpiredDeadlineTrips) {
  const ComputeBudget b = ComputeBudget::with_deadline_ms(0.0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.stop_reason(), StopReason::kDeadline);
}

TEST(ComputeBudget, FutureDeadlineHolds) {
  const ComputeBudget b = ComputeBudget::with_deadline_ms(60000.0);
  EXPECT_FALSE(b.exhausted());
  ASSERT_TRUE(b.charge(100));
}

TEST(ComputeBudget, CancellationTokenTripsTheBudget) {
  CancellationToken token = CancellationToken::create();
  const ComputeBudget b = ComputeBudget().on_token(token);
  ASSERT_TRUE(b.charge());
  token.cancel();
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.stop_reason(), StopReason::kCancelled);
  EXPECT_FALSE(b.charge());
}

TEST(ComputeBudget, BulkChargesCountAllUnits) {
  const ComputeBudget b = ComputeBudget().cap_nodes(100);
  ASSERT_TRUE(b.charge(60));
  EXPECT_EQ(b.used(), 60u);
  EXPECT_FALSE(b.charge(41));  // 101 > 100
}

TEST(ComputeBudget, StopReasonNames) {
  EXPECT_STREQ(to_string(StopReason::kNone), "none");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kNodeCap), "node-cap");
  EXPECT_STREQ(to_string(StopReason::kCancelled), "cancelled");
}

// --- budget plumbing through the solvers ---------------------------------

TEST(BudgetedSolvers, SimplexReportsBudgetExhausted) {
  // Any nontrivial LP needs at least one pivot; a zero-node budget must
  // surface as kBudgetExhausted, not as an infinite loop or a throw.
  lp::Problem p(2);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 2.0}, lp::Relation::kLessEqual, 4.0);
  p.add_constraint({3.0, 1.0}, lp::Relation::kLessEqual, 6.0);
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  lp::SimplexOptions opt;
  opt.budget = &budget;
  EXPECT_EQ(lp::solve(p, opt).status, lp::SolveStatus::kBudgetExhausted);
}

TEST(BudgetedSolvers, ExactAllocationReturnsNulloptOnBudgetTrip) {
  alloc::LocationPool pool;
  pool.capacity = {2.0, 2.0, 2.0, 2.0};
  std::vector<alloc::RequestClass> classes(1);
  classes[0].count = 4.0;
  classes[0].min_locations = 2.0;
  const ComputeBudget budget = ComputeBudget().cap_nodes(3);
  EXPECT_FALSE(
      alloc::allocate_exact(pool, classes, std::uint64_t{1} << 24, &budget)
          .has_value());
  EXPECT_TRUE(budget.exhausted());
}

TEST(BudgetedSolvers, ShapleyExactBudgetedMatchesUnbudgeted) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const auto budgeted = game::shapley_exact_budgeted(g, ComputeBudget());
  ASSERT_TRUE(budgeted.has_value());
  const auto exact = game::shapley_exact(g);
  ASSERT_EQ(budgeted->size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR((*budgeted)[i], exact[i], 1e-12);
  }
}

TEST(BudgetedSolvers, ShapleyExactBudgetedTripsOnTightBudget) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const ComputeBudget budget = ComputeBudget().cap_nodes(2);
  EXPECT_FALSE(game::shapley_exact_budgeted(g, budget).has_value());
}

TEST(BudgetedSolvers, MonteCarloShapleyReturnsPartialEstimateOnTrip) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  // Budget for ~3 samples' worth of V evaluations (each sample costs
  // n + 1 = 4); the estimator must stop early but keep >= 2 samples.
  const ComputeBudget budget = ComputeBudget().cap_nodes(12);
  const auto mc = game::shapley_monte_carlo(g, 1000, 7, &budget);
  EXPECT_FALSE(mc.complete);
  EXPECT_GE(mc.samples, 2u);
  EXPECT_LT(mc.samples, 1000u);
  for (const double se : mc.standard_error) EXPECT_TRUE(std::isfinite(se));
}

TEST(BudgetedSolvers, AntitheticReturnsAtLeastOnePairOnTrip) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  const auto mc = game::shapley_monte_carlo_antithetic(g, 1000, 7, &budget);
  EXPECT_FALSE(mc.complete);
  EXPECT_GE(mc.samples, 2u);
  EXPECT_EQ(mc.samples % 2, 0u);
}

// --- the allocation cascade ----------------------------------------------

TEST(ResilientAllocate, UsesExactEngineWhenInDomain) {
  alloc::LocationPool pool;
  pool.capacity = {2.0, 1.0, 1.0};
  std::vector<alloc::RequestClass> classes(1);
  classes[0].count = 2.0;
  classes[0].min_locations = 1.0;
  const auto r = resilient_allocate(pool, classes);
  EXPECT_EQ(r.engine, AllocEngine::kExact);
  EXPECT_TRUE(r.exact_attempted);
  EXPECT_TRUE(r.note.empty());
  const auto direct = alloc::allocate_exact(pool, classes);
  ASSERT_TRUE(direct.has_value());
  EXPECT_NEAR(r.result.total_utility, direct->total_utility, 1e-12);
  // d = 1, so the LP certificate applies.
  ASSERT_TRUE(r.upper_bound.has_value());
  ASSERT_TRUE(r.optimality_gap.has_value());
  EXPECT_GE(*r.optimality_gap, 0.0);
}

TEST(ResilientAllocate, FallsBackToGreedyOutsideExactDomain) {
  alloc::LocationPool pool;
  pool.capacity = {4.0, 4.0};
  std::vector<alloc::RequestClass> classes(1);
  classes[0].count = 20.0;  // > 8 experiments: out of the exact domain
  classes[0].min_locations = 1.0;
  const auto r = resilient_allocate(pool, classes);
  EXPECT_EQ(r.engine, AllocEngine::kGreedy);
  EXPECT_FALSE(r.exact_attempted);
  EXPECT_TRUE(r.note.empty());  // greedy is the standard engine here
  const auto greedy = alloc::allocate_greedy(pool, classes);
  EXPECT_NEAR(r.result.total_utility, greedy.total_utility, 1e-12);
}

TEST(ResilientAllocate, FallsBackToGreedyWithNoteOnBudgetTrip) {
  alloc::LocationPool pool;
  pool.capacity = {2.0, 2.0, 2.0, 2.0};
  std::vector<alloc::RequestClass> classes(1);
  classes[0].count = 4.0;
  classes[0].min_locations = 2.0;
  const ComputeBudget budget = ComputeBudget().cap_nodes(3);
  const auto r = resilient_allocate(pool, classes, budget);
  EXPECT_EQ(r.engine, AllocEngine::kGreedy);
  EXPECT_TRUE(r.exact_attempted);
  EXPECT_NE(r.note.find("greedy fallback"), std::string::npos) << r.note;
  const auto greedy = alloc::allocate_greedy(pool, classes);
  EXPECT_NEAR(r.result.total_utility, greedy.total_utility, 1e-12);
}

TEST(ResilientAllocate, EngineNames) {
  EXPECT_STREQ(to_string(AllocEngine::kExact), "exact");
  EXPECT_STREQ(to_string(AllocEngine::kGreedy), "greedy");
}

// --- the Shapley cascade -------------------------------------------------

TEST(ResilientShapley, ExactEngineMatchesShapleyExact) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const auto r = resilient_shapley(g);
  EXPECT_EQ(r.engine, ShapleyEngine::kExact);
  EXPECT_TRUE(r.note.empty());
  EXPECT_TRUE(r.standard_error.empty());
  const auto exact = game::shapley_exact(g);
  ASSERT_EQ(r.phi.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(r.phi[i], exact[i], 1e-12);
  }
}

TEST(ResilientShapley, DegradesToMonteCarloWithErrorsOnBudgetTrip) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const ComputeBudget budget = ComputeBudget().cap_nodes(2);
  const auto r = resilient_shapley(g, budget, /*mc_samples=*/64, /*mc_seed=*/3);
  EXPECT_EQ(r.engine, ShapleyEngine::kMonteCarlo);
  EXPECT_GE(r.samples, 2u);
  ASSERT_EQ(r.phi.size(), 3u);
  ASSERT_EQ(r.standard_error.size(), 3u);
  for (const double se : r.standard_error) EXPECT_TRUE(std::isfinite(se));
  EXPECT_NE(r.note.find("monte-carlo"), std::string::npos) << r.note;
  // Efficiency holds for the estimator: the sampled marginals along any
  // permutation telescope to V(N).
  double sum = 0.0;
  for (const double p : r.phi) sum += p;
  EXPECT_NEAR(sum, g.grand_value(), 1e-9);
}

TEST(ResilientShapley, MonteCarloFallbackIsDeterministicGivenSeed) {
  const game::TabularGame g(3, {0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0});
  const auto a =
      resilient_shapley(g, ComputeBudget().cap_nodes(2), 64, 11);
  const auto b =
      resilient_shapley(g, ComputeBudget().cap_nodes(2), 64, 11);
  ASSERT_EQ(a.samples, b.samples);
  for (std::size_t i = 0; i < a.phi.size(); ++i) {
    EXPECT_EQ(a.phi[i], b.phi[i]);
  }
}

// --- the full scheme cascade ---------------------------------------------

model::Federation small_federation(double availability = 1.0) {
  auto space = model::LocationSpace::disjoint(
      {{"A", 2, 1.0, availability},
       {"B", 3, 1.0, availability},
       {"C", 4, 1.0, availability}});
  return model::Federation(std::move(space),
                           model::DemandProfile::uniform(3, 2));
}

TEST(CompareSchemesResilient, MatchesCompareSchemesOnUnlimitedBudget) {
  const model::Federation fed = small_federation();
  const game::TabularGame g = fed.build_game();
  const auto aw = fed.availability_weights();
  const auto cw = fed.consumption_weights();
  const auto nominal = game::compare_schemes(g, aw, cw);
  const auto rs = compare_schemes_resilient(g, &g, aw, cw);
  EXPECT_TRUE(rs.notes.empty());
  EXPECT_TRUE(rs.core_checked);
  EXPECT_EQ(rs.shapley_engine, ShapleyEngine::kExact);
  ASSERT_EQ(rs.outcomes.size(), nominal.size());
  for (std::size_t j = 0; j < nominal.size(); ++j) {
    EXPECT_EQ(rs.outcomes[j].scheme, nominal[j].scheme);
    EXPECT_EQ(rs.outcomes[j].in_core, nominal[j].in_core);
    ASSERT_EQ(rs.outcomes[j].shares.size(), nominal[j].shares.size());
    for (std::size_t i = 0; i < nominal[j].shares.size(); ++i) {
      EXPECT_NEAR(rs.outcomes[j].shares[i], nominal[j].shares[i], 1e-9);
      EXPECT_NEAR(rs.outcomes[j].payoffs[i], nominal[j].payoffs[i], 1e-9);
    }
  }
}

TEST(CompareSchemesResilient, DegradesEverySchemeWithoutATable) {
  const model::Federation fed = small_federation();
  const game::FunctionGame g(
      fed.num_facilities(),
      [&fed](game::Coalition c) { return fed.value(c); });
  const ComputeBudget budget = ComputeBudget().cap_nodes(0);
  const auto rs =
      compare_schemes_resilient(g, nullptr, fed.availability_weights(),
                                fed.consumption_weights(), budget, 32, 5);
  EXPECT_FALSE(rs.core_checked);
  EXPECT_EQ(rs.shapley_engine, ShapleyEngine::kMonteCarlo);
  EXPECT_FALSE(rs.notes.empty());
  // Monte-Carlo Shapley, both proportionals, and equal still answer.
  ASSERT_GE(rs.outcomes.size(), 4u);
  for (const auto& o : rs.outcomes) {
    double sum = 0.0;
    for (const double s : o.shares) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9) << to_string(o.scheme);
    EXPECT_NE(o.scheme, game::Scheme::kNucleolus);
    EXPECT_NE(o.scheme, game::Scheme::kBanzhaf);
  }
}

TEST(CompareSchemesResilient, RecordsANucleolusSkippedByTheBudget) {
  const model::Federation fed = small_federation();
  const game::TabularGame g = fed.build_game();
  EXPECT_EQ(compare_schemes_resilient(g, &g, {}, {}).nucleolus_skip,
            NucleolusSkip::kNone);
  // A pre-cancelled budget trips without reading the clock.
  const CancellationToken token = CancellationToken::create();
  token.cancel();
  const auto rs = compare_schemes_resilient(
      g, &g, {}, {}, ComputeBudget().on_token(token), 32, 5);
  EXPECT_EQ(rs.nucleolus_skip, NucleolusSkip::kBudget);
  for (const auto& o : rs.outcomes) {
    EXPECT_NE(o.scheme, game::Scheme::kNucleolus);
  }
  // Without a table the nucleolus is skipped for the same cause.
  const game::FunctionGame lazy(
      fed.num_facilities(),
      [&fed](game::Coalition c) { return fed.value(c); });
  EXPECT_EQ(compare_schemes_resilient(lazy, nullptr, {}, {},
                                      ComputeBudget().cap_nodes(0), 32, 5)
                .nucleolus_skip,
            NucleolusSkip::kBudget);
}

TEST(CompareSchemesResilient, RecordsANucleolusPastTheDenseReach) {
  // n = 11 is past the dense 2^n-row nucleolus; only a non-trivial
  // partition (here: every player interchangeable) brings it back.
  const int n = 11;
  std::vector<double> values(std::size_t{1} << n);
  for (std::size_t mask = 0; mask < values.size(); ++mask) {
    const double k = __builtin_popcountll(mask);
    values[mask] = k * k;
  }
  const game::TabularGame g(n, std::move(values));
  const auto dense = compare_schemes_resilient(g, &g, {}, {});
  EXPECT_EQ(dense.nucleolus_skip, NucleolusSkip::kTooLarge);
  for (const auto& o : dense.outcomes) {
    EXPECT_NE(o.scheme, game::Scheme::kNucleolus);
  }
  const game::PlayerPartition one_type =
      game::PlayerPartition::from_type_of(std::vector<int>(n, 0));
  const auto quotient = compare_schemes_resilient(
      g, &g, {}, {}, {}, 4096, 1, lp::SolverKind::kRevised, &one_type);
  EXPECT_EQ(quotient.nucleolus_skip, NucleolusSkip::kNone);
  bool has_nucleolus = false;
  for (const auto& o : quotient.outcomes) {
    has_nucleolus |= o.scheme == game::Scheme::kNucleolus;
  }
  EXPECT_TRUE(has_nucleolus);
}

// --- the outage model ----------------------------------------------------

TEST(OutageModel, ScenarioIsAPureFunctionOfSeedAndIndex) {
  const model::Federation fed = small_federation(0.6);
  const OutageModel m(42);
  const auto a = m.sample(fed.space(), 3);
  const auto b = m.sample(fed.space(), 3);
  EXPECT_EQ(a.up, b.up);
  // Out-of-order sampling changes nothing.
  (void)m.sample(fed.space(), 0);
  const auto c = m.sample(fed.space(), 3);
  EXPECT_EQ(a.up, c.up);
  // A different seed gives a different stream (on 9 locations x several
  // scenarios a collision would be astronomically unlikely).
  const OutageModel other(43);
  bool any_difference = false;
  for (std::uint64_t k = 0; k < 8 && !any_difference; ++k) {
    any_difference = m.sample(fed.space(), k).up != other.sample(fed.space(), k).up;
  }
  EXPECT_TRUE(any_difference);
}

TEST(OutageModel, FullAvailabilityMeansNoOutages) {
  const model::Federation fed = small_federation(1.0);
  const OutageModel m(7);
  for (std::uint64_t k = 0; k < 16; ++k) {
    const auto s = m.sample(fed.space(), k);
    for (const auto& mask : s.up) {
      for (const bool up : mask) EXPECT_TRUE(up);
    }
  }
}

TEST(OutageModel, DegradedSpaceKeepsFullCapacityAtSurvivors) {
  // One facility, T = 0.5, 4 locations of 2 units. In a degraded space
  // survivors carry the full 2 units (availability realised, not
  // discounted twice).
  auto space = model::LocationSpace::disjoint({{"A", 4, 2.0, 0.5}});
  const model::LocationSpace degraded =
      space.with_outages({{true, false, true, false}});
  EXPECT_EQ(degraded.num_facilities(), 1);
  EXPECT_EQ(degraded.locations_of(0).size(), 2u);
  const auto pool = degraded.pool_for(game::Coalition::grand(1));
  ASSERT_EQ(pool.capacity.size(), 2u);
  EXPECT_NEAR(pool.capacity[0], 2.0, 1e-12);
  EXPECT_NEAR(pool.capacity[1], 2.0, 1e-12);
  // The location universe is preserved.
  EXPECT_EQ(degraded.num_locations(), space.num_locations());
}

TEST(OutageModel, WithOutagesValidatesMaskShape) {
  auto space = model::LocationSpace::disjoint({{"A", 2}, {"B", 3}});
  EXPECT_THROW((void)space.with_outages({{true, true}}),
               std::invalid_argument);
  EXPECT_THROW((void)space.with_outages({{true, true}, {true, true}}),
               std::invalid_argument);
}

TEST(OutageStatsTest, SummarizeComputesMomentsAndQuantiles) {
  const OutageStats s = summarize({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_NEAR(s.mean, 3.0, 1e-12);
  EXPECT_NEAR(s.q50, 3.0, 1e-12);
  EXPECT_NEAR(s.min, 1.0, 1e-12);
  EXPECT_NEAR(s.max, 5.0, 1e-12);
  EXPECT_NEAR(s.q05, 1.2, 1e-12);  // linear interpolation at 0.05 * 4
  EXPECT_NEAR(s.q95, 4.8, 1e-12);
}

// --- the outage evaluator ------------------------------------------------

TEST(EvaluateOutages, DeterministicGivenSeed) {
  const model::Federation fed = small_federation(0.7);
  const auto a = evaluate_outages(fed, 6, 99);
  const auto b = evaluate_outages(fed, 6, 99);
  ASSERT_EQ(a.scenarios_evaluated, b.scenarios_evaluated);
  ASSERT_EQ(a.schemes.size(), b.schemes.size());
  for (std::size_t j = 0; j < a.schemes.size(); ++j) {
    EXPECT_EQ(a.schemes[j].core_fraction, b.schemes[j].core_fraction);
    for (std::size_t i = 0; i < a.schemes[j].shares.size(); ++i) {
      EXPECT_EQ(a.schemes[j].shares[i].mean, b.schemes[j].shares[i].mean);
      EXPECT_EQ(a.schemes[j].payoffs[i].q95, b.schemes[j].payoffs[i].q95);
    }
  }
  EXPECT_EQ(a.grand_value.mean, b.grand_value.mean);
}

TEST(EvaluateOutages, FullAvailabilityCollapsesToNominalShares) {
  // The acceptance criterion: with T_i = 1 every sampled scenario is the
  // nominal federation, so outage-expected shares equal nominal shares.
  const model::Federation fed = small_federation(1.0);
  const game::TabularGame g = fed.build_game();
  const auto nominal = game::compare_schemes(g, fed.availability_weights(),
                                             fed.consumption_weights());
  const auto report = evaluate_outages(fed, 5, 123);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.scenarios_evaluated, 5);
  ASSERT_EQ(report.schemes.size(), nominal.size());
  EXPECT_NEAR(report.grand_value.mean, g.grand_value(), 1e-12);
  EXPECT_NEAR(report.grand_value.min, report.grand_value.max, 1e-12);
  for (std::size_t j = 0; j < nominal.size(); ++j) {
    EXPECT_EQ(report.schemes[j].scheme, nominal[j].scheme);
    for (std::size_t i = 0; i < nominal[j].shares.size(); ++i) {
      EXPECT_NEAR(report.schemes[j].shares[i].mean, nominal[j].shares[i],
                  1e-12);
      EXPECT_NEAR(report.schemes[j].shares[i].min,
                  report.schemes[j].shares[i].max, 1e-12);
      EXPECT_NEAR(report.schemes[j].payoffs[i].mean, nominal[j].payoffs[i],
                  1e-12);
    }
    EXPECT_EQ(report.schemes[j].core_fraction, nominal[j].in_core ? 1.0 : 0.0);
  }
}

TEST(EvaluateOutages, PartialAvailabilityDegradesTheGrandValue) {
  const model::Federation nominal_fed = small_federation(1.0);
  const model::Federation degraded_fed = small_federation(0.5);
  const double nominal_v = nominal_fed.build_game().grand_value();
  const auto report = evaluate_outages(degraded_fed, 12, 7);
  EXPECT_TRUE(report.complete());
  // Outages can only remove locations, so every realised V(N) is at most
  // the fully-up value; across 12 scenarios at T = 0.5 at least one
  // outage will have occurred.
  EXPECT_LE(report.grand_value.max, nominal_v + 1e-9);
  EXPECT_LT(report.grand_value.min, nominal_v - 1e-9);
}

TEST(EvaluateOutages, RecordsTruncationOnExhaustedBudget) {
  const model::Federation fed = small_federation(0.7);
  const auto report =
      evaluate_outages(fed, 8, 1, ComputeBudget::with_deadline_ms(0.0));
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.scenarios_evaluated, 0);
  EXPECT_TRUE(report.schemes.empty());
}

TEST(EvaluateOutages, RejectsNonPositiveScenarioCounts) {
  const model::Federation fed = small_federation();
  EXPECT_THROW((void)evaluate_outages(fed, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace fedshare::runtime
