// Tests for the revised simplex engine: dense-solver parity on the
// canonical unit LPs, basis snapshots and warm re-solves, in-place
// patching, the dual/crash warm paths, the budget contract, and the
// shape of the triangle-peeling basis factorization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "alloc/lp_relax.hpp"
#include "core/core_solution.hpp"
#include "core/nucleolus.hpp"
#include "core/game.hpp"
#include "lp/basis_lu.hpp"
#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "runtime/budget.hpp"

namespace fedshare::lp {
namespace {

SimplexOptions revised_options() {
  SimplexOptions options;
  options.solver = SolverKind::kRevised;
  return options;
}

TEST(RevisedSimplex, SolverKindStringsRoundTrip) {
  EXPECT_STREQ(to_string(SolverKind::kDense), "dense");
  EXPECT_STREQ(to_string(SolverKind::kRevised), "revised");
  SolverKind kind = SolverKind::kDense;
  EXPECT_TRUE(solver_kind_from_string("revised", kind));
  EXPECT_EQ(kind, SolverKind::kRevised);
  EXPECT_TRUE(solver_kind_from_string("dense", kind));
  EXPECT_EQ(kind, SolverKind::kDense);
  EXPECT_FALSE(solver_kind_from_string("sparse", kind));
}

TEST(RevisedSimplex, SolvesSimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

TEST(RevisedSimplex, SolvesMinimizationWithGreaterEqual) {
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 10.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 2.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
}

TEST(RevisedSimplex, HandlesEqualityConstraints) {
  Problem p(2);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 5.0);
  p.add_constraint({1.0, -1.0}, Relation::kEqual, 1.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 2.0, 1e-8);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  Problem p(1);
  p.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(p, revised_options()).status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsInfeasibilityThroughRealRows) {
  // Two-variable rows (no singleton presolve shortcut): x + y <= 1 and
  // x + y >= 3 cannot both hold.
  Problem p(2);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 3.0);
  EXPECT_EQ(solve(p, revised_options()).status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({-1.0}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve(p, revised_options()).status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, HandlesFreeVariables) {
  Problem p(1, Objective::kMinimize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, -5.0);
  const Solution s = solve(p, revised_options());
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(RevisedSimplex, SolvesDegenerateBealeExample) {
  // Beale's cycling example; Bland's rule must terminate it.
  Problem p(4, Objective::kMinimize);
  p.set_objective_coefficient(0, -0.75);
  p.set_objective_coefficient(1, 150.0);
  p.set_objective_coefficient(2, -0.02);
  p.set_objective_coefficient(3, 6.0);
  p.add_constraint({0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);
  const Solution dense = solve(p);
  const Solution revised = solve(p, revised_options());
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(revised.objective, dense.objective, 1e-7);
  EXPECT_NEAR(revised.objective, -0.05, 1e-7);
}

TEST(RevisedSimplex, SingletonRowsPresolveIntoBounds) {
  // 3 <= x <= 7 expressed as rows, plus one real row. Only the real row
  // should survive presolve.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 3.0);
  p.add_constraint({1.0, 0.0}, Relation::kLessEqual, 7.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 9.0);
  RevisedSimplex engine(p);
  EXPECT_EQ(engine.num_rows(), 1u);
  EXPECT_EQ(engine.num_structural(), 2u);
  const Solution s = engine.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 9.0, 1e-8);
}

TEST(RevisedSimplex, ReportsPivotsAndBasis) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex engine(p);
  EXPECT_TRUE(engine.basis().empty());
  const Solution s = engine.solve();
  ASSERT_TRUE(s.optimal());
  EXPECT_GT(s.pivots, 0u);
  EXPECT_EQ(engine.pivots(), s.pivots);
  const Basis b = engine.basis();
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.status.size(), engine.num_columns());
  EXPECT_EQ(b.num_structural, engine.num_structural());
}

TEST(RevisedSimplex, WarmRestartAfterRhsPatchMatchesDense) {
  // max x + y s.t. x + y <= c1, x + 2y <= c2. Re-solve for shifted
  // capacities from the previous optimal basis; the dual sweep must
  // land on the same optimum as a cold dense solve, in fewer pivots.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 2.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex engine(p);
  const Solution cold = engine.solve();
  ASSERT_TRUE(cold.optimal());
  Basis basis = engine.basis();

  for (int shift = 1; shift <= 4; ++shift) {
    const double c1 = 4.0 + 0.5 * shift;
    const double c2 = 6.0 - 0.25 * shift;
    engine.set_constraint_rhs(0, c1);
    engine.set_constraint_rhs(1, c2);
    const Solution warm = engine.solve_from_basis(basis);
    ASSERT_TRUE(warm.optimal()) << "shift " << shift;
    basis = engine.basis();

    Problem fresh(2, Objective::kMaximize);
    fresh.set_objective_coefficient(0, 1.0);
    fresh.set_objective_coefficient(1, 1.0);
    fresh.add_constraint({1.0, 1.0}, Relation::kLessEqual, c1);
    fresh.add_constraint({1.0, 2.0}, Relation::kLessEqual, c2);
    const Solution dense = solve(fresh);
    ASSERT_TRUE(dense.optimal());
    EXPECT_NEAR(warm.objective, dense.objective, 1e-8) << "shift " << shift;
  }
}

TEST(RevisedSimplex, ApplyPatchEqualsIndividualSetters) {
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 5.0);
  p.add_constraint({2.0, 1.0}, Relation::kLessEqual, 8.0);

  RevisedSimplex a(p);
  RevisedSimplex b(p);
  a.set_constraint_rhs(0, 3.0);
  a.set_constraint_rhs(1, 7.0);
  a.set_bounds(1, 0.0, 1.5);
  ProblemPatch patch;
  patch.rhs.push_back({0, 3.0});
  patch.rhs.push_back({1, 7.0});
  patch.bounds.push_back({1, 0.0, 1.5});
  b.apply(patch);

  const Solution sa = a.solve();
  const Solution sb = b.solve();
  ASSERT_TRUE(sa.optimal());
  ASSERT_TRUE(sb.optimal());
  EXPECT_DOUBLE_EQ(sa.objective, sb.objective);
  EXPECT_EQ(sa.pivots, sb.pivots);
}

TEST(RevisedSimplex, ObjectiveChangeWarmResolveMatchesDense) {
  // Same constraint set, family of objectives: the previous optimum
  // stays primal feasible, so each re-solve is a phase-2-only run.
  Problem p(3, Objective::kMaximize);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
  p.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
  p.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);
  RevisedSimplex engine(p);
  Basis basis;
  const double costs[4][3] = {
      {1.0, 2.0, 3.0}, {3.0, 1.0, 0.5}, {0.2, 0.4, 5.0}, {2.0, 2.0, 2.0}};
  for (const auto& c : costs) {
    Problem fresh(3, Objective::kMaximize);
    fresh.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
    fresh.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
    fresh.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);
    for (std::size_t j = 0; j < 3; ++j) {
      engine.set_objective_coefficient(j, c[j]);
      fresh.set_objective_coefficient(j, c[j]);
    }
    const Solution warm =
        basis.empty() ? engine.solve() : engine.solve_from_basis(basis);
    ASSERT_TRUE(warm.optimal());
    basis = engine.basis();
    const Solution dense = solve(fresh);
    ASSERT_TRUE(dense.optimal());
    EXPECT_NEAR(warm.objective, dense.objective, 1e-8);
  }
}

TEST(RevisedSimplex, CrashPathAcceptsForeignBasis) {
  // A basis snapshotted on a 2-row instance, replayed on a 3-row
  // instance with the same structural variables: the crash path keeps
  // the structural statuses and rebuilds the rest.
  Problem small(2, Objective::kMaximize);
  small.set_objective_coefficient(0, 1.0);
  small.set_objective_coefficient(1, 2.0);
  small.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  small.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  RevisedSimplex small_engine(small);
  ASSERT_TRUE(small_engine.solve().optimal());
  const Basis foreign = small_engine.basis();

  Problem big(2, Objective::kMaximize);
  big.set_objective_coefficient(0, 1.0);
  big.set_objective_coefficient(1, 2.0);
  big.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  big.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  big.add_constraint({2.0, 1.0}, Relation::kLessEqual, 7.0);
  RevisedSimplex big_engine(big);
  const Solution warm = big_engine.solve_from_basis(foreign);
  const Solution dense = solve(big);
  ASSERT_TRUE(warm.optimal());
  ASSERT_TRUE(dense.optimal());
  EXPECT_NEAR(warm.objective, dense.objective, 1e-8);
}

TEST(RevisedSimplex, HonorsNodeCapBudget) {
  Problem p(3, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.set_objective_coefficient(2, 1.0);
  p.add_constraint({1.0, 1.0, 1.0}, Relation::kLessEqual, 10.0);
  p.add_constraint({1.0, 2.0, 0.0}, Relation::kLessEqual, 12.0);
  p.add_constraint({0.0, 1.0, 3.0}, Relation::kLessEqual, 15.0);

  runtime::ComputeBudget tight;
  tight.cap_nodes(1);
  SimplexOptions options = revised_options();
  options.budget = &tight;
  EXPECT_EQ(solve(p, options).status, SolveStatus::kBudgetExhausted);

  runtime::ComputeBudget roomy;
  roomy.cap_nodes(1000);
  options.budget = &roomy;
  EXPECT_TRUE(solve(p, options).optimal());
}

TEST(RevisedSimplex, LeastCoreMatchesDenseAndWarmChains) {
  // 3-player superadditive game with a known non-empty core.
  game::TabularGame tab(3, {0.0, 1.0, 1.0, 3.0, 1.0, 3.0, 3.0, 9.0});
  const game::LeastCoreResult dense = game::least_core(tab);
  SimplexOptions options = revised_options();
  Basis warm;
  const game::LeastCoreResult first = game::least_core(tab, options, &warm);
  ASSERT_TRUE(dense.solved);
  ASSERT_TRUE(first.solved);
  EXPECT_NEAR(first.epsilon, dense.epsilon, 1e-8);
  EXPECT_FALSE(warm.empty());
  // Re-solve warm: identical answer from the snapshotted basis.
  const game::LeastCoreResult again = game::least_core(tab, options, &warm);
  ASSERT_TRUE(again.solved);
  EXPECT_NEAR(again.epsilon, dense.epsilon, 1e-8);
}

TEST(RevisedSimplex, NucleolusMatchesDense) {
  // 4-player game: nucleolus per engine must coincide coordinatewise.
  std::vector<double> v(16, 0.0);
  for (std::uint64_t m = 1; m < 16; ++m) {
    v[m] = static_cast<double>(__builtin_popcountll(m));
    if (m == 15) v[m] = 8.0;
  }
  v[0b0011] = 3.0;
  v[0b1100] = 2.5;
  game::TabularGame tab(4, v);
  const game::NucleolusResult dense = game::nucleolus(tab);
  const game::NucleolusResult revised =
      game::nucleolus(tab, revised_options());
  ASSERT_TRUE(dense.solved);
  ASSERT_TRUE(revised.solved);
  ASSERT_EQ(dense.allocation.size(), revised.allocation.size());
  for (std::size_t i = 0; i < dense.allocation.size(); ++i) {
    EXPECT_NEAR(revised.allocation[i], dense.allocation[i], 1e-6)
        << "player " << i;
  }
}

// ---- Factorization shape ------------------------------------------------
//
// factor_stats() reports the most recent factorization; a warm re-solve
// from an optimal basis refactorizes exactly that basis, so the stats
// below describe the optimal basis itself.

std::size_t basic_structurals(const Basis& b) {
  std::size_t count = 0;
  for (std::size_t v = 0; v < b.num_structural; ++v) {
    if (b.status[v] == VarStatus::kBasic) ++count;
  }
  return count;
}

// The least-core LP of `g`: free x_0..x_{n-1} and epsilon, minimize
// epsilon s.t. x(N) = V(N) and x(S) + epsilon >= V(S) per proper S.
Problem least_core_problem(const game::TabularGame& g) {
  const auto n = static_cast<std::size_t>(g.num_players());
  const std::uint64_t grand = (std::uint64_t{1} << n) - 1;
  Problem p(n + 1, Objective::kMinimize);
  for (std::size_t i = 0; i <= n; ++i) p.set_free(i);
  p.set_objective_coefficient(n, 1.0);
  std::vector<double> eff(n + 1, 1.0);
  eff[n] = 0.0;
  p.add_constraint(eff, Relation::kEqual, g.values()[grand]);
  for (std::uint64_t mask = 1; mask < grand; ++mask) {
    std::vector<double> row(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1U) row[i] = 1.0;
    }
    row[n] = 1.0;
    p.add_constraint(std::move(row), Relation::kGreaterEqual,
                     g.values()[mask]);
  }
  return p;
}

game::TabularGame convex_game(int n) {
  std::vector<double> v(std::size_t{1} << n, 0.0);
  for (std::uint64_t m = 1; m < v.size(); ++m) {
    double w = 0.0;
    for (int i = 0; i < n; ++i) {
      if ((m >> i) & 1U) w += 1.0 + 0.37 * i;
    }
    v[m] = std::pow(w, 1.3) + 0.5 * static_cast<double>(m % 7);
  }
  return game::TabularGame(n, v);
}

TEST(RevisedSimplexFactor, RelaxationBasisPeelsWithoutBump) {
  // ~300 locations, two classes: every basic y_{c,l} has its one
  // nonzero in capacity row l, so the basis is a permuted diagonal.
  const std::size_t locations = 300;
  std::vector<alloc::RequestClass> classes(2);
  classes[0].count = 40.0;
  classes[0].units_per_location = 1.0;
  classes[1].count = 15.0;
  classes[1].units_per_location = 2.0;
  classes[1].exponent = 0.5;
  const alloc::RelaxationTemplate tmpl(locations, classes);
  std::vector<double> caps(locations);
  for (std::size_t l = 0; l < locations; ++l) {
    caps[l] = static_cast<double>(l % 5) * 7.0 + (l % 3 == 0 ? 50.0 : 0.0);
  }
  RevisedSimplex engine(tmpl.problem());
  engine.apply(tmpl.capacity_patch(caps));
  const Solution cold = engine.solve();
  ASSERT_TRUE(cold.optimal());
  const Basis basis = engine.basis();
  ASSERT_GT(basic_structurals(basis), locations / 2);
  const Solution warm = engine.solve_from_basis(basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_EQ(warm.pivots, 0U);
  const FactorStats& st = engine.factor_stats();
  EXPECT_EQ(engine.num_rows(), locations);
  EXPECT_EQ(st.bump, 0U);
  EXPECT_EQ(st.peeled, locations);

  Problem dense_lp = tmpl.problem();
  tmpl.apply_capacities(dense_lp, caps);
  const Solution dense = solve(dense_lp);
  ASSERT_TRUE(dense.optimal());
  const double scale = std::max(1.0, std::abs(dense.objective));
  EXPECT_NEAR(cold.objective, dense.objective, 1e-9 * scale);
  EXPECT_NEAR(warm.objective, dense.objective, 1e-9 * scale);
}

TEST(RevisedSimplexFactor, LeastCoreBumpIsBoundedByStructurals) {
  // n = 8: 255 rows, 9 free structural columns. Slacks peel as column
  // singletons; at most n + 1 columns reach the dense bump.
  const int n = 8;
  const game::TabularGame g = convex_game(n);
  RevisedSimplex engine(least_core_problem(g));
  const Solution cold = engine.solve();
  ASSERT_TRUE(cold.optimal());
  const Solution warm = engine.solve_from_basis(engine.basis());
  ASSERT_TRUE(warm.optimal());
  const FactorStats& st = engine.factor_stats();
  EXPECT_EQ(engine.num_rows(), (std::size_t{1} << n) - 1);
  EXPECT_LE(st.bump, static_cast<std::size_t>(n + 1));
  EXPECT_GT(st.bump, 0U);
  EXPECT_EQ(st.peeled + st.bump, engine.num_rows());

  const game::LeastCoreResult dense = game::least_core(g);
  ASSERT_TRUE(dense.solved);
  const double scale = std::max(1.0, std::abs(dense.epsilon));
  EXPECT_NEAR(cold.objective, dense.epsilon, 1e-9 * scale);
  EXPECT_NEAR(warm.objective, dense.epsilon, 1e-9 * scale);
}

TEST(RevisedSimplexFactor, SingularBumpRestartsFromSlackBasis) {
  // x0 and x1 have identical columns, so a basis holding both has the
  // singular bump [[1, 1], [1, 1]] on rows 0 and 1: factorization fails
  // and the warm solve restarts cold from the slack basis.
  Problem p(4, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 2.0);
  p.set_objective_coefficient(2, 3.0);
  p.set_objective_coefficient(3, 1.0);
  p.add_constraint({1.0, 1.0, 1.0, 0.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 1.0, 2.0, 0.0}, Relation::kLessEqual, 6.0);
  p.add_constraint({0.0, 0.0, 1.0, 1.0}, Relation::kLessEqual, 3.0);
  RevisedSimplex engine(p);
  ASSERT_EQ(engine.num_rows(), 3U);
  Basis singular;
  singular.num_structural = 4;
  singular.status = {VarStatus::kBasic,   VarStatus::kBasic,
                     VarStatus::kAtLower, VarStatus::kAtLower,
                     VarStatus::kAtLower, VarStatus::kAtLower,
                     VarStatus::kBasic};
  const std::vector<std::vector<ColEntry>> cols = {
      {{0, 1.0}, {1, 1.0}},
      {{0, 1.0}, {1, 1.0}},
      {{0, 1.0}, {1, 2.0}, {2, 1.0}},
      {{2, 1.0}},
  };
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(3, {0, 1, 4 + 2}, 4, cols));

  const Solution warm = engine.solve_from_basis(singular);
  ASSERT_TRUE(warm.optimal());
  const Solution dense = solve(p);
  ASSERT_TRUE(dense.optimal());
  EXPECT_NEAR(warm.objective, dense.objective, 1e-9);
  EXPECT_NEAR(warm.objective, 11.0, 1e-9);
}

TEST(RevisedSimplexFactor, WarmResolveIsBitwiseAFreshSeededSolve) {
  // The factorization is a pure function of the basic set: a warm
  // re-solve on an engine with solve history equals, bit for bit, the
  // same warm solve on a fresh engine seeded with the same basis.
  const int n = 8;
  const game::TabularGame g = convex_game(n);
  const Problem lc = least_core_problem(g);
  RevisedSimplex engine(lc);
  ASSERT_TRUE(engine.solve().optimal());
  const Basis basis = engine.basis();
  const auto patch = [&](RevisedSimplex& e) {
    for (std::size_t c = 1; c < lc.num_constraints(); c += 17) {
      e.set_constraint_rhs(c, lc.constraints()[c].rhs * 1.25 + 0.5);
    }
  };
  patch(engine);
  const Solution warm = engine.solve_from_basis(basis);
  RevisedSimplex fresh(lc);
  patch(fresh);
  const Solution seeded = fresh.solve_from_basis(basis);
  ASSERT_TRUE(warm.optimal());
  ASSERT_TRUE(seeded.optimal());
  EXPECT_GT(warm.pivots, 0U);
  EXPECT_EQ(warm.pivots, seeded.pivots);
  EXPECT_EQ(std::memcmp(&warm.objective, &seeded.objective, sizeof(double)),
            0);
  ASSERT_EQ(warm.x.size(), seeded.x.size());
  EXPECT_EQ(std::memcmp(warm.x.data(), seeded.x.data(),
                        warm.x.size() * sizeof(double)),
            0);
  ASSERT_EQ(warm.duals.size(), seeded.duals.size());
  EXPECT_EQ(std::memcmp(warm.duals.data(), seeded.duals.data(),
                        warm.duals.size() * sizeof(double)),
            0);
  EXPECT_EQ(engine.basis().status, fresh.basis().status);
}

TEST(RevisedSimplexFactor, PanelFtranIsBitwiseScalarFtranWithBump) {
  // A 6 x 6 basis peeling into three column singletons (two slacks,
  // then x3) and a 3 x 3 bump, plus two etas: every lane of ftran_panel
  // must equal ftran bitwise.
  const std::size_t m = 6;
  const std::vector<std::vector<ColEntry>> cols = {
      {{0, 2.0}, {1, 1.0}, {2, -1.5}, {4, 0.25}},
      {{1, 3.0}, {2, 1.0}, {3, 0.5}},
      {{1, 0.5}, {2, 4.0}, {3, 1.0}},
      {{3, 2.0}, {5, -0.75}},
  };
  const std::size_t n = cols.size();
  const std::vector<std::size_t> basic = {0, 1, 2, n + 4, 3, n + 5};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, basic, n, cols));
  EXPECT_EQ(lu.stats().bump, 3U);
  EXPECT_EQ(lu.stats().peeled, 3U);
  lu.push_eta(2, {0.5, 0.0, 1.5, -0.25, 0.0, 2.0});
  lu.push_eta(4, {0.0, 1.0, 0.0, 0.0, -3.0, 0.5});

  const std::size_t lanes = 5;
  std::vector<std::vector<double>> rhs(lanes, std::vector<double>(m));
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t r = 0; r < m; ++r) {
      rhs[l][r] = (l == 2 && r % 2 == 0)
                      ? 0.0
                      : std::sin(1.0 + static_cast<double>(7 * l + r));
    }
  }
  std::vector<double> panel(m * lanes), work;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t l = 0; l < lanes; ++l) panel[r * lanes + l] = rhs[l][r];
  }
  lu.ftran_panel(panel, lanes, work);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<double> v = rhs[l];
    lu.ftran(v);
    for (std::size_t p = 0; p < m; ++p) {
      const double got = panel[p * lanes + l];
      EXPECT_EQ(std::memcmp(&got, &v[p], sizeof(double)), 0)
          << "lane " << l << " position " << p;
    }
  }
}

TEST(RevisedSimplexFactor, SolvesMatchDenseReferenceOnBump) {
  // ftran/btran against the explicit basis: B x = v and B^T y = c.
  const std::size_t m = 6;
  const std::vector<std::vector<ColEntry>> cols = {
      {{0, 2.0}, {1, 1.0}, {2, -1.5}, {4, 0.25}},
      {{1, 3.0}, {2, 1.0}, {3, 0.5}},
      {{1, 0.5}, {2, 4.0}, {3, 1.0}},
      {{3, 2.0}, {5, -0.75}},
  };
  const std::size_t n = cols.size();
  const std::vector<std::size_t> basic = {0, 1, 2, n + 4, 3, n + 5};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, basic, n, cols));
  std::vector<std::vector<double>> dense(m, std::vector<double>(m, 0.0));
  for (std::size_t p = 0; p < m; ++p) {
    if (basic[p] < n) {
      for (const ColEntry& e : cols[basic[p]]) dense[e.row][p] = e.value;
    } else {
      dense[basic[p] - n][p] = 1.0;
    }
  }
  const std::vector<double> v = {1.0, -2.0, 0.5, 3.0, 0.0, 1.25};
  std::vector<double> x = v;
  lu.ftran(x);
  for (std::size_t r = 0; r < m; ++r) {
    double acc = 0.0;
    for (std::size_t p = 0; p < m; ++p) acc += dense[r][p] * x[p];
    EXPECT_NEAR(acc, v[r], 1e-12) << "row " << r;
  }
  std::vector<double> y = v;
  lu.btran(y);
  for (std::size_t p = 0; p < m; ++p) {
    double acc = 0.0;
    for (std::size_t r = 0; r < m; ++r) acc += dense[r][p] * y[r];
    EXPECT_NEAR(acc, v[p], 1e-12) << "position " << p;
  }
}

}  // namespace
}  // namespace fedshare::lp
