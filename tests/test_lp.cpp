// Tests for the LP substrate: matrix ops, problem building, simplex.
#include <gtest/gtest.h>

#include "lp/matrix.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace fedshare::lp {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Matrix, RowOperations) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  m.add_scaled_row(1, 0, -3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), -2.0);
  m.scale_row(1, -0.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
}

TEST(Problem, ValidatesInputs) {
  EXPECT_THROW(Problem(0), std::invalid_argument);
  Problem p(2);
  EXPECT_THROW(p.set_objective_coefficient(2, 1.0), std::out_of_range);
  EXPECT_THROW(p.add_constraint({1.0}, Relation::kLessEqual, 1.0),
               std::invalid_argument);
  EXPECT_THROW(p.set_free(5), std::out_of_range);
}

TEST(Simplex, SolvesSimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), obj 12.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 3.0);
  p.set_objective_coefficient(1, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kLessEqual, 4.0);
  p.add_constraint({1.0, 3.0}, Relation::kLessEqual, 6.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 12.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2 -> (10 - y)... optimum (10, 0)? No:
  // cost of x is cheaper, so all x: x = 10, y = 0, obj 20.
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, 2.0);
  p.set_objective_coefficient(1, 3.0);
  p.add_constraint({1.0, 1.0}, Relation::kGreaterEqual, 10.0);
  p.add_constraint({1.0, 0.0}, Relation::kGreaterEqual, 2.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 20.0, 1e-8);
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // max x + y s.t. x + y = 5, x - y = 1 -> x = 3, y = 2.
  Problem p(2);
  p.set_objective_coefficient(0, 1.0);
  p.set_objective_coefficient(1, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 5.0);
  p.add_constraint({1.0, -1.0}, Relation::kEqual, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p(1);
  p.add_constraint({1.0}, Relation::kLessEqual, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({-1.0}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesFreeVariables) {
  // min x s.t. x >= -5 with x free -> x = -5.
  Problem p(1, Objective::kMinimize);
  p.set_free(0);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0}, Relation::kGreaterEqual, -5.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(Simplex, HandlesNegativeRhs) {
  // max x s.t. -x <= -3 (i.e. x >= 3), x <= 10 -> x = 10.
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({-1.0}, Relation::kLessEqual, -3.0);
  p.add_constraint({1.0}, Relation::kLessEqual, 10.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 10.0, 1e-8);
}

TEST(Simplex, NoConstraintsZeroObjectiveIsOptimalAtOrigin) {
  Problem p(2, Objective::kMinimize);
  p.set_objective_coefficient(0, 1.0);  // minimized at x = 0
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Simplex, NoConstraintsImprovingDirectionIsUnbounded) {
  Problem p(1, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // A classic cycling-prone instance (Beale); Bland's rule must terminate.
  Problem p(4, Objective::kMaximize);
  p.set_objective_coefficient(0, 0.75);
  p.set_objective_coefficient(1, -150.0);
  p.set_objective_coefficient(2, 0.02);
  p.set_objective_coefficient(3, -6.0);
  p.add_constraint({0.25, -60.0, -1.0 / 25.0, 9.0}, Relation::kLessEqual,
                   0.0);
  p.add_constraint({0.5, -90.0, -1.0 / 50.0, 3.0}, Relation::kLessEqual, 0.0);
  p.add_constraint({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.05, 1e-8);
}

TEST(Simplex, StatusNames) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

TEST(Simplex, RedundantEqualityRowsHandled) {
  // x + y = 2 stated twice; still solvable.
  Problem p(2, Objective::kMaximize);
  p.set_objective_coefficient(0, 1.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 2.0);
  p.add_constraint({1.0, 1.0}, Relation::kEqual, 2.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
}

}  // namespace
}  // namespace fedshare::lp
