#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fedshare::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Primal feasibility: how far a basic value may sit outside its bounds.
constexpr double kFeasTol = 1e-7;
// Dual feasibility: reduced-cost slack accepted when testing whether a
// warm basis still qualifies for the dual simplex.
constexpr double kDualTol = 1e-7;
// Smallest |pivot element| accepted in a ratio test.
constexpr double kPivTol = 1e-8;
// Ratio-test tie window.
constexpr double kRatioTol = 1e-9;
// A step below this counts as degenerate for stall tracking.
constexpr double kDegenTol = 1e-10;
// Consecutive degenerate pivots before switching to Bland's rule.
constexpr int kStallLimit = 32;
// Eta-file length that triggers a refactorization.
constexpr std::size_t kRefactorEvery = 64;

}  // namespace

RevisedSimplex::RevisedSimplex(const Problem& problem, SimplexOptions options)
    : n_(problem.num_variables()),
      sense_(problem.sense()),
      csign_(problem.sense() == Objective::kMaximize ? -1.0 : 1.0),
      options_(options),
      objective_(problem.objective()) {
  decl_lower_.resize(n_);
  decl_upper_.assign(n_, kInf);
  for (std::size_t v = 0; v < n_; ++v) {
    decl_lower_[v] = problem.is_free(v) ? -kInf : 0.0;
  }

  cols_.resize(n_);
  const auto& constraints = problem.constraints();
  constraint_map_.resize(constraints.size());
  constraint_rhs_.resize(constraints.size());
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const Constraint& c = constraints[i];
    constraint_rhs_[i] = c.rhs;
    std::size_t nnz = 0;
    std::size_t last_var = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      if (c.coefficients[v] != 0.0) {
        ++nnz;
        last_var = v;
      }
    }
    ConstraintMap& map = constraint_map_[i];
    map.relation = c.relation;
    if (nnz <= 1) {
      // Singleton (or empty) row: absorbed into variable bounds by
      // prepare(); empty rows become pure feasibility checks.
      map.is_bound = true;
      map.index = nnz == 1 ? last_var : 0;
      map.coeff = nnz == 1 ? c.coefficients[last_var] : 0.0;
    } else {
      map.is_bound = false;
      map.index = num_rows_;
      row_relation_.push_back(c.relation);
      row_constraint_.push_back(i);
      for (std::size_t v = 0; v < n_; ++v) {
        if (c.coefficients[v] != 0.0) {
          cols_[v].push_back({num_rows_, c.coefficients[v]});
        }
      }
      ++num_rows_;
    }
  }
  num_cols_ = n_ + num_rows_;
  if (options_.observer != nullptr) mirror_ = problem;
}

void RevisedSimplex::set_constraint_rhs(std::size_t constraint, double rhs) {
  if (constraint >= constraint_rhs_.size()) {
    throw std::out_of_range("RevisedSimplex: constraint index out of range");
  }
  constraint_rhs_[constraint] = rhs;
  if (mirror_.has_value()) mirror_->set_constraint_rhs(constraint, rhs);
}

void RevisedSimplex::set_constraint(std::size_t constraint,
                                    const std::vector<double>& coefficients,
                                    Relation relation, double rhs) {
  if (constraint >= constraint_map_.size()) {
    throw std::out_of_range("RevisedSimplex: constraint index out of range");
  }
  if (coefficients.size() != n_) {
    throw std::invalid_argument(
        "RevisedSimplex::set_constraint: coefficient count must match "
        "variables");
  }
  ConstraintMap& map = constraint_map_[constraint];
  if (map.is_bound) {
    throw std::invalid_argument(
        "RevisedSimplex::set_constraint: constraint was presolved into a "
        "variable bound; only real rows can be replaced in place");
  }
  bool any = false;
  for (const double c : coefficients) {
    if (c != 0.0) { any = true; break; }
  }
  if (!any) {
    throw std::invalid_argument(
        "RevisedSimplex::set_constraint: row must keep at least one "
        "nonzero coefficient");
  }
  const std::size_t row = map.index;
  // Rewrite the row's entry in every structural column. Column entry
  // lists are kept sorted by row (construction order), so removal and
  // in-place update preserve the deterministic iteration order; an
  // insertion goes to its sorted slot.
  for (std::size_t v = 0; v < n_; ++v) {
    auto& col = cols_[v];
    auto it = std::lower_bound(
        col.begin(), col.end(), row,
        [](const ColEntry& e, std::size_t r) { return e.row < r; });
    const bool present = it != col.end() && it->row == row;
    const double c = coefficients[v];
    if (c == 0.0) {
      if (present) col.erase(it);
    } else if (present) {
      it->value = c;
    } else {
      col.insert(it, ColEntry{row, c});
    }
  }
  map.relation = relation;
  row_relation_[row] = relation;
  constraint_rhs_[constraint] = rhs;
  if (mirror_.has_value()) {
    mirror_->set_constraint(constraint, coefficients, relation, rhs);
  }
}

void RevisedSimplex::set_bounds(std::size_t variable, double lower,
                                double upper) {
  if (variable >= n_) {
    throw std::out_of_range("RevisedSimplex: variable index out of range");
  }
  decl_lower_[variable] = lower;
  decl_upper_[variable] = upper;
  // Declared bounds have no Problem-level representation: the mirror no
  // longer describes the LP being solved, so observers go silent.
  mirror_.reset();
}

void RevisedSimplex::set_objective_coefficient(std::size_t variable,
                                               double coefficient) {
  if (variable >= n_) {
    throw std::out_of_range("RevisedSimplex: variable index out of range");
  }
  objective_[variable] = coefficient;
  if (mirror_.has_value()) {
    mirror_->set_objective_coefficient(variable, coefficient);
  }
}

void RevisedSimplex::apply(const ProblemPatch& patch) {
  for (const auto& r : patch.rhs) set_constraint_rhs(r.constraint, r.rhs);
  for (const auto& b : patch.bounds) set_bounds(b.variable, b.lower, b.upper);
}

double RevisedSimplex::internal_cost(std::size_t j) const noexcept {
  return j < n_ ? csign_ * objective_[j] : 0.0;
}

bool RevisedSimplex::prepare() {
  bound_infeasible_ = false;
  lower_.assign(num_cols_, 0.0);
  upper_.assign(num_cols_, kInf);
  src_lo_.assign(n_, kNoSource);
  src_hi_.assign(n_, kNoSource);
  for (std::size_t v = 0; v < n_; ++v) {
    lower_[v] = decl_lower_[v];
    upper_[v] = decl_upper_[v];
  }
  row_rhs_.assign(num_rows_, 0.0);

  for (std::size_t i = 0; i < constraint_map_.size(); ++i) {
    const ConstraintMap& map = constraint_map_[i];
    const double b = constraint_rhs_[i];
    if (!map.is_bound) {
      row_rhs_[map.index] = b;
      continue;
    }
    if (map.coeff == 0.0) {
      // Empty row: `0 relation b` must hold outright.
      const bool ok = map.relation == Relation::kLessEqual ? b >= -kFeasTol
                      : map.relation == Relation::kGreaterEqual ? b <= kFeasTol
                                                                : std::abs(b) <=
                                                                      kFeasTol;
      if (!ok) bound_infeasible_ = true;
      continue;
    }
    const double val = b / map.coeff;
    Relation rel = map.relation;
    if (map.coeff < 0.0) {
      if (rel == Relation::kLessEqual) rel = Relation::kGreaterEqual;
      else if (rel == Relation::kGreaterEqual) rel = Relation::kLessEqual;
    }
    double& lo = lower_[map.index];
    double& up = upper_[map.index];
    // Track which constraint supplies the binding side (preferring a
    // constraint over an equal declared bound) so certificates can
    // discharge bound multipliers back onto original constraints.
    const auto tighten_lo = [&](std::size_t constraint) {
      if (val > lo) {
        lo = val;
        src_lo_[map.index] = constraint;
      } else if (val == lo && src_lo_[map.index] == kNoSource) {
        src_lo_[map.index] = constraint;
      }
    };
    const auto tighten_up = [&](std::size_t constraint) {
      if (val < up) {
        up = val;
        src_hi_[map.index] = constraint;
      } else if (val == up && src_hi_[map.index] == kNoSource) {
        src_hi_[map.index] = constraint;
      }
    };
    switch (rel) {
      case Relation::kLessEqual: tighten_up(i); break;
      case Relation::kGreaterEqual: tighten_lo(i); break;
      case Relation::kEqual:
        tighten_lo(i);
        tighten_up(i);
        break;
    }
  }

  // Slack bounds encode each surviving row's relation.
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const std::size_t j = n_ + r;
    switch (row_relation_[r]) {
      case Relation::kLessEqual: lower_[j] = 0.0; upper_[j] = kInf; break;
      case Relation::kGreaterEqual: lower_[j] = -kInf; upper_[j] = 0.0; break;
      case Relation::kEqual: lower_[j] = 0.0; upper_[j] = 0.0; break;
    }
  }

  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (lower_[j] > upper_[j] + 1e-9) bound_infeasible_ = true;
  }
  return !bound_infeasible_;
}

Solution RevisedSimplex::solve_bounds_only() const {
  Solution out;
  out.x.assign(n_, 0.0);
  for (std::size_t v = 0; v < n_; ++v) {
    const double c = csign_ * objective_[v];
    const double lo = lower_[v];
    const double up = upper_[v];
    double x = 0.0;
    if (c > 0.0) {
      if (!std::isfinite(lo)) {
        out.x.clear();
        out.status = SolveStatus::kUnbounded;
        out.ray.assign(n_, 0.0);
        out.ray[v] = -1.0;
        return out;
      }
      x = lo;
    } else if (c < 0.0) {
      if (!std::isfinite(up)) {
        out.x.clear();
        out.status = SolveStatus::kUnbounded;
        out.ray.assign(n_, 0.0);
        out.ray[v] = 1.0;
        return out;
      }
      x = up;
    } else {
      if (lo > 0.0) x = lo;
      else if (up < 0.0) x = up;
    }
    out.x[v] = x;
  }
  double obj = 0.0;
  for (std::size_t v = 0; v < n_; ++v) obj += objective_[v] * out.x[v];
  out.objective = obj;
  out.status = SolveStatus::kOptimal;
  // Dual certificate: with no real rows every reduced cost equals the
  // internal objective coefficient; discharge each pinned variable's
  // cost onto the singleton constraint that pins it.
  out.duals.assign(constraint_map_.size(), 0.0);
  bool have_duals = true;
  for (std::size_t v = 0; v < n_ && have_duals; ++v) {
    const double c = csign_ * objective_[v];
    if (c == 0.0) continue;
    if (c > 0.0) {
      if (src_lo_[v] != kNoSource) {
        out.duals[src_lo_[v]] += csign_ * c / constraint_map_[src_lo_[v]].coeff;
      } else if (lower_[v] != 0.0) {
        have_duals = false;  // declared bound binds: no constraint witness
      }
    } else {
      if (src_hi_[v] != kNoSource) {
        out.duals[src_hi_[v]] += csign_ * c / constraint_map_[src_hi_[v]].coeff;
      } else {
        have_duals = false;
      }
    }
  }
  if (!have_duals) out.duals.clear();
  return out;
}

void RevisedSimplex::reset_to_slack_basis() {
  status_.assign(num_cols_, VarStatus::kAtLower);
  for (std::size_t v = 0; v < n_; ++v) {
    if (std::isfinite(lower_[v])) status_[v] = VarStatus::kAtLower;
    else if (std::isfinite(upper_[v])) status_[v] = VarStatus::kAtUpper;
    else status_[v] = VarStatus::kFreeNonbasic;
  }
  basic_.resize(num_rows_);
  for (std::size_t r = 0; r < num_rows_; ++r) {
    status_[n_ + r] = VarStatus::kBasic;
    basic_[r] = n_ + r;
  }
  factor_.clear_etas();
  has_basis_ = true;
}

void RevisedSimplex::adopt_statuses(const Basis& basis) {
  status_ = basis.status;
  // Sanitize: a nonbasic status must point at a finite bound under the
  // *current* effective bounds (patches may have moved them).
  for (std::size_t j = 0; j < num_cols_; ++j) {
    switch (status_[j]) {
      case VarStatus::kBasic:
        break;
      case VarStatus::kAtLower:
        if (!std::isfinite(lower_[j])) {
          status_[j] = std::isfinite(upper_[j]) ? VarStatus::kAtUpper
                                                : VarStatus::kFreeNonbasic;
        }
        break;
      case VarStatus::kAtUpper:
        if (!std::isfinite(upper_[j])) {
          status_[j] = std::isfinite(lower_[j]) ? VarStatus::kAtLower
                                                : VarStatus::kFreeNonbasic;
        }
        break;
      case VarStatus::kFreeNonbasic:
        if (std::isfinite(lower_[j])) status_[j] = VarStatus::kAtLower;
        else if (std::isfinite(upper_[j])) status_[j] = VarStatus::kAtUpper;
        break;
    }
  }
  // Enforce exactly num_rows_ basics: demote surplus (keep the lowest
  // column indices), then promote nonbasic slacks to fill gaps.
  std::size_t count = 0;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (status_[j] != VarStatus::kBasic) continue;
    if (count < num_rows_) {
      ++count;
    } else {
      status_[j] = std::isfinite(lower_[j]) ? VarStatus::kAtLower
                   : std::isfinite(upper_[j]) ? VarStatus::kAtUpper
                                              : VarStatus::kFreeNonbasic;
    }
  }
  for (std::size_t r = 0; r < num_rows_ && count < num_rows_; ++r) {
    if (status_[n_ + r] != VarStatus::kBasic) {
      status_[n_ + r] = VarStatus::kBasic;
      ++count;
    }
  }
  basic_.clear();
  basic_.reserve(num_rows_);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (status_[j] == VarStatus::kBasic) basic_.push_back(j);
  }
  factor_.clear_etas();
  has_basis_ = true;
}

std::vector<double> RevisedSimplex::column(std::size_t j) const {
  std::vector<double> col;
  column_into(j, col);
  return col;
}

void RevisedSimplex::column_into(std::size_t j,
                                 std::vector<double>& col) const {
  col.assign(num_rows_, 0.0);
  if (j < n_) {
    for (const ColEntry& e : cols_[j]) col[e.row] = e.value;
  } else {
    col[j - n_] = 1.0;
  }
}

double RevisedSimplex::column_dot(std::size_t j,
                                  const std::vector<double>& y) const {
  if (j < n_) {
    double acc = 0.0;
    for (const ColEntry& e : cols_[j]) acc += y[e.row] * e.value;
    return acc;
  }
  return y[j - n_];
}

bool RevisedSimplex::factorize() {
  return factor_.factorize(num_rows_, basic_, n_, cols_);
}

double RevisedSimplex::nonbasic_value(std::size_t j) const {
  switch (status_[j]) {
    case VarStatus::kAtLower: return lower_[j];
    case VarStatus::kAtUpper: return upper_[j];
    default: return 0.0;
  }
}

bool RevisedSimplex::is_fixed(std::size_t j) const {
  return std::isfinite(lower_[j]) && std::isfinite(upper_[j]) &&
         upper_[j] - lower_[j] <= 1e-12;
}

void RevisedSimplex::compute_basic_values() {
  x_basic_ = row_rhs_;  // copy-assign reuses the existing allocation
  std::vector<double>& rhs = x_basic_;
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double val = nonbasic_value(j);
    if (val == 0.0) continue;
    if (j < n_) {
      for (const ColEntry& e : cols_[j]) rhs[e.row] -= e.value * val;
    } else {
      rhs[j - n_] -= val;
    }
  }
  factor_.ftran(rhs);
}

void RevisedSimplex::push_eta(std::size_t row_pos,
                              const std::vector<double>& w) {
  factor_.push_eta(row_pos, w);
  if (factor_.num_etas() >= kRefactorEvery) {
    if (!factorize()) {
      // Numerically wedged: restart from the (always nonsingular) slack
      // basis; the composite phase-1 recovers feasibility.
      reset_to_slack_basis();
      factorize();
      basis_reset_ = true;
    }
    compute_basic_values();
  }
}

bool RevisedSimplex::dual_feasible() const {
  std::vector<double> y(num_rows_);
  for (std::size_t p = 0; p < num_rows_; ++p) {
    y[p] = internal_cost(basic_[p]);
  }
  factor_.btran(y);
  for (std::size_t j = 0; j < num_cols_; ++j) {
    if (status_[j] == VarStatus::kBasic || is_fixed(j)) continue;
    const double d = internal_cost(j) - column_dot(j, y);
    switch (status_[j]) {
      case VarStatus::kAtLower:
        if (d < -kDualTol) return false;
        break;
      case VarStatus::kAtUpper:
        if (d > kDualTol) return false;
        break;
      default:
        if (std::abs(d) > kDualTol) return false;
        break;
    }
  }
  return true;
}

bool RevisedSimplex::run_dual(Solution& out) {
  const std::size_t m = num_rows_;
  const std::size_t npos = num_cols_;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.budget && !options_.budget->charge()) {
      out.status = SolveStatus::kBudgetExhausted;
      return false;
    }
    // Leaving: the basic with the largest bound violation.
    std::size_t leave = m;
    double worst = kFeasTol;
    bool above = false;
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t col = basic_[p];
      const double xb = x_basic_[p];
      double v = 0.0;
      bool a = false;
      if (xb < lower_[col] - kFeasTol) {
        v = lower_[col] - xb;
      } else if (xb > upper_[col] + kFeasTol) {
        v = xb - upper_[col];
        a = true;
      } else {
        continue;
      }
      if (v > worst + kRatioTol ||
          (v > worst - kRatioTol && leave < m && col < basic_[leave])) {
        worst = v;
        leave = p;
        above = a;
      }
    }
    if (leave == m) return true;  // primal feasible; hand back

    std::vector<double>& y = price_work_;
    y.resize(m);
    for (std::size_t p = 0; p < m; ++p) y[p] = internal_cost(basic_[p]);
    factor_.btran(y);
    std::vector<double>& rho = rho_work_;
    rho.assign(m, 0.0);
    rho[leave] = 1.0;
    factor_.btran(rho);

    // Entering: dual ratio test over sign-eligible columns.
    std::size_t enter = npos;
    double best_ratio = kInf;
    double alpha_enter = 0.0;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (status_[j] == VarStatus::kBasic || is_fixed(j)) continue;
      const double alpha = column_dot(j, rho);
      if (std::abs(alpha) <= kPivTol) continue;
      bool eligible = false;
      switch (status_[j]) {
        case VarStatus::kAtLower: eligible = above ? alpha > 0.0 : alpha < 0.0;
          break;
        case VarStatus::kAtUpper: eligible = above ? alpha < 0.0 : alpha > 0.0;
          break;
        default: eligible = true; break;
      }
      if (!eligible) continue;
      const double d = internal_cost(j) - column_dot(j, y);
      const double ratio = std::abs(d) / std::abs(alpha);
      const bool take =
          ratio < best_ratio - kRatioTol ||
          (ratio <= best_ratio + kRatioTol &&
           (enter == npos || std::abs(alpha) > std::abs(alpha_enter) + kRatioTol ||
            (std::abs(alpha) >= std::abs(alpha_enter) - kRatioTol && j < enter)));
      if (take) {
        best_ratio = std::min(ratio, best_ratio);
        enter = j;
        alpha_enter = alpha;
      }
    }
    if (enter == npos) {
      // The violated row cannot be repaired by any nonbasic move. The
      // btran'd unit row rho prices every column with the sign pattern
      // of a Farkas multiplier: sigma * rho^T A_j lies on the blocked
      // side for each nonbasic, and the leaving basic's own violation
      // supplies the strict positivity.
      out.status = SolveStatus::kInfeasible;
      const double sigma = above ? 1.0 : -1.0;
      std::vector<double> y_row(m);
      for (std::size_t p = 0; p < m; ++p) y_row[p] = sigma * rho[p];
      if (!farkas_from_rows(y_row, out)) out.farkas.clear();
      return false;
    }

    const std::size_t out_col = basic_[leave];
    const double bound = above ? upper_[out_col] : lower_[out_col];
    const double dxj = (x_basic_[leave] - bound) / alpha_enter;
    const double range = upper_[enter] - lower_[enter];
    if (std::isfinite(range) && std::abs(dxj) > range + kFeasTol) {
      // A bounded dual would flip here; bail to the primal instead.
      return true;
    }

    std::vector<double>& w = col_work_;
    column_into(enter, w);
    factor_.ftran(w);
    for (std::size_t p = 0; p < m; ++p) {
      if (p != leave) x_basic_[p] -= dxj * w[p];
    }
    const double enter_val = nonbasic_value(enter) + dxj;
    status_[out_col] = is_fixed(out_col) ? VarStatus::kAtLower
                       : above           ? VarStatus::kAtUpper
                                         : VarStatus::kAtLower;
    status_[enter] = VarStatus::kBasic;
    basic_[leave] = enter;
    x_basic_[leave] = enter_val;
    ++pivots_;
    push_eta(leave, w);
    if (basis_reset_) {
      basis_reset_ = false;
      return true;
    }
  }
  return true;  // iteration cap: let the primal finish the job
}

bool RevisedSimplex::run_primal(Solution& out) {
  const std::size_t m = num_rows_;
  const std::size_t npos = num_cols_;
  const double price_tol = std::max(options_.tolerance, 1e-9);
  bool bland = false;
  int stall = 0;
  int iters_phase1 = 0;
  int iters_phase2 = 0;
  std::vector<double>& y = price_work_;
  y.resize(m);

  for (;;) {
    if (options_.budget && !options_.budget->charge()) {
      out.status = SolveStatus::kBudgetExhausted;
      return false;
    }

    // Composite phase selection: while any basic violates a bound, price
    // against the infeasibility gradient; otherwise the real objective.
    bool infeasible = false;
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t col = basic_[p];
      if (x_basic_[p] < lower_[col] - kFeasTol ||
          x_basic_[p] > upper_[col] + kFeasTol) {
        infeasible = true;
        break;
      }
    }
    int& iters = infeasible ? iters_phase1 : iters_phase2;
    if (iters++ >= options_.max_iterations) {
      out.status = SolveStatus::kIterationLimit;
      return false;
    }

    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t col = basic_[p];
      if (!infeasible) {
        y[p] = internal_cost(col);
      } else if (x_basic_[p] < lower_[col] - kFeasTol) {
        y[p] = -1.0;
      } else if (x_basic_[p] > upper_[col] + kFeasTol) {
        y[p] = 1.0;
      } else {
        y[p] = 0.0;
      }
    }
    factor_.btran(y);

    // Pricing: Dantzig (largest |reduced cost|) normally, Bland
    // (smallest eligible index) while recovering from a stall.
    std::size_t enter = npos;
    double best_score = price_tol;
    double sigma = 1.0;
    for (std::size_t j = 0; j < num_cols_; ++j) {
      if (status_[j] == VarStatus::kBasic || is_fixed(j)) continue;
      const double cj = infeasible ? 0.0 : internal_cost(j);
      const double d = cj - column_dot(j, y);
      double dir = 0.0;
      switch (status_[j]) {
        case VarStatus::kAtLower:
          if (d < -price_tol) dir = 1.0;
          break;
        case VarStatus::kAtUpper:
          if (d > price_tol) dir = -1.0;
          break;
        default:
          if (std::abs(d) > price_tol) dir = d < 0.0 ? 1.0 : -1.0;
          break;
      }
      if (dir == 0.0) continue;
      if (bland) {
        enter = j;
        sigma = dir;
        break;
      }
      if (std::abs(d) > best_score) {
        best_score = std::abs(d);
        enter = j;
        sigma = dir;
      }
    }
    if (enter == npos) {
      if (infeasible) {
        // Phase-1 optimum with positive violation: the btran'd
        // infeasibility gradient y certifies — no nonbasic move can
        // shrink the violated rows, so y is a Farkas multiplier.
        out.status = SolveStatus::kInfeasible;
        if (!farkas_from_rows(y, out)) out.farkas.clear();
        return false;
      }
      extract(out);
      return true;
    }

    std::vector<double>& w = col_work_;
    column_into(enter, w);
    factor_.ftran(w);

    // Bounded ratio test. The entering variable's own range is the
    // bound-flip candidate; each basic contributes the step at which it
    // hits a bound (phase 1: an infeasible basic is blocked at the bound
    // it is moving toward, where its cost contribution changes).
    const double range = upper_[enter] - lower_[enter];
    double t_best = std::isfinite(range) ? range : kInf;
    std::size_t leave = m;
    VarStatus leave_target = VarStatus::kAtLower;
    for (std::size_t p = 0; p < m; ++p) {
      const double wi = w[p];
      if (std::abs(wi) <= kPivTol) continue;
      const double rate = -sigma * wi;  // d x_basic[p] / d t
      const std::size_t col = basic_[p];
      const double xb = x_basic_[p];
      const double lo = lower_[col];
      const double up = upper_[col];
      double ti;
      VarStatus tgt;
      if (infeasible && xb < lo - kFeasTol) {
        if (rate <= kPivTol) continue;
        ti = (lo - xb) / rate;
        tgt = VarStatus::kAtLower;
      } else if (infeasible && xb > up + kFeasTol) {
        if (rate >= -kPivTol) continue;
        ti = (up - xb) / rate;
        tgt = VarStatus::kAtUpper;
      } else if (rate < 0.0) {
        if (!std::isfinite(lo)) continue;
        ti = (lo - xb) / rate;
        tgt = VarStatus::kAtLower;
      } else {
        if (!std::isfinite(up)) continue;
        ti = (up - xb) / rate;
        tgt = VarStatus::kAtUpper;
      }
      if (ti < 0.0) ti = 0.0;
      bool take = false;
      if (ti < t_best - kRatioTol) {
        take = true;
      } else if (ti <= t_best + kRatioTol) {
        if (leave == m) {
          take = true;  // prefer a pivot over a bound flip on ties
        } else if (bland) {
          take = col < basic_[leave];
        } else {
          const double cur = std::abs(w[leave]);
          const double cand = std::abs(wi);
          take = cand > cur + kRatioTol ||
                 (cand >= cur - kRatioTol && col < basic_[leave]);
        }
      }
      if (take) {
        t_best = std::min(ti, t_best);
        leave = p;
        leave_target = tgt;
      }
    }

    if (leave == m && !std::isfinite(t_best)) {
      // Infinite ratio. Phase 2: a genuine recession direction along the
      // entering column. Phase 1: a numerical corner (an infeasible basic
      // should always block) — report infeasible without a certificate
      // and let the verification cascade escalate.
      out.status =
          infeasible ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
      if (!infeasible) {
        out.ray.assign(n_, 0.0);
        if (enter < n_) out.ray[enter] = sigma;
        for (std::size_t p = 0; p < m; ++p) {
          if (basic_[p] < n_) out.ray[basic_[p]] = -sigma * w[p];
        }
        double cd = 0.0;
        for (std::size_t v = 0; v < n_; ++v) {
          cd += objective_[v] * out.ray[v];
        }
        const bool improves = sense_ == Objective::kMaximize
                                  ? cd > options_.tolerance
                                  : cd < -options_.tolerance;
        if (!improves) out.ray.clear();
      }
      return false;
    }

    ++pivots_;
    if (t_best > kDegenTol) {
      stall = 0;
      bland = false;
    } else if (!bland && ++stall >= kStallLimit) {
      bland = true;
      stall = 0;
    }

    const double step = sigma * t_best;
    if (leave == m) {
      // Bound flip: the entering variable crosses to its other bound.
      for (std::size_t p = 0; p < m; ++p) x_basic_[p] -= step * w[p];
      status_[enter] = status_[enter] == VarStatus::kAtLower
                           ? VarStatus::kAtUpper
                           : VarStatus::kAtLower;
      continue;
    }

    const double enter_val = nonbasic_value(enter) + step;
    for (std::size_t p = 0; p < m; ++p) {
      if (p != leave) x_basic_[p] -= step * w[p];
    }
    const std::size_t out_col = basic_[leave];
    status_[out_col] =
        is_fixed(out_col) ? VarStatus::kAtLower : leave_target;
    status_[enter] = VarStatus::kBasic;
    basic_[leave] = enter;
    x_basic_[leave] = enter_val;
    push_eta(leave, w);
    if (basis_reset_) {
      basis_reset_ = false;
      bland = false;
      stall = 0;
    }
  }
}

void RevisedSimplex::extract(Solution& out) const {
  std::vector<double> y(num_rows_);
  for (std::size_t p = 0; p < num_rows_; ++p) y[p] = internal_cost(basic_[p]);
  factor_.btran(y);
  extract_core(y, out);
}

void RevisedSimplex::extract_core(const std::vector<double>& y, Solution& out,
                                  const std::vector<double>* d_cache) const {
  // Full overwrite of every Solution field (callers may pass a reused
  // object — BatchSolver recycles its output slots' allocations).
  out.farkas.clear();
  out.ray.clear();
  out.x.assign(n_, 0.0);
  for (std::size_t v = 0; v < n_; ++v) {
    if (status_[v] != VarStatus::kBasic) out.x[v] = nonbasic_value(v);
  }
  for (std::size_t p = 0; p < num_rows_; ++p) {
    if (basic_[p] < n_) out.x[basic_[p]] = x_basic_[p];
  }
  double obj = 0.0;
  for (std::size_t v = 0; v < n_; ++v) obj += objective_[v] * out.x[v];
  out.objective = obj;
  out.status = SolveStatus::kOptimal;

  // Dual certificate. Real rows expose csign * (btran of basic costs);
  // a nonbasic structural pinned at a singleton-sourced bound discharges
  // its reduced cost onto that constraint, so the exposed duals satisfy
  // the conventions on lp::Solution over the *original* constraint set.
  // A variable pinned at a declared non-natural bound with a nonzero
  // reduced cost has no constraint-space witness: leave duals empty.
  out.duals.assign(constraint_map_.size(), 0.0);
  for (std::size_t i = 0; i < constraint_map_.size(); ++i) {
    if (!constraint_map_[i].is_bound) {
      out.duals[i] = csign_ * y[constraint_map_[i].index];
    }
  }
  bool have_duals = true;
  for (std::size_t v = 0; v < n_ && have_duals; ++v) {
    if (status_[v] == VarStatus::kBasic) continue;
    const double d = d_cache != nullptr ? (*d_cache)[v]
                                        : internal_cost(v) - column_dot(v, y);
    if (std::abs(d) <= kDualTol) continue;
    if (status_[v] == VarStatus::kFreeNonbasic) {
      have_duals = false;  // free nonbasic with nonzero reduced cost
      break;
    }
    // Internally we minimize, so d > 0 supports the lower bound and
    // d < 0 the upper. In degenerate lo == up corners the recorded
    // status may name the *other* bound, so pick the side d supports —
    // provided the variable actually sits on it.
    const double val = nonbasic_value(v);
    if (d > 0.0) {
      if (val != lower_[v]) {
        have_duals = false;
      } else if (src_lo_[v] != kNoSource) {
        out.duals[src_lo_[v]] +=
            csign_ * d / constraint_map_[src_lo_[v]].coeff;
      } else if (lower_[v] != 0.0) {
        have_duals = false;  // declared non-natural bound: no witness
      }
    } else {
      if (val != upper_[v] || src_hi_[v] == kNoSource) {
        have_duals = false;  // upper bounds have no natural-zero escape
      } else {
        out.duals[src_hi_[v]] +=
            csign_ * d / constraint_map_[src_hi_[v]].coeff;
      }
    }
  }
  if (!have_duals) out.duals.clear();
}

void RevisedSimplex::bound_farkas(Solution& out) const {
  const std::size_t nc = constraint_map_.size();
  // An outright-violated empty row is its own witness.
  for (std::size_t i = 0; i < nc; ++i) {
    const ConstraintMap& map = constraint_map_[i];
    if (!map.is_bound || map.coeff != 0.0) continue;
    const double b = constraint_rhs_[i];
    switch (map.relation) {
      case Relation::kLessEqual:
        if (b < -kFeasTol) {
          out.farkas.assign(nc, 0.0);
          out.farkas[i] = -1.0;
          return;
        }
        break;
      case Relation::kGreaterEqual:
        if (b > kFeasTol) {
          out.farkas.assign(nc, 0.0);
          out.farkas[i] = 1.0;
          return;
        }
        break;
      case Relation::kEqual:
        if (std::abs(b) > kFeasTol) {
          out.farkas.assign(nc, 0.0);
          out.farkas[i] = b > 0.0 ? 1.0 : -1.0;
          return;
        }
        break;
    }
  }
  // An empty bound interval combines the two source constraints (1/a on
  // the lower source, -1/a on the upper) into y with A^T y = 0 and
  // y^T b = lo - up > 0. A declared bound on the lower side is fine when
  // natural (x >= 0 needs no multiplier); elsewhere there is no witness.
  for (std::size_t v = 0; v < n_; ++v) {
    if (lower_[v] <= upper_[v] + 1e-9) continue;
    out.farkas.assign(nc, 0.0);
    if (src_lo_[v] != kNoSource) {
      out.farkas[src_lo_[v]] = 1.0 / constraint_map_[src_lo_[v]].coeff;
    } else if (lower_[v] != 0.0) {
      out.farkas.clear();
      return;
    }
    if (src_hi_[v] != kNoSource) {
      out.farkas[src_hi_[v]] += -1.0 / constraint_map_[src_hi_[v]].coeff;
    } else {
      out.farkas.clear();
      return;
    }
    double ytb = 0.0;
    for (std::size_t i = 0; i < nc; ++i) {
      ytb += out.farkas[i] * constraint_rhs_[i];
    }
    if (!(ytb > kFeasTol)) out.farkas.clear();
    return;
  }
}

bool RevisedSimplex::farkas_from_rows(const std::vector<double>& y_row,
                                      Solution& out) const {
  const std::size_t nc = constraint_map_.size();
  std::vector<double> y(nc, 0.0);
  // Slack-sign admissibility doubles as the exposed sign condition on
  // each surviving row's multiplier.
  for (std::size_t r = 0; r < num_rows_; ++r) {
    switch (row_relation_[r]) {
      case Relation::kLessEqual:
        if (y_row[r] > kDualTol) return false;
        break;
      case Relation::kGreaterEqual:
        if (y_row[r] < -kDualTol) return false;
        break;
      case Relation::kEqual:
        break;
    }
    y[row_constraint_[r]] = y_row[r];
  }
  // Discharge each structural column's gradient g = y_row^T A_j onto the
  // singleton constraint supplying the bound it presses against; the
  // natural lower bound x >= 0 legally keeps g < 0 undischarged.
  for (std::size_t v = 0; v < n_; ++v) {
    const double g = column_dot(v, y_row);
    if (std::abs(g) <= kDualTol) continue;
    if (g > 0.0) {
      if (src_hi_[v] == kNoSource) return false;
      y[src_hi_[v]] -= g / constraint_map_[src_hi_[v]].coeff;
    } else if (src_lo_[v] != kNoSource) {
      y[src_lo_[v]] -= g / constraint_map_[src_lo_[v]].coeff;
    } else if (lower_[v] != 0.0) {
      return false;  // free variable / declared bound: no witness
    }
  }
  double ytb = 0.0;
  for (std::size_t i = 0; i < nc; ++i) ytb += y[i] * constraint_rhs_[i];
  if (!(ytb > kFeasTol)) return false;
  out.farkas = std::move(y);
  return true;
}

void RevisedSimplex::notify(Solution& out) {
  if (options_.observer != nullptr && mirror_.has_value()) {
    options_.observer->on_solve(*mirror_, out);
  }
}

Solution RevisedSimplex::solve() {
  Solution out;
  const std::uint64_t start = pivots_;
  if (!prepare()) {
    out.status = SolveStatus::kInfeasible;
    bound_farkas(out);
    notify(out);
    return out;
  }
  if (num_rows_ == 0) {
    out = solve_bounds_only();
    notify(out);
    return out;
  }
  reset_to_slack_basis();
  factorize();
  compute_basic_values();
  run_primal(out);
  out.pivots = pivots_ - start;
  notify(out);
  return out;
}

Solution RevisedSimplex::solve_from_basis_impl(
    const Basis& basis, const std::vector<std::size_t>* seed_basic,
    const BasisLu* seed_lu) {
  if (basis.empty()) return solve();
  Solution out;
  const std::uint64_t start = pivots_;
  if (!prepare()) {
    out.status = SolveStatus::kInfeasible;
    bound_farkas(out);
    notify(out);
    return out;
  }
  if (num_rows_ == 0) {
    out = solve_bounds_only();
    notify(out);
    return out;
  }

  if (basis.status.size() == num_cols_) {
    adopt_statuses(basis);
    if (seed_basic != nullptr && basic_ == *seed_basic) {
      // Bitwise-identical shortcut: the seed is factorize()'s output
      // for exactly this basic set (see the header comment), and the
      // seed's factorization succeeded, so the failure fallback is
      // unreachable here.
      factor_ = *seed_lu;
      factor_.clear_etas();
    } else if (!factorize()) {
      return solve();
    }
    compute_basic_values();
    if (dual_feasible()) {
      if (!run_dual(out)) {
        out.pivots = pivots_ - start;
        notify(out);
        return out;
      }
    }
    run_primal(out);
    out.pivots = pivots_ - start;
    notify(out);
    return out;
  }

  // Dimension mismatch: crash a compatible basis from the structural
  // statuses, then solve primally.
  if (!crash_from(basis, out)) {
    out.pivots = pivots_ - start;
    notify(out);
    return out;
  }
  run_primal(out);
  out.pivots = pivots_ - start;
  notify(out);
  return out;
}

bool RevisedSimplex::crash_from(const Basis& basis, Solution& out) {
  reset_to_slack_basis();
  const std::size_t limit =
      std::min({n_, basis.num_structural, basis.status.size()});
  std::vector<std::size_t> wish;
  for (std::size_t v = 0; v < limit; ++v) {
    switch (basis.status[v]) {
      case VarStatus::kBasic:
        wish.push_back(v);
        break;
      case VarStatus::kAtLower:
        if (std::isfinite(lower_[v])) status_[v] = VarStatus::kAtLower;
        break;
      case VarStatus::kAtUpper:
        if (std::isfinite(upper_[v])) status_[v] = VarStatus::kAtUpper;
        break;
      case VarStatus::kFreeNonbasic:
        if (!std::isfinite(lower_[v]) && !std::isfinite(upper_[v])) {
          status_[v] = VarStatus::kFreeNonbasic;
        }
        break;
    }
  }
  factorize();
  for (const std::size_t v : wish) {
    if (options_.budget && !options_.budget->charge()) {
      out.status = SolveStatus::kBudgetExhausted;
      return false;
    }
    std::vector<double>& w = col_work_;
    column_into(v, w);
    factor_.ftran(w);
    // Replace the slack with the largest exposure to this column.
    std::size_t leave = num_rows_;
    double best = kFeasTol;
    for (std::size_t p = 0; p < num_rows_; ++p) {
      if (basic_[p] < n_) continue;
      if (std::abs(w[p]) > best) {
        best = std::abs(w[p]);
        leave = p;
      }
    }
    if (leave == num_rows_) continue;  // dependent column; stays nonbasic
    const std::size_t out_col = basic_[leave];
    status_[out_col] = std::isfinite(lower_[out_col]) ? VarStatus::kAtLower
                                                      : VarStatus::kAtUpper;
    status_[v] = VarStatus::kBasic;
    basic_[leave] = v;
    ++pivots_;
    push_eta(leave, w);
    if (basis_reset_) {
      basis_reset_ = false;
      break;
    }
  }
  compute_basic_values();
  return true;
}

Basis RevisedSimplex::basis() const {
  Basis b;
  if (!has_basis_) return b;
  b.status = status_;
  b.num_structural = n_;
  return b;
}

Solution solve_revised(const Problem& problem, const SimplexOptions& options) {
  RevisedSimplex engine(problem, options);
  return engine.solve();
}

}  // namespace fedshare::lp
