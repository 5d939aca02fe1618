// Bounded-variable revised simplex with an LU-factorized basis.
//
// The dense tableau in lp/simplex.hpp recomputes an m x cols tableau on
// every pivot and rebuilds everything from scratch on every solve. This
// engine keeps the constraint matrix immutable (column-major, sparse),
// represents the basis as a sparse triangle-peeling LU updated by an eta
// file (lp/basis_lu.hpp: product-form update), and refactorizes on a
// fixed cadence — so a pivot costs two sparse triangular solves instead
// of a tableau sweep, and an optimal basis can be snapshotted and reused:
//
//  * solve()             — cold start from the all-slack basis; composite
//                          phase-1 (minimize the sum of bound violations)
//                          then phase-2 on the real objective.
//  * solve_from_basis(b) — warm start. When only the rhs or variable
//                          bounds changed since `b` was optimal, the
//                          basis stays dual feasible and a dual-simplex
//                          sweep re-solves in a handful of pivots; when
//                          the objective or the row set changed, the
//                          statuses seed a primal re-solve (with a crash
//                          that rebuilds a compatible basis if the row
//                          dimension moved).
//
// Two structural features the dense solver lacks:
//  * native bounds — free variables are not split into x+ - x-, and
//    singleton rows (a*x <= b and friends) are presolved into variable
//    bounds, which shrinks the basis by the number of such rows (the
//    allocation relaxation drops from (L + C*L) rows to L).
//  * patching — set_constraint_rhs / set_bounds / apply(ProblemPatch)
//    edit the instance in place, so a family of LPs differing only in
//    capacities (one per coalition) shares one build.
//
// Determinism: entering/leaving choices use fixed tie-breaks (smallest
// index), so a solve is a pure function of (instance, patches, starting
// basis) — independent of thread count or arrival order when instances
// are cloned per worker. Anti-cycling: Dantzig pricing normally, with a
// Bland fallback that engages after a stall streak and disengages on
// real progress.
//
// Budget contract: one ComputeBudget unit per simplex iteration (primal
// pivot, dual pivot, bound flip, or crash pivot), matching the dense
// solver's one-unit-per-pivot rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "lp/basis_lu.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace fedshare::lp {

/// Status of one solver column (structural variable or slack).
enum class VarStatus : unsigned char {
  kAtLower,       ///< nonbasic at its (finite) lower bound
  kAtUpper,       ///< nonbasic at its (finite) upper bound
  kBasic,         ///< in the basis
  kFreeNonbasic,  ///< nonbasic free variable, pinned at 0
};

/// Snapshot of a basis: one status per solver column (structural
/// variables first, then one slack per non-presolved row). Produced by
/// RevisedSimplex::basis() after a solve; consumed by solve_from_basis.
/// A snapshot taken on one instance is reusable on any instance with
/// the same constraint structure (only rhs/bounds/objective may differ);
/// an instance with a different row set triggers the crash path, which
/// reuses the structural statuses only.
struct Basis {
  std::vector<VarStatus> status;
  std::size_t num_structural = 0;

  [[nodiscard]] bool empty() const noexcept { return status.empty(); }
};

/// In-place edits for a built instance: constraint rhs replacements and
/// structural-variable bound replacements. Applying a patch never
/// changes the constraint structure, so basis snapshots stay valid warm
/// starts across patches.
struct ProblemPatch {
  struct Rhs {
    std::size_t constraint = 0;
    double rhs = 0.0;
  };
  struct Bounds {
    std::size_t variable = 0;
    double lower = 0.0;
    double upper = 0.0;
  };
  std::vector<Rhs> rhs;
  std::vector<Bounds> bounds;
};

/// The revised simplex engine. Instances are plain values: copying one
/// clones the whole state (matrix, factorization, statuses), which is
/// how parallel sweeps hand each worker its own solver built from a
/// shared template.
class RevisedSimplex {
 public:
  /// BatchSolver drives the private solve machinery (prepare / adopt /
  /// factorize / panel FTRAN / extract_core) to re-solve whole families
  /// of rhs-patched siblings against one shared factorization.
  friend class BatchSolver;
  /// Builds the computational form of `problem`: singleton rows become
  /// variable bounds, remaining rows get one slack each. The instance
  /// remembers `options` (tolerance, budget, max_iterations) for every
  /// subsequent solve.
  explicit RevisedSimplex(const Problem& problem, SimplexOptions options = {});

  /// Replaces the rhs of constraint `constraint` (index into the
  /// original Problem's constraint list, bound rows included).
  void set_constraint_rhs(std::size_t constraint, double rhs);

  /// Replaces an existing *row-mapped* constraint wholesale
  /// (coefficients, relation, rhs) without disturbing the rest of the
  /// computational form. The row-set patching path for probe chains:
  /// the nucleolus fixes a tight excess row `a^T x + eps >= b` into
  /// `a'^T x == b'` between rounds and keeps re-solving warm from the
  /// previous basis — prepare()/factorize() run per solve, so the next
  /// solve_from_basis picks the edit up with no further invalidation.
  /// The constraint must have been a real row at construction (not a
  /// presolved singleton bound) and the new coefficients must not be
  /// all zero; throws std::invalid_argument otherwise.
  void set_constraint(std::size_t constraint,
                      const std::vector<double>& coefficients,
                      Relation relation, double rhs);

  /// Replaces the declared bounds of structural variable `variable`.
  /// Use -inf/+inf for unbounded sides; singleton-row bounds still
  /// intersect with these.
  void set_bounds(std::size_t variable, double lower, double upper);

  /// Replaces one objective coefficient (in the original problem's
  /// sense).
  void set_objective_coefficient(std::size_t variable, double coefficient);

  /// Applies every edit in `patch`.
  void apply(const ProblemPatch& patch);

  /// Re-targets the cooperative budget charged by subsequent solves
  /// (nullptr disables). Parallel sweeps clone a template instance per
  /// chunk and point each clone at its forked child budget, since a
  /// ComputeBudget must not be charged from two threads.
  void set_budget(const runtime::ComputeBudget* budget) noexcept {
    options_.budget = budget;
  }

  /// Cold solve from the all-slack basis.
  [[nodiscard]] Solution solve();

  /// Warm solve from `basis` (falls back to a cold solve when `basis`
  /// is empty or unusable). Prefers a dual-simplex sweep when the basis
  /// is still dual feasible — the cheap path after rhs/bound patches.
  [[nodiscard]] Solution solve_from_basis(const Basis& basis) {
    return solve_from_basis_impl(basis, nullptr, nullptr);
  }

  /// Basis snapshot of the most recent solve (empty before any solve).
  [[nodiscard]] Basis basis() const;

  /// Cumulative simplex iterations across all solves on this instance.
  [[nodiscard]] std::uint64_t pivots() const noexcept { return pivots_; }

  /// Rows remaining after singleton presolve (the basis dimension).
  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  /// Structural variables + slacks.
  [[nodiscard]] std::size_t num_columns() const noexcept {
    return num_cols_;
  }
  [[nodiscard]] std::size_t num_structural() const noexcept { return n_; }

  /// Shape of the most recent successful basis factorization: singleton
  /// pivots peeled and the order of the dense bump. Read-only
  /// diagnostics (tests use it to guard against a silent fallback to a
  /// full dense LU); nothing reads it to steer a solve.
  [[nodiscard]] const FactorStats& factor_stats() const noexcept {
    return factor_.stats();
  }

 private:
  static constexpr std::size_t kNoSource = static_cast<std::size_t>(-1);

  // How an original constraint maps into the computational form.
  struct ConstraintMap {
    bool is_bound = false;
    std::size_t index = 0;  ///< real-row index, or variable for bounds
    double coeff = 0.0;     ///< singleton coefficient (bounds only)
    Relation relation = Relation::kLessEqual;
  };

  // Setup shared by both solve entry points: effective bounds, row rhs,
  // trivial-infeasibility detection. Returns false when a variable's
  // effective bound interval is empty (LP infeasible).
  bool prepare();
  [[nodiscard]] Solution solve_bounds_only() const;
  void reset_to_slack_basis();
  void adopt_statuses(const Basis& basis);
  bool crash_from(const Basis& basis, Solution& out);

  // solve_from_basis with an optional factorization seed. When the
  // adopted basic set equals `seed_basic`, installs `seed_lu` instead of
  // refactorizing — legal because factorize() is a pure function of
  // (basic set, immutable columns), so a seed taken from an engine that
  // factorized the same basic set over the same problem is bitwise the
  // LU this engine would compute. BatchSolver uses this to share the
  // group frame's factorization with spilled members.
  [[nodiscard]] Solution solve_from_basis_impl(
      const Basis& basis, const std::vector<std::size_t>* seed_basic,
      const BasisLu* seed_lu);

  // Basis linear algebra: factor_ holds the LU and the eta file;
  // factor_.ftran / factor_.btran are the FTRAN / BTRAN.
  bool factorize();
  [[nodiscard]] std::vector<double> column(std::size_t j) const;
  void column_into(std::size_t j, std::vector<double>& col) const;
  [[nodiscard]] double column_dot(std::size_t j,
                                  const std::vector<double>& y) const;
  void compute_basic_values();
  // Records the product-form update for the pivot at `row_pos` (w is the
  // ftran'd entering column) and refactorizes on cadence. Sets
  // `basis_reset_` when a singular refactorization forced a restart from
  // the slack basis.
  void push_eta(std::size_t row_pos, const std::vector<double>& w);

  [[nodiscard]] double nonbasic_value(std::size_t j) const;
  [[nodiscard]] bool is_fixed(std::size_t j) const;
  [[nodiscard]] bool dual_feasible() const;
  [[nodiscard]] double internal_cost(std::size_t j) const noexcept;

  // Engines. Each returns true when the caller should continue (found
  // an optimum / handed over), false when `out.status` is final.
  bool run_dual(Solution& out);
  bool run_primal(Solution& out);
  void extract(Solution& out) const;
  // The body of extract() given the btran'd basic-cost vector `y` —
  // BatchSolver computes y once per shared factorization and calls this
  // per sibling, which is bitwise identical to extract() because y is a
  // pure function of (factor_, basic_, objective_). `d_cache`, when
  // non-null, supplies the per-column reduced costs against the same y
  // (computed with the identical `internal_cost(v) - column_dot(v, y)`
  // expression), saving the per-call recomputation without changing a
  // single FP operation.
  void extract_core(const std::vector<double>& y, Solution& out,
                    const std::vector<double>* d_cache = nullptr) const;

  // Certificate construction (see lp::Solution). bound_farkas witnesses
  // a presolve-detected infeasibility (empty bound interval / violated
  // empty row); farkas_from_rows discharges a row-space infeasibility
  // multiplier onto original constraints (returns false when a declared
  // bound blocks the witness — the certificate is then left empty).
  void bound_farkas(Solution& out) const;
  bool farkas_from_rows(const std::vector<double>& y_row,
                        Solution& out) const;
  // Reports `out` to options_.observer when one is attached and the
  // mirrored Problem is still valid (set_bounds invalidates it).
  void notify(Solution& out);

  // Immutable-ish problem data (patched in place).
  std::size_t n_ = 0;         ///< structural variables
  std::size_t num_rows_ = 0;  ///< rows after presolve (basis dimension)
  std::size_t num_cols_ = 0;  ///< n_ + num_rows_
  Objective sense_ = Objective::kMaximize;
  double csign_ = 1.0;  ///< internal minimize: c_int = csign_ * c_orig
  SimplexOptions options_;
  std::vector<double> objective_;             ///< original sense
  std::vector<ConstraintMap> constraint_map_;  ///< per original constraint
  std::vector<double> constraint_rhs_;         ///< per original constraint
  std::vector<Relation> row_relation_;         ///< per real row
  std::vector<std::size_t> row_constraint_;    ///< real row -> constraint
  std::vector<std::vector<ColEntry>> cols_;    ///< structural columns
  std::vector<double> decl_lower_, decl_upper_;  ///< declared var bounds
  /// Mirror of the constructing Problem, kept patched in step with
  /// set_constraint_rhs / set_objective_coefficient so observer
  /// callbacks can hand the verifier the LP actually solved. Only
  /// maintained when an observer is attached; set_bounds discards it
  /// (declared bounds have no Problem representation).
  std::optional<Problem> mirror_;

  // Derived per solve (by prepare()).
  std::vector<double> lower_, upper_;  ///< effective bounds per column
  std::vector<double> row_rhs_;        ///< per real row
  /// Which original (singleton) constraint produced each structural
  /// variable's binding effective lower/upper bound — kNoSource when the
  /// bound is declared/natural. Certificates discharge reduced costs at
  /// a bound onto its source constraint.
  std::vector<std::size_t> src_lo_, src_hi_;
  bool bound_infeasible_ = false;

  // Basis state.
  std::vector<VarStatus> status_;      ///< per column
  std::vector<std::size_t> basic_;     ///< basis position -> column
  std::vector<double> x_basic_;        ///< value per basis position
  BasisLu factor_;                     ///< sparse LU + eta file
  bool has_basis_ = false;
  bool basis_reset_ = false;  ///< set by push_eta on singular refactorize

  std::uint64_t pivots_ = 0;

  // Reusable pricing and ratio-test work vectors (cold solves used to
  // reallocate them per pivot).
  std::vector<double> price_work_, rho_work_, col_work_;
};

/// One-shot revised solve mirroring lp::solve's contract.
[[nodiscard]] Solution solve_revised(const Problem& problem,
                                     const SimplexOptions& options = {});

}  // namespace fedshare::lp
