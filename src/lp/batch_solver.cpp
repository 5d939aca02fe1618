#include "lp/batch_solver.hpp"

#include <algorithm>
#include <cmath>

namespace fedshare::lp {

namespace {

// Mirrors of the revised-simplex feasibility tolerances. The fast-path
// predicates below must reach the *same* verdict as run_dual/run_primal
// would on the same state, so these values are load-bearing: they equal
// kFeasTol / kDualTol in revised_simplex.cpp.
constexpr double kFeasTol = 1e-7;
constexpr double kDualTol = 1e-7;

// Lanes per FTRAN panel tile. The panel is dense (num_rows doubles per
// lane), so a tile stays cache-resident while the factors stream through
// it once per tile instead of once per member.
constexpr std::size_t kPanelLanes = 16;

}  // namespace

BatchSolver::BatchSolver(const RevisedSimplex& prototype)
    : engine_(prototype),
      spill_(prototype),
      pristine_(prototype),
      base_rhs_(prototype.constraint_rhs_) {}

void BatchSolver::restore_rhs(RevisedSimplex& e) const {
  if (e.mirror_.has_value()) {
    // Keep the observer's mirrored Problem in step.
    for (std::size_t i = 0; i < base_rhs_.size(); ++i) {
      e.set_constraint_rhs(i, base_rhs_[i]);
    }
  } else {
    e.constraint_rhs_ = base_rhs_;
  }
}

void BatchSolver::apply_rhs(RevisedSimplex& e, const ProblemPatch& patch) {
  for (const auto& r : patch.rhs) e.set_constraint_rhs(r.constraint, r.rhs);
}

void BatchSolver::invalidate_frame() noexcept {
  frame_ok_ = false;
  x_ok_ = false;
  y_ok_ = false;
}


bool BatchSolver::ensure_frame(const Basis& basis) {
  engine_.adopt_statuses(basis);
  if (frame_ok_ && engine_.basic_ == frame_basic_) {
    ++stats_.frame_reuses;
    return true;
  }
  if (!engine_.factorize()) {
    invalidate_frame();
    return false;
  }
  frame_basic_ = engine_.basic_;
  frame_ok_ = true;
  y_ok_ = false;
  ++stats_.frame_builds;
  return true;
}

void BatchSolver::refresh_y() {
  const std::size_t m = engine_.num_rows_;
  y_.resize(m);
  for (std::size_t p = 0; p < m; ++p) {
    y_[p] = engine_.internal_cost(engine_.basic_[p]);
  }
  engine_.factor_.btran(y_);
  d_.resize(engine_.num_cols_);
  for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
    d_[j] = engine_.internal_cost(j) - engine_.column_dot(j, y_);
  }
  y_ok_ = true;
}

bool BatchSolver::primal_feasible() const {
  // Same comparison run_primal uses for its phase decision: a pass here
  // means the sequential solve would price phase-2 immediately.
  for (std::size_t p = 0; p < engine_.num_rows_; ++p) {
    const std::size_t col = engine_.basic_[p];
    const double xb = engine_.x_basic_[p];
    if (xb < engine_.lower_[col] - kFeasTol ||
        xb > engine_.upper_[col] + kFeasTol) {
      return false;
    }
  }
  return true;
}

bool BatchSolver::pricing_none() const {
  // Phase-2 pricing from run_primal with the cached reduced costs: true
  // iff no nonbasic column is eligible to enter, i.e. the sequential
  // solve would extract the optimum after zero pivots.
  const double price_tol = std::max(engine_.options_.tolerance, 1e-9);
  for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
    if (engine_.status_[j] == VarStatus::kBasic || engine_.is_fixed(j)) {
      continue;
    }
    const double d = d_[j];
    switch (engine_.status_[j]) {
      case VarStatus::kAtLower:
        if (d < -price_tol) return false;
        break;
      case VarStatus::kAtUpper:
        if (d > price_tol) return false;
        break;
      default:
        if (std::abs(d) > price_tol) return false;
        break;
    }
  }
  return true;
}

bool BatchSolver::dual_feasible_from_d() const {
  // RevisedSimplex::dual_feasible against the cached reduced costs —
  // needed only to reproduce the sequential budget-charge sequence
  // (dual sweep charges one unit before discovering primal feasibility).
  for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
    if (engine_.status_[j] == VarStatus::kBasic || engine_.is_fixed(j)) {
      continue;
    }
    const double d = d_[j];
    switch (engine_.status_[j]) {
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

Solution BatchSolver::spill_solve(const Basis& basis,
                                  const ProblemPatch& patch,
                                  Basis* basis_out) {
  // Bitwise the sequential path: a fresh clone of the prototype, the
  // member's patch, one warm (or cold) solve. Copy-assignment reuses the
  // spill engine's allocations where vector capacities allow, and when
  // the frame already factorized this basis the spill solve is seeded
  // with the frame's factors — factorize() is a pure function of the
  // basic set and the immutable columns, so the seed is the bitwise LU
  // the spill engine would recompute.
  ++stats_.spilled;
  spill_ = pristine_;
  spill_.apply(patch);
  Solution out;
  if (basis.empty()) {
    out = spill_.solve();
  } else if (frame_ok_) {
    out = spill_.solve_from_basis_impl(basis, &engine_.basic_,
                                       &engine_.factor_);
  } else {
    out = spill_.solve_from_basis(basis);
  }
  if (basis_out != nullptr) *basis_out = spill_.basis();
  return out;
}

void BatchSolver::solve_group(const Basis& basis,
                              const std::vector<ProblemPatch>& patches,
                              std::vector<Solution>& sols,
                              std::vector<Basis>* bases_out,
                              bool objective_only) {
  const std::size_t k = patches.size();
  // resize, not assign: every slot is overwritten below (fast members
  // by the template copy, the rest by spill_solve), so keeping prior
  // allocations alive lets repeated groups reuse vector capacity.
  sols.resize(k);
  if (bases_out != nullptr) bases_out->resize(k);
  if (k == 0) return;
  ++stats_.groups;

  // The panel covers the rhs-only, unobserved, unbudgeted shape; every
  // other member spills to the sequential clone (identical results, just
  // not batched). Patches that hit a singleton (bound-mapped) constraint
  // move effective bounds per member, which would break the shared
  // adopt/factorize, so they spill too.
  bool panel_ok = !basis.empty() &&
                  basis.status.size() == engine_.num_cols_ &&
                  engine_.num_rows_ > 0 &&
                  engine_.options_.max_iterations >= 1 &&
                  engine_.options_.observer == nullptr &&
                  engine_.options_.budget == nullptr;
  if (panel_ok) {
    for (const ProblemPatch& p : patches) {
      if (!p.bounds.empty()) {
        panel_ok = false;
        break;
      }
      for (const auto& r : p.rhs) {
        if (r.constraint >= engine_.constraint_map_.size() ||
            engine_.constraint_map_[r.constraint].is_bound) {
          panel_ok = false;
          break;
        }
      }
      if (!panel_ok) break;
    }
  }

  std::vector<char> done(k, 0);
  if (panel_ok) {
    restore_rhs(engine_);
    apply_rhs(engine_, patches[0]);
    x_ok_ = false;
    // Bounds are identical across the group (patches touch only real
    // rows), so member 0's prepare() stands in for everyone's and the
    // adopted statuses / factorization are shared.
    bool panel_ready =
        engine_.prepare() && engine_.num_rows_ > 0 && ensure_frame(basis);
    if (panel_ready) {
      if (!y_ok_) refresh_y();
      // Pricing reads only the shared statuses and reduced costs, so
      // its verdict is group-wide: if any column wants to enter, no
      // member can finish in zero pivots and the whole group spills.
      panel_ready = pricing_none();
    }
    if (panel_ready) {
      // Group-invariant assembly list: nonbasic values depend only on
      // the shared statuses and bounds, so collect the nonzero entries
      // once (in the same ascending-column order compute_basic_values
      // subtracts them) instead of rescanning every column per lane.
      nonbasic_nz_.clear();
      for (std::size_t j = 0; j < engine_.num_cols_; ++j) {
        if (engine_.status_[j] == VarStatus::kBasic) continue;
        const double val = engine_.nonbasic_value(j);
        if (val != 0.0) nonbasic_nz_.emplace_back(j, val);
      }
      // prepare()'s row_rhs_ over the pristine rhs, so each lane is one
      // memcpy plus its own patch rows (identical values to restoring
      // the rhs and re-running prepare(); see base_row_rhs_'s comment).
      const std::size_t m = engine_.num_rows_;
      base_row_rhs_.assign(m, 0.0);
      for (std::size_t c = 0; c < engine_.constraint_map_.size(); ++c) {
        const auto& map = engine_.constraint_map_[c];
        if (!map.is_bound) base_row_rhs_[map.index] = base_rhs_[c];
      }
      // Every fast member shares the group's statuses, duals, nonbasic
      // x entries, and basis snapshot; only the basic x values and the
      // objective differ per lane. Extract the first fast member in
      // full, then clone and overwrite.
      Basis fast_basis;
      bool tmpl_ok = false;
      panel_.resize(kPanelLanes * m);
      for (std::size_t tile = 0; tile < k; tile += kPanelLanes) {
        const std::size_t lanes = std::min(kPanelLanes, k - tile);
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::size_t i = tile + l;
          // compute_basic_values' pre-FTRAN assembly, lane-local. The
          // panel is slot-major (see BasisLu::ftran_panel), so lane l's
          // slot s lives at panel_[s * lanes + l]. Member 0 starts from
          // prepare()'s row_rhs_; later members write base_row_rhs_
          // plus their patch rows straight into their lane (the values
          // are identical — this just skips a row_rhs_ roundtrip).
          double* p = panel_.data();
          if (i == 0) {
            const std::vector<double>& rr = engine_.row_rhs_;
            for (std::size_t s = 0; s < m; ++s) p[s * lanes + l] = rr[s];
          } else {
            for (std::size_t s = 0; s < m; ++s) {
              p[s * lanes + l] = base_row_rhs_[s];
            }
            for (const auto& r : patches[i].rhs) {
              p[engine_.constraint_map_[r.constraint].index * lanes + l] =
                  r.rhs;
            }
          }
          for (const auto& [j, val] : nonbasic_nz_) {
            if (j < engine_.n_) {
              for (const ColEntry& e : engine_.cols_[j]) {
                p[e.row * lanes + l] -= e.value * val;
              }
            } else {
              p[(j - engine_.n_) * lanes + l] -= val;
            }
          }
        }
        engine_.factor_.ftran_panel(panel_, lanes, panel_work_);
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::size_t i = tile + l;
          engine_.x_basic_.resize(m);
          for (std::size_t s = 0; s < m; ++s) {
            engine_.x_basic_[s] = panel_[s * lanes + l];
          }
          if (primal_feasible()) {
            ++stats_.fast;
            Solution& out = sols[i];
            if (!tmpl_ok) {
              engine_.extract_core(y_, tmpl_sol_, &d_);
              tmpl_sol_.pivots = 0;
              fast_basis = engine_.basis();
              tmpl_ok = true;
              if (objective_only) x_work_ = tmpl_sol_.x;
            }
            if (objective_only) {
              // extract_core's basic overwrite and objective fold, on
              // the template's shared nonbasic fill — the same final
              // objective in the same operation order — without
              // materializing the member's x/duals (callers in this
              // mode consume only objectives and basis snapshots).
              for (std::size_t p = 0; p < m; ++p) {
                if (engine_.basic_[p] < engine_.n_) {
                  x_work_[engine_.basic_[p]] = engine_.x_basic_[p];
                }
              }
              double obj = 0.0;
              for (std::size_t v = 0; v < engine_.n_; ++v) {
                obj += engine_.objective_[v] * x_work_[v];
              }
              out.x.clear();
              out.duals.clear();
              out.farkas.clear();
              out.ray.clear();
              out.status = SolveStatus::kOptimal;
              out.objective = obj;
            } else {
              out = tmpl_sol_;
              // Same overwrite + fold as above, into the member's own
              // copy of the template payload.
              for (std::size_t p = 0; p < m; ++p) {
                if (engine_.basic_[p] < engine_.n_) {
                  out.x[engine_.basic_[p]] = engine_.x_basic_[p];
                }
              }
              double obj = 0.0;
              for (std::size_t v = 0; v < engine_.n_; ++v) {
                obj += engine_.objective_[v] * out.x[v];
              }
              out.objective = obj;
            }
            out.pivots = 0;
            done[i] = 1;
            if (bases_out != nullptr) (*bases_out)[i] = fast_basis;
          }
        }
      }
      x_ok_ = false;  // x_basic_ holds the last lane, not a full solve
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (done[i]) continue;
    sols[i] = spill_solve(basis, patches[i],
                          bases_out != nullptr ? &(*bases_out)[i] : nullptr);
  }
}

Solution BatchSolver::solve_one(const Basis* basis, const ProblemPatch& patch,
                                const runtime::ComputeBudget* budget,
                                Basis* basis_out) {
  if (basis_out != nullptr) *basis_out = Basis{};
  const bool warmable =
      basis != nullptr && !basis->empty() &&
      basis->status.size() == engine_.num_cols_ && patch.bounds.empty() &&
      engine_.num_rows_ > 0 && engine_.options_.max_iterations >= 1 &&
      engine_.options_.observer == nullptr;
  if (warmable) {
    restore_rhs(engine_);
    apply_rhs(engine_, patch);
    x_ok_ = false;
    if (engine_.prepare() && engine_.num_rows_ > 0 && ensure_frame(*basis)) {
      engine_.compute_basic_values();
      if (!y_ok_) refresh_y();
      if (primal_feasible() && pricing_none()) {
        x_ok_ = true;
        ++stats_.fast;
        Solution out;
        // The sequential clone charges once in the dual sweep (when the
        // basis is dual feasible) and once at the primal loop top before
        // discovering optimality; reproduce that sequence exactly.
        if (dual_feasible_from_d()) {
          if (budget != nullptr && !budget->charge()) {
            out.status = SolveStatus::kBudgetExhausted;
            out.pivots = 0;
            return out;
          }
        }
        if (budget != nullptr && !budget->charge()) {
          out.status = SolveStatus::kBudgetExhausted;
          out.pivots = 0;
          return out;
        }
        engine_.extract_core(y_, out, &d_);
        out.pivots = 0;
        if (basis_out != nullptr) *basis_out = engine_.basis();
        return out;
      }
    }
  }
  // Spill: the sequential fresh clone, budget attached.
  ++stats_.spilled;
  spill_ = pristine_;
  spill_.apply(patch);
  spill_.set_budget(budget);
  Solution out = (basis != nullptr && !basis->empty())
                     ? spill_.solve_from_basis(*basis)
                     : spill_.solve();
  if (basis_out != nullptr) *basis_out = spill_.basis();
  return out;
}

void BatchSolver::rebuild_frame_from_current() {
  invalidate_frame();
  if (engine_.num_rows_ == 0 || !engine_.has_basis_) return;
  const Basis b = engine_.basis();
  if (!engine_.prepare()) return;
  engine_.adopt_statuses(b);  // idempotent on a post-solve status vector
  if (!engine_.factorize()) return;
  engine_.compute_basic_values();
  frame_basic_ = engine_.basic_;
  frame_ok_ = true;
  x_ok_ = true;
  ++stats_.frame_builds;
}

Solution BatchSolver::solve_objective(const std::vector<double>& objective,
                                      const Basis& basis, Basis* basis_out) {
  for (std::size_t v = 0; v < objective.size(); ++v) {
    engine_.set_objective_coefficient(v, objective[v]);
  }
  y_ok_ = false;
  Solution out;
  const bool fast_frame =
      frame_ok_ && x_ok_ && !basis.empty() &&
      engine_.options_.max_iterations >= 1 &&
      basis.status.size() == engine_.num_cols_ &&
      basis.status == engine_.status_;
  if (!fast_frame) {
    // Full sequential path on the persistent engine — the exact state a
    // sequential probe chain would hold. Afterwards, rebuild the frame
    // (one prepare/adopt/factorize/FTRAN) so the *next* zero-pivot probe
    // rides the cache; the rebuild only replays state the preamble would
    // reconstruct anyway, so later solves are unaffected.
    out = basis.empty() ? engine_.solve() : engine_.solve_from_basis(basis);
    if (out.optimal()) {
      rebuild_frame_from_current();
    } else {
      invalidate_frame();
    }
    if (basis_out != nullptr) *basis_out = engine_.basis();
    return out;
  }

  // Cached frame: statuses match and rhs/bounds are untouched since the
  // frame was built, so prepare/adopt/factorize/FTRAN would reproduce
  // the cached state bitwise. Only y depends on the new objective.
  refresh_y();
  if (primal_feasible() && pricing_none()) {
    ++stats_.fast;
    ++stats_.frame_reuses;
    const runtime::ComputeBudget* budget = engine_.options_.budget;
    if (dual_feasible_from_d()) {
      if (budget != nullptr && !budget->charge()) {
        out.status = SolveStatus::kBudgetExhausted;
        out.pivots = 0;
        engine_.notify(out);
        return out;
      }
    }
    if (budget != nullptr && !budget->charge()) {
      out.status = SolveStatus::kBudgetExhausted;
      out.pivots = 0;
      engine_.notify(out);
      return out;
    }
    engine_.extract_core(y_, out, &d_);
    out.pivots = 0;
    engine_.notify(out);
    if (basis_out != nullptr) *basis_out = engine_.basis();
    return out;
  }

  // The new objective wants pivots: run the real engines from the cached
  // state (bitwise what the sequential preamble would have built).
  ++stats_.spilled;
  ++stats_.frame_reuses;
  const std::uint64_t start = engine_.pivots_;
  if (engine_.dual_feasible()) {
    if (!engine_.run_dual(out)) {
      out.pivots = engine_.pivots_ - start;
      invalidate_frame();
      engine_.notify(out);
      if (basis_out != nullptr) *basis_out = engine_.basis();
      return out;
    }
  }
  engine_.run_primal(out);
  out.pivots = engine_.pivots_ - start;
  if (out.optimal()) {
    rebuild_frame_from_current();
  } else {
    invalidate_frame();
  }
  engine_.notify(out);
  if (basis_out != nullptr) *basis_out = engine_.basis();
  return out;
}

}  // namespace fedshare::lp
