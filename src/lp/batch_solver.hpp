// Batched multi-RHS warm re-solves against one shared factorization.
//
// The coalition sweeps solve thousands of sibling LPs that differ only
// in their capacity rhs and start from the same predecessor basis. The
// sequential path clones the template engine per LP and re-runs the
// whole warm preamble — adopt statuses, LU-factorize the basis, FTRAN
// the rhs — even though for rhs-only patches the adopted statuses and
// the factorization are *identical* across the whole family (status
// sanitization depends only on bound finiteness, and the LU depends
// only on the basic set and the immutable columns).
//
// BatchSolver exploits that: it adopts and factorizes once per group,
// FTRANs the members' rhs vectors as a dense panel against the shared
// sparse LU (BasisLu::ftran_panel: identical per-lane operation order,
// so each lane is bitwise equal to the single-rhs FTRAN), and finishes
// each member with the shared btran'd cost vector. A member is "fast"
// when its basic values are primal feasible and pricing finds no
// entering column — then the warm solve performs zero pivots and the
// Solution is a pure function of state the panel already computed. Any
// member that would pivot spills to the ordinary single-solve path, so
// every result — fast or spilled — is bit-identical to today's per-LP
// warm chain.
//
// Three entry points, one per call-site shape:
//  * solve_group     — a whole level of rhs-patched siblings sharing one
//                      starting basis (model::lp_relaxation_sweep).
//  * solve_one       — one warm re-solve with budget-charge emulation
//                      (serve's bound-table re-solves).
//  * solve_objective — objective-only re-solves chained through the
//                      previous optimum (the nucleolus probe chains);
//                      reuses the factorization *and* the basic values
//                      across consecutive zero-pivot probes.
//
// Determinism contract: every Solution, Basis snapshot, pivot count,
// and budget charge sequence is bitwise/observably identical to the
// equivalent sequence of per-LP RevisedSimplex clones. A BatchSolver is
// driven by one thread at a time; parallel sweeps construct one per
// worker chunk and feed it consecutive groups — reuse across groups is
// bitwise inert because solve_group restores the prototype rhs and
// re-adopts the start basis on entry, and the frame cache only skips
// recomputing state (LU, y, d) that is a pure function of the basic
// set it is keyed on.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "lp/revised_simplex.hpp"

namespace fedshare::lp {

/// Counters for observing how much of a workload hit the zero-pivot
/// panel path (`fast`) versus spilling to single solves (`spilled`),
/// and how often consecutive calls reused a cached factorization.
struct BatchStats {
  std::uint64_t groups = 0;        ///< solve_group invocations
  std::uint64_t fast = 0;          ///< zero-pivot panel/frame solves
  std::uint64_t spilled = 0;       ///< fell back to the single-solve path
  std::uint64_t frame_builds = 0;  ///< factorizations performed
  std::uint64_t frame_reuses = 0;  ///< factorizations skipped (cache hit)
};

class BatchSolver {
 public:
  /// Snapshots `prototype` (computational form + current rhs) as the
  /// pristine template every member solve is patched from.
  explicit BatchSolver(const RevisedSimplex& prototype);

  /// Solves every member of `patches` warm from `basis`, writing one
  /// Solution per member to `sols` (and, when `bases_out` is non-null,
  /// the member's post-solve basis snapshot — empty exactly when the
  /// sequential path would have produced an engine without one).
  /// Patches are applied to the pristine template rhs, so members are
  /// independent; bound patches and budget/observer-carrying prototypes
  /// are handled by spilling (still bit-identical, just not batched).
  ///
  /// With `objective_only`, fast members carry only status, objective
  /// and pivots (x/duals left empty; the objective is folded through
  /// the identical operation sequence, so it is still bitwise the
  /// sequential value). Spilled members always carry full payloads.
  /// Sweeps that consume only objectives and basis snapshots use this
  /// to skip a per-member Solution materialization.
  void solve_group(const Basis& basis,
                   const std::vector<ProblemPatch>& patches,
                   std::vector<Solution>& sols,
                   std::vector<Basis>* bases_out = nullptr,
                   bool objective_only = false);

  /// One warm re-solve of `patch` from `basis` (nullptr/empty = cold),
  /// charging `budget` exactly as the sequential clone would (dual
  /// sweep + primal sweep loop-top charges, in order). `basis_out`
  /// receives the post-solve snapshot (empty when the sequential fresh
  /// clone would have had none, e.g. presolve infeasibility).
  [[nodiscard]] Solution solve_one(const Basis* basis,
                                   const ProblemPatch& patch,
                                   const runtime::ComputeBudget* budget,
                                   Basis* basis_out = nullptr);

  /// Objective-only warm re-solve from `basis` (the nucleolus probe
  /// shape: rhs and bounds never change across the chain). Consecutive
  /// zero-pivot probes whose starting statuses match the cached frame
  /// skip prepare/adopt/factorize/FTRAN entirely — one BTRAN for the
  /// new objective plus two scans. Do not interleave with solve_one /
  /// solve_group on the same instance: those patch the rhs, which this
  /// entry point assumes fixed.
  [[nodiscard]] Solution solve_objective(const std::vector<double>& objective,
                                         const Basis& basis,
                                         Basis* basis_out = nullptr);

  [[nodiscard]] const BatchStats& stats() const noexcept { return stats_; }

  /// Basis snapshot of the most recent solve on the frame engine.
  [[nodiscard]] Basis current_basis() const { return engine_.basis(); }

 private:
  void restore_rhs(RevisedSimplex& e) const;
  static void apply_rhs(RevisedSimplex& e, const ProblemPatch& patch);
  void invalidate_frame() noexcept;
  // Adopts `basis` on the frame engine and ensures the LU matches the
  // adopted basic set, factorizing only when the cached one differs.
  // Returns false when factorization failed (caller falls back cold).
  bool ensure_frame(const Basis& basis);
  // After a pivoting solve on the frame engine, replays the warm-start
  // preamble (prepare / adopt / factorize / FTRAN) once so the next
  // zero-pivot probe can reuse the cached state. Pure replay: it only
  // reconstructs state the next solve's own preamble would rebuild.
  void rebuild_frame_from_current();
  void refresh_y();
  [[nodiscard]] bool primal_feasible() const;
  [[nodiscard]] bool pricing_none() const;
  [[nodiscard]] bool dual_feasible_from_d() const;
  [[nodiscard]] Solution spill_solve(const Basis& basis,
                                     const ProblemPatch& patch,
                                     Basis* basis_out);

  RevisedSimplex engine_;    ///< frame engine (shared factorization)
  RevisedSimplex spill_;     ///< persistent scratch for spilled members
  RevisedSimplex pristine_;  ///< untouched template (bound-patch clones)
  std::vector<double> base_rhs_;  ///< prototype constraint rhs snapshot

  // Frame cache. frame_ok_: engine_'s LU matches frame_basic_ (== its
  // basic_) with an empty eta file. x_ok_: x_basic_ is a fresh
  // compute_basic_values for the current instance data. y_ok_: y_/d_
  // match the current basic set and objective.
  bool frame_ok_ = false;
  bool x_ok_ = false;
  bool y_ok_ = false;
  std::vector<std::size_t> frame_basic_;
  std::vector<double> y_;  ///< btran'd basic costs of the frame
  std::vector<double> d_;  ///< reduced cost per column against y_

  std::vector<double> panel_;       ///< rhs panel (slot-major lanes)
  std::vector<double> panel_work_;  ///< ftran_panel output scratch
  // Group-invariant assembly list: the (column, nonbasic value) pairs
  // with nonzero contribution, in ascending column order — the exact
  // subtraction sequence compute_basic_values performs per rhs.
  std::vector<std::pair<std::size_t, double>> nonbasic_nz_;
  // prepare()'s row_rhs_ for the *pristine* rhs: lanes re-derive their
  // row_rhs_ as base_row_rhs_ plus their patch rows, skipping the full
  // prepare() re-run (legal because panel patches never touch a
  // bound-mapped constraint, so every other prepare() output stands).
  std::vector<double> base_row_rhs_;
  // Fast-member template: extract_core of the group's first fast
  // member; later members differ only in basic x values + objective.
  Solution tmpl_sol_;
  // objective_only scratch: the template's x with each member's basic
  // values written over it before the objective fold — nonbasic slots
  // are group-invariant, and every fold rewrites all basic slots, so
  // no restore step is needed between members.
  std::vector<double> x_work_;

  BatchStats stats_;
};

}  // namespace fedshare::lp
