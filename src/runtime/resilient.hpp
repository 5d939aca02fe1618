// Graceful-degradation cascades over the solver stack.
//
// Every entry point here returns a *complete, structured* answer no
// matter what the ComputeBudget does: when a budget trips, the cascade
// degrades to a cheaper engine (exact -> LP-certified greedy -> greedy;
// exact Shapley -> antithetic Monte Carlo with standard errors) and
// records which engine answered plus a human-readable degradation note,
// instead of throwing or hanging. The cheap final engines run to
// completion even on a tripped budget — a deadline bounds the
// exponential work, not the polynomial floor that any answer requires.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocation.hpp"
#include "core/game.hpp"
#include "core/sharing.hpp"
#include "runtime/budget.hpp"
#include "verify/audit.hpp"
#include "verify/certificates.hpp"

namespace fedshare::runtime {

/// Which allocation engine produced the answer.
enum class AllocEngine { kExact, kGreedy };

[[nodiscard]] const char* to_string(AllocEngine engine) noexcept;

/// Outcome of the allocation cascade.
struct ResilientAllocation {
  alloc::AllocationResult result;
  AllocEngine engine = AllocEngine::kGreedy;
  bool exact_attempted = false;
  /// LP-relaxation upper bound (d <= 1 instances, budget allowing).
  std::optional<double> upper_bound;
  /// upper_bound - result.total_utility, when the bound was computed:
  /// how far the answer can be from optimal (0 certifies optimality of
  /// the relaxed objective).
  std::optional<double> optimality_gap;
  /// Empty when the preferred engine answered; otherwise a degradation
  /// note, e.g. "exact search exhausted its budget (deadline); greedy
  /// fallback".
  std::string note;
};

/// Allocation cascade: exact enumeration when the instance is in the
/// exact solver's domain and the budget holds, otherwise the greedy
/// water-filling allocator (which always completes), plus an LP quality
/// certificate when d <= 1 and the budget allows. Never throws for
/// budget reasons and never returns an empty result.
[[nodiscard]] ResilientAllocation resilient_allocate(
    const alloc::LocationPool& pool,
    const std::vector<alloc::RequestClass>& classes,
    const ComputeBudget& budget = {});

/// Which Shapley engine produced the answer.
enum class ShapleyEngine { kExact, kMonteCarlo };

[[nodiscard]] const char* to_string(ShapleyEngine engine) noexcept;

/// Outcome of the Shapley cascade.
struct ResilientShapley {
  std::vector<double> phi;
  /// Per-player standard errors; empty for the exact engine.
  std::vector<double> standard_error;
  ShapleyEngine engine = ShapleyEngine::kExact;
  std::uint64_t samples = 0;  ///< permutations drawn (Monte Carlo only)
  std::string note;           ///< degradation note, empty when exact
};

/// Shapley cascade: exact subset formula under the budget, degrading to
/// antithetic Monte Carlo with reported standard errors when the budget
/// trips or n > 24. The Monte Carlo stage draws at most `mc_samples`
/// permutations under a grace budget (a fresh deadline of a few times
/// the original, so a too-tight deadline still yields an estimate of at
/// least one antithetic pair). Deterministic given `mc_seed`.
[[nodiscard]] ResilientShapley resilient_shapley(const game::Game& game,
                                                 const ComputeBudget& budget = {},
                                                 std::uint64_t mc_samples = 4096,
                                                 std::uint64_t mc_seed = 1);

/// Why the nucleolus row is missing from a ResilientSchemes table.
enum class NucleolusSkip {
  kNone,      ///< computed (the row is present)
  kBudget,    ///< the budget tripped before or during the LP chain, or
              ///< the coalition table it needs was cut short
  kTooLarge,  ///< n > 10 and no non-trivial partition: the dense
              ///< 2^n-row formulation is out of reach
};

/// Budget-aware replacement for game::compare_schemes, used by the CLI
/// report and the outage evaluator.
struct ResilientSchemes {
  std::vector<game::SchemeOutcome> outcomes;
  /// True when core membership was actually evaluated (tabulated game,
  /// n <= 16); false means every in_core flag is a placeholder.
  bool core_checked = false;
  ShapleyEngine shapley_engine = ShapleyEngine::kExact;
  std::uint64_t shapley_samples = 0;
  double shapley_max_se = 0.0;  ///< max standard error (Monte Carlo only)
  NucleolusSkip nucleolus_skip = NucleolusSkip::kNone;
  /// One entry per degradation (empty on a clean run), e.g.
  /// "shapley: antithetic monte-carlo (64 samples, max se 0.0132)".
  std::vector<std::string> notes;
};

/// Computes every sharing scheme with per-engine degradation. `tab` may
/// be null when tabulation itself was cut short by the deadline; the
/// schemes that need the full table (nucleolus, Banzhaf, core checks)
/// are then skipped with notes and Shapley runs Monte Carlo against
/// `game` directly. Pass empty weight vectors to skip the proportional
/// schemes, mirroring game::compare_schemes. `lp_solver` picks the
/// simplex engine for the nucleolus LPs (the CLI's --lp-solver flag).
/// A non-trivial `partition` routes the nucleolus through the orbit-row
/// quotient formulation (see game::nucleolus_quotient), lifting the
/// dense n <= 10 ceiling. A nucleolus that is not computed (budget trip,
/// or n > 10 without a quotient) is recorded in `nucleolus_skip` plus a
/// note instead of throwing.
[[nodiscard]] ResilientSchemes compare_schemes_resilient(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const ComputeBudget& budget = {}, std::uint64_t mc_samples = 4096,
    std::uint64_t mc_seed = 1,
    lp::SolverKind lp_solver = lp::SolverKind::kDense,
    const game::PlayerPartition* partition = nullptr,
    game::QuotientNucleolusInfo* nucleolus_info = nullptr);

/// Verification-aware variant (the CLI's --verify flag). Behaviour by
/// verify_options.level:
///  * kOff   — identical to compare_schemes_resilient; `audit` untouched.
///  * kCheap — same computation, then game/outcome audits into `*audit`.
///  * kFull  — every nucleolus LP additionally runs under the
///    certificate-check/refine/escalate cascade (verify/certified.hpp),
///    and the observer's tallies land in audit->lp.
/// When tabulation was cut short (tab == nullptr) the audits are skipped
/// — sampling V(S) on the raw game could re-trigger the very work the
/// deadline cut — and an issue records that verification was abridged.
[[nodiscard]] ResilientSchemes compare_schemes_resilient_verified(
    const game::Game& game, const game::TabularGame* tab,
    const std::vector<double>& availability_weights,
    const std::vector<double>& consumption_weights,
    const verify::VerifyOptions& verify_options, verify::AuditReport* audit,
    const ComputeBudget& budget = {}, std::uint64_t mc_samples = 4096,
    std::uint64_t mc_seed = 1,
    lp::SolverKind lp_solver = lp::SolverKind::kDense,
    const game::PlayerPartition* partition = nullptr,
    game::QuotientNucleolusInfo* nucleolus_info = nullptr);

}  // namespace fedshare::runtime
