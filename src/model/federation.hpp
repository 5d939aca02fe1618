// Federation: the top-level model object binding providers and demand.
//
// Wraps a LocationSpace and a DemandProfile into the coalitional game of
// Sec. 3 and exposes the weight vectors the sharing schemes need. This is
// the main entry point of the library's public API:
//
//   auto space = model::LocationSpace::disjoint({{"PLC", 100, 80},
//                                                {"PLE", 400, 60},
//                                                {"PLJ", 800, 20}});
//   model::Federation fed(std::move(space),
//                         model::DemandProfile::uniform(40, 250));
//   auto shares = game::shapley_shares(fed.build_game());
#pragma once

#include <memory>
#include <optional>

#include "core/game.hpp"
#include "core/symmetry.hpp"
#include "exec/value_cache.hpp"
#include "runtime/budget.hpp"
#include "model/demand.hpp"
#include "model/location_space.hpp"
#include "model/value.hpp"

namespace fedshare::model {

/// A federation of facilities facing a demand profile.
class Federation {
 public:
  Federation(LocationSpace space, DemandProfile demand);

  [[nodiscard]] int num_facilities() const noexcept {
    return space_.num_facilities();
  }
  [[nodiscard]] const LocationSpace& space() const noexcept { return space_; }
  [[nodiscard]] const DemandProfile& demand() const noexcept {
    return demand_;
  }

  /// V(S) computed by the allocation engine (see model/value.hpp),
  /// closed under monotonicity: a coalition can always ignore a
  /// member's resources, so V(S) = max(greedy(S), max_i V(S \ {i})).
  /// The greedy water-filling heuristic occasionally dips when extra
  /// pools mislead it (V({0,4}) > V({0,1,4}) on the PlanetLab-style
  /// config); seeding every coalition with its best strict-subset
  /// solution makes V monotone by construction. Memoised per federation
  /// instance in a shared exec::ValueCache, so each coalition's
  /// allocation is solved exactly once no matter how many schemes,
  /// sweeps, or threads re-query it (the closure recursion materialises
  /// the down-set of S through the same cache). Copies share the cache
  /// until set_demand() gives the callee a fresh one.
  [[nodiscard]] double value(game::Coalition coalition) const;

  /// The greedy allocation value without the monotone closure — the
  /// direct output of the water-filling heuristic. This is the function
  /// the symmetry oracle samples (closure recursion would cost 2^|S|
  /// per probe) and the raw input to the quotient builds, which apply
  /// the same closure on the orbit lattice instead.
  [[nodiscard]] double raw_value(game::Coalition coalition) const;

  /// The instance's V(S) memo (hit/miss statistics for benches).
  [[nodiscard]] const exec::ValueCache& value_cache() const noexcept {
    return *cache_;
  }

  /// The federation's TU game, tabulated (all 2^n coalition values).
  /// Requires num_facilities() <= 24. Same as build_game_budgeted()
  /// over the identity partition with an unlimited budget.
  [[nodiscard]] game::TabularGame build_game() const;

  /// The player partition the symmetry engine would quotient with:
  /// identity for kOff; config_symmetry_partition() for kExact; the
  /// oracle-verified refinement of it (sampled on raw_value) for kAuto.
  [[nodiscard]] game::PlayerPartition symmetry_partition(
      game::SymmetryMode mode) const;

  /// build_game_budgeted(symmetry_partition(mode)) with an unlimited
  /// budget: kOff reproduces build_game() exactly.
  [[nodiscard]] game::TabularGame build_game(game::SymmetryMode mode) const;

  /// The one tabulation routine. A trivial `partition` tabulates every
  /// mask through the memo, each chunk staging its values in a
  /// CacheWriteBuffer and storing them in shard-grouped batches; the
  /// result is bit-identical to the serial loop at any thread count.
  /// A non-trivial one evaluates the greedy allocator once per orbit,
  /// applies the monotone closure on the orbit lattice (equivalent to
  /// the full-lattice closure for a symmetric game, and exact: max is
  /// order-independent) and expands to all 2^n masks. Charges one unit
  /// per mask or orbit materialised and returns nullopt when the budget
  /// trips. Callers that also need the partition (the report's Symmetry
  /// section, the quotient nucleolus) compute it once with
  /// symmetry_partition() and pass the same object here.
  [[nodiscard]] std::optional<game::TabularGame> build_game_budgeted(
      const game::PlayerPartition& partition,
      const runtime::ComputeBudget& budget) const;

  /// Tabulates the allocation-relaxation upper bound of every coalition
  /// via the warm-started subset-lattice sweep (model/value.hpp). The
  /// LP is built once over the grand pool; each coalition patches its
  /// capacities in and — with SolverKind::kRevised — re-solves warm
  /// from its lattice predecessor's basis. Deterministic for any thread
  /// count. Requires num_facilities() <= 20.
  [[nodiscard]] LpSweepResult relaxation_sweep(
      const LpSweepOptions& options = {}) const;

  /// Eq. 6 weights: L_i * R_i * T_i per facility.
  [[nodiscard]] std::vector<double> availability_weights() const;

  /// Eq. 7 weights: units consumed per facility under the grand
  /// coalition's optimal allocation.
  [[nodiscard]] std::vector<double> consumption_weights() const;

  /// Replaces the demand profile (used by the demand-sweep benches).
  /// Invalidates the V(S) memo: cached values depend on demand.
  void set_demand(DemandProfile demand);

 private:
  /// value() with a per-worker exec::CacheWriteBuffer in front of the
  /// shared memo: same closure recursion and the same hit/miss
  /// accounting, but computed values are staged locally and pushed to
  /// the shared cache in shard-grouped batches. Used by the tabulation
  /// so workers stop serialising on shard locks for every stored
  /// coalition.
  double value_buffered(game::Coalition coalition,
                        exec::CacheWriteBuffer& buffer) const;

  LocationSpace space_;
  DemandProfile demand_;
  std::shared_ptr<exec::ValueCache> cache_;
};

}  // namespace fedshare::model
