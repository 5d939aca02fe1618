#include "model/federation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/pool.hpp"
#include "model/value.hpp"

namespace fedshare::model {

namespace {

// Masks per tabulation chunk — mirrors core/game.cpp's kTabulateChunk
// so the buffered tabulation below schedules exactly like
// game::tabulate.
constexpr std::uint64_t kTabulateChunk = 16;

// In-place monotone closure on the quotient lattice, level by level:
// V'(c) = max(V(c), max_t V'(c - e_t)). For a symmetric game this
// equals the full-lattice closure restricted to orbits — the subsets of
// any S with counts c cover exactly the count vectors c' <= c — and max
// is order-independent, so the closed quotient expands to exactly the
// closed full table.
void monotone_close_orbits(const game::OrbitIndex& index,
                           std::vector<double>& values) {
  const int n = index.num_players();
  std::vector<std::vector<std::uint64_t>> by_level(
      static_cast<std::size_t>(n) + 1);
  for (std::uint64_t orbit = 1; orbit < index.orbit_count(); ++orbit) {
    by_level[static_cast<std::size_t>(index.level(orbit))].push_back(orbit);
  }
  for (int lvl = 1; lvl <= n; ++lvl) {
    for (const std::uint64_t orbit : by_level[static_cast<std::size_t>(lvl)]) {
      double best = values[static_cast<std::size_t>(orbit)];
      for (int t = 0; t < index.num_types(); ++t) {
        if (const auto pred = index.predecessor(orbit, t)) {
          best = std::max(best, values[static_cast<std::size_t>(*pred)]);
        }
      }
      values[static_cast<std::size_t>(orbit)] = best;
    }
  }
}

}  // namespace

Federation::Federation(LocationSpace space, DemandProfile demand)
    : space_(std::move(space)),
      demand_(std::move(demand)),
      cache_(std::make_shared<exec::ValueCache>()) {
  demand_.validate();
}

double Federation::value(game::Coalition coalition) const {
  return cache_->value_or_compute(coalition.bits(), [&] {
    // Monotone closure: seed with the best strict-subset value so a
    // greedy dip never makes a larger coalition look worth less. The
    // recursion materialises the down-set through the same cache, so
    // each coalition's allocation still runs exactly once.
    double best = coalition_value(space_, demand_, coalition);
    for (const int i : coalition.members()) {
      best = std::max(best, value(coalition.without(i)));
    }
    return best;
  });
}

double Federation::raw_value(game::Coalition coalition) const {
  return coalition_value(space_, demand_, coalition);
}

double Federation::value_buffered(game::Coalition coalition,
                                  exec::CacheWriteBuffer& buffer) const {
  return buffer.value_or_compute(coalition.bits(), [&] {
    // Same monotone closure as value(); the down-set recursion flows
    // through the buffer, so subset values computed for this chunk are
    // reused from the local map without touching a shard lock.
    double best = coalition_value(space_, demand_, coalition);
    for (const int i : coalition.members()) {
      best = std::max(best, value_buffered(coalition.without(i), buffer));
    }
    return best;
  });
}

LpSweepResult Federation::relaxation_sweep(
    const LpSweepOptions& options) const {
  return lp_relaxation_sweep(space_, demand_, options);
}

game::TabularGame Federation::build_game() const {
  return *build_game_budgeted(
      game::PlayerPartition::identity(num_facilities()),
      runtime::ComputeBudget::unlimited());
}

game::PlayerPartition Federation::symmetry_partition(
    game::SymmetryMode mode) const {
  if (mode == game::SymmetryMode::kOff) {
    return game::PlayerPartition::identity(num_facilities());
  }
  game::PlayerPartition candidate = config_symmetry_partition(space_);
  if (mode == game::SymmetryMode::kAuto && !candidate.is_trivial()) {
    // The oracle samples the raw greedy V: the closed value would cost
    // 2^|S| allocations per probe, and closure preserves any symmetry
    // of the raw function.
    const game::FunctionGame raw(
        num_facilities(),
        [this](game::Coalition s) { return raw_value(s); });
    candidate = game::verified_partition(raw, candidate);
  }
  return candidate;
}

game::TabularGame Federation::build_game(game::SymmetryMode mode) const {
  return *build_game_budgeted(symmetry_partition(mode),
                              runtime::ComputeBudget::unlimited());
}

std::optional<game::TabularGame> Federation::build_game_budgeted(
    const game::PlayerPartition& partition,
    const runtime::ComputeBudget& budget) const {
  const int n = num_facilities();
  if (n > 24) {
    throw std::invalid_argument("tabulate: n must be <= 24");
  }
  if (partition.num_players() != n) {
    throw std::invalid_argument(
        "build_game_budgeted: partition must cover every facility");
  }
  if (partition.is_trivial()) {
    const std::uint64_t count = std::uint64_t{1} << n;
    std::vector<double> values(count);
    // Scheduled exactly like game::tabulate (each mask writes its own
    // slot), but each chunk stages its computed V(S) in a
    // CacheWriteBuffer and batch-stores per shard instead of taking one
    // shard lock per coalition. One unit per mask, as for any
    // FunctionGame: the closure recursion below it reads the memo.
    const bool ok = exec::parallel_for_budgeted(
        0, count, kTabulateChunk, budget,
        [&](const exec::ChunkRange& r, const runtime::ComputeBudget& b) {
          exec::CacheWriteBuffer buffer(*cache_);
          for (std::uint64_t mask = r.begin; mask < r.end; ++mask) {
            if (!b.charge()) return false;
            values[mask] =
                value_buffered(game::Coalition::from_bits(mask), buffer);
          }
          return true;  // buffer flushes on scope exit
        });
    if (!ok) return std::nullopt;
    return game::TabularGame(n, std::move(values));
  }
  const game::FunctionGame raw(
      n, [this](game::Coalition s) { return raw_value(s); });
  const game::QuotientGame quotient(raw, partition);
  auto orbit_values = quotient.orbit_values_budgeted(budget);
  if (!orbit_values) return std::nullopt;
  monotone_close_orbits(quotient.orbits(), *orbit_values);
  return game::expand_orbit_table(quotient.orbits(), *orbit_values);
}

std::vector<double> Federation::availability_weights() const {
  std::vector<double> weights;
  weights.reserve(static_cast<std::size_t>(num_facilities()));
  for (const auto& f : space_.facilities()) {
    weights.push_back(f.availability_weight());
  }
  return weights;
}

std::vector<double> Federation::consumption_weights() const {
  return model::consumption_weights(space_, demand_);
}

void Federation::set_demand(DemandProfile demand) {
  demand.validate();
  demand_ = std::move(demand);
  // Fresh cache rather than clear(): copies sharing the old cache keep
  // their (still valid) values for the old demand profile.
  cache_ = std::make_shared<exec::ValueCache>();
}

}  // namespace fedshare::model
