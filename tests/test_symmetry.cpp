// Property tests for the symmetry-quotient engine (core/symmetry.hpp)
// and its model-layer wiring: orbit indexing, quotient-vs-brute-force
// equivalence, the detection oracle, budget charging, thread-count
// invariance, and the monotone-closure regression on the
// PlanetLab-style config.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/banzhaf.hpp"
#include "core/dividends.hpp"
#include "core/game.hpp"
#include "core/shapley.hpp"
#include "core/symmetry.hpp"
#include "exec/pool.hpp"
#include "model/federation.hpp"
#include "model/value.hpp"
#include "runtime/budget.hpp"
#include "sim/rng.hpp"

namespace fedshare::game {
namespace {

class SymmetryPropertyTest : public ::testing::Test {
 protected:
  void TearDown() override { fedshare::exec::set_threads(1); }
};

// A game whose value depends only on the per-type member counts — a
// symmetric game by construction. Two masks in the same orbit produce
// the *identical* double (same FP computation), so quotient expansion
// can be compared exactly.
FunctionGame typed_game(PlayerPartition partition, std::uint64_t seed) {
  const int n = partition.num_players();
  return FunctionGame(n, [partition, seed](Coalition s) {
    std::vector<int> counts(static_cast<std::size_t>(partition.num_types()),
                            0);
    for (const int i : s.members()) {
      ++counts[static_cast<std::size_t>(partition.type_of(i))];
    }
    double acc = 0.0;
    int total = 0;
    for (int t = 0; t < partition.num_types(); ++t) {
      const double c = counts[static_cast<std::size_t>(t)];
      acc += std::sqrt(c * (t + 2.0 + static_cast<double>(seed % 5)));
      total += counts[static_cast<std::size_t>(t)];
    }
    // Superadditive-ish cross term so marginals differ across levels.
    return acc + 0.125 * total * total;
  });
}

PlayerPartition random_partition(int n, sim::Xoshiro256& rng) {
  const int target_types = 1 + static_cast<int>(rng.below(
                                   static_cast<std::uint64_t>(n)));
  std::vector<int> type_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    type_of[static_cast<std::size_t>(i)] =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(target_types)));
  }
  return PlayerPartition::from_type_of(type_of);
}

TEST_F(SymmetryPropertyTest, ModeParsingRoundTrips) {
  EXPECT_EQ(symmetry_mode_from_string("off"), SymmetryMode::kOff);
  EXPECT_EQ(symmetry_mode_from_string("auto"), SymmetryMode::kAuto);
  EXPECT_EQ(symmetry_mode_from_string("exact"), SymmetryMode::kExact);
  EXPECT_FALSE(symmetry_mode_from_string("bogus").has_value());
  EXPECT_STREQ(to_string(SymmetryMode::kAuto), "auto");
}

TEST_F(SymmetryPropertyTest, PartitionRelabelsToFirstOccurrenceOrder) {
  const PlayerPartition p = PlayerPartition::from_type_of({7, 3, 7, 3, 9});
  EXPECT_EQ(p.num_types(), 3);
  EXPECT_EQ(p.type_of(0), 0);
  EXPECT_EQ(p.type_of(1), 1);
  EXPECT_EQ(p.type_of(2), 0);
  EXPECT_EQ(p.type_of(4), 2);
  EXPECT_EQ(p.members(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(p.multiplicity(1), 2);
  EXPECT_FALSE(p.is_trivial());
  EXPECT_EQ(p.orbit_count(), 3u * 3u * 2u);
  EXPECT_TRUE(PlayerPartition::identity(5).is_trivial());
}

TEST_F(SymmetryPropertyTest, OrbitIndexRoundTripsEveryMask) {
  sim::Xoshiro256 rng(0x0b17);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(9));  // 2..10
    const OrbitIndex index(random_partition(n, rng));
    const std::uint64_t size = std::uint64_t{1} << n;
    double total_orbit_size = 0.0;
    for (std::uint64_t orbit = 0; orbit < index.orbit_count(); ++orbit) {
      total_orbit_size += index.orbit_size(orbit);
      // representative lies in its own orbit at the right level.
      const std::uint64_t rep = index.representative(orbit);
      ASSERT_EQ(index.orbit_of(rep), orbit);
      ASSERT_EQ(std::popcount(rep), index.level(orbit));
      // counts round-trip through the mixed-radix id.
      const std::vector<int> c = index.counts(orbit);
      int level = 0;
      for (const int ct : c) level += ct;
      ASSERT_EQ(level, index.level(orbit));
    }
    // Orbit sizes partition the 2^n masks.
    ASSERT_EQ(total_orbit_size, static_cast<double>(size));
    for (std::uint64_t mask = 0; mask < size; ++mask) {
      const std::uint64_t orbit = index.orbit_of(mask);
      ASSERT_LT(orbit, index.orbit_count());
      const std::vector<int> c = index.counts(orbit);
      for (int t = 0; t < index.num_types(); ++t) {
        int expect = 0;
        for (const int member : index.partition().members(t)) {
          if (mask & (std::uint64_t{1} << member)) ++expect;
        }
        ASSERT_EQ(c[static_cast<std::size_t>(t)], expect);
      }
    }
  }
}

TEST_F(SymmetryPropertyTest, SuccessorPredecessorAreInverse) {
  const OrbitIndex index(PlayerPartition::from_type_of({0, 0, 0, 1, 1, 2}));
  for (std::uint64_t orbit = 0; orbit < index.orbit_count(); ++orbit) {
    const std::vector<int> c = index.counts(orbit);
    for (int t = 0; t < index.num_types(); ++t) {
      const int mt = index.partition().multiplicity(t);
      const auto up = index.successor(orbit, t);
      ASSERT_EQ(up.has_value(), c[static_cast<std::size_t>(t)] < mt);
      if (up) {
        ASSERT_EQ(index.level(*up), index.level(orbit) + 1);
        ASSERT_EQ(index.predecessor(*up, t), orbit);
      }
      const auto down = index.predecessor(orbit, t);
      ASSERT_EQ(down.has_value(), c[static_cast<std::size_t>(t)] > 0);
      if (down) {
        ASSERT_EQ(index.successor(*down, t), orbit);
      }
    }
  }
}

TEST_F(SymmetryPropertyTest, ChooseMatchesPascal) {
  const OrbitIndex index(PlayerPartition::from_type_of({0, 0, 0, 0, 1}));
  EXPECT_EQ(index.choose(0, 0), 1.0);
  EXPECT_EQ(index.choose(0, 1), 4.0);
  EXPECT_EQ(index.choose(0, 2), 6.0);
  EXPECT_EQ(index.choose(0, 3), 4.0);
  EXPECT_EQ(index.choose(0, 4), 1.0);
  EXPECT_EQ(index.choose(1, 1), 1.0);
}

TEST_F(SymmetryPropertyTest, QuotientExpansionMatchesBruteForceExactly) {
  sim::Xoshiro256 rng(0xf00d);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(10));  // 3..12
    const PlayerPartition partition = random_partition(n, rng);
    const FunctionGame base = typed_game(partition, rng.next());
    const QuotientGame quotient(base, partition);
    const TabularGame brute = tabulate(base);
    const TabularGame expanded = quotient.expand();
    // Same-orbit masks share one FP evaluation, so equality is exact.
    ASSERT_EQ(expanded.values(), brute.values())
        << "n=" << n << " types=" << partition.num_types();
    // Spot-check the Game interface too.
    ASSERT_EQ(quotient.value(Coalition::grand(n)), brute.grand_value());
    ASSERT_EQ(quotient.num_players(), n);
    // One LP-equivalent evaluation per orbit, not per mask.
    ASSERT_EQ(quotient.cache().misses(), quotient.orbits().orbit_count());
  }
}

TEST_F(SymmetryPropertyTest, QuotientShapleyMatchesSubsetFormula) {
  sim::Xoshiro256 rng(0x5a5a);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(9));  // 3..11
    const PlayerPartition partition = random_partition(n, rng);
    const FunctionGame base = typed_game(partition, rng.next());
    const QuotientGame quotient(base, partition);
    const std::vector<double> quick = quotient.shapley();
    const std::vector<double> slow = shapley_exact(base);
    ASSERT_EQ(quick.size(), slow.size());
    double scale = 1.0;
    for (const double phi : slow) scale = std::max(scale, std::abs(phi));
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(quick[static_cast<std::size_t>(i)],
                  slow[static_cast<std::size_t>(i)], 1e-9 * scale)
          << "n=" << n << " i=" << i;
    }
    // Symmetric players must receive *identical* payoffs (one value per
    // type replicated), not merely close ones.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (partition.type_of(i) == partition.type_of(j)) {
          ASSERT_EQ(quick[static_cast<std::size_t>(i)],
                    quick[static_cast<std::size_t>(j)]);
        }
      }
    }
  }
}

TEST_F(SymmetryPropertyTest, QuotientBanzhafAndDividendsMatchBruteForce) {
  sim::Xoshiro256 rng(0xbead);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(8));  // 3..10
    const PlayerPartition partition = random_partition(n, rng);
    const FunctionGame base = typed_game(partition, rng.next());
    const QuotientGame quotient(base, partition);
    const std::vector<double> quick = quotient.banzhaf_raw();
    const std::vector<double> slow = banzhaf_raw(base);
    double scale = 1.0;
    for (const double b : slow) scale = std::max(scale, std::abs(b));
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(quick[static_cast<std::size_t>(i)],
                  slow[static_cast<std::size_t>(i)], 1e-9 * scale);
    }
    // Dividends of the expanded table == dividends of the base game
    // (the expansion is value-for-value identical).
    ASSERT_EQ(harsanyi_dividends(quotient.expand()),
              harsanyi_dividends(base));
  }
}

TEST_F(SymmetryPropertyTest, ExpansionAndShapleyAreThreadCountInvariant) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 0, 1, 1, 1, 2, 2, 3});
  const FunctionGame base = typed_game(partition, 42);

  exec::set_threads(1);
  const QuotientGame q1(base, partition);
  const std::vector<double> values1 = q1.expand().values();
  const std::vector<double> shapley1 = q1.shapley();

  exec::set_threads(4);
  const QuotientGame q4(base, partition);
  EXPECT_EQ(values1, q4.expand().values());
  EXPECT_EQ(shapley1, q4.shapley());
}

TEST_F(SymmetryPropertyTest, BudgetChargesOneUnitPerOrbitAndCancels) {
  const PlayerPartition partition =
      PlayerPartition::from_type_of({0, 0, 0, 1, 1, 2});
  const FunctionGame base = typed_game(partition, 3);
  const std::uint64_t orbit_count = partition.orbit_count();

  {
    // Exactly orbit_count charges: one per orbit materialised.
    const QuotientGame quotient(base, partition);
    const runtime::ComputeBudget budget =
        runtime::ComputeBudget().cap_nodes(orbit_count);
    const auto values = quotient.orbit_values_budgeted(budget);
    ASSERT_TRUE(values.has_value());
    EXPECT_EQ(*values, quotient.orbit_values());
  }
  {
    const QuotientGame quotient(base, partition);
    const runtime::ComputeBudget tiny =
        runtime::ComputeBudget().cap_nodes(orbit_count - 1);
    EXPECT_FALSE(quotient.orbit_values_budgeted(tiny).has_value());
  }
  {
    // Already-cached orbits re-read for free: a zero budget succeeds
    // after a full unbudgeted materialisation.
    const QuotientGame quotient(base, partition);
    (void)quotient.orbit_values();
    const runtime::ComputeBudget zero = runtime::ComputeBudget().cap_nodes(0);
    EXPECT_TRUE(quotient.orbit_values_budgeted(zero).has_value());
    EXPECT_TRUE(quotient
                    .value_budgeted(Coalition::grand(partition.num_players()),
                                    zero)
                    .has_value());
  }
}

TEST_F(SymmetryPropertyTest, OracleAcceptsSymmetricGames) {
  sim::Xoshiro256 rng(0xacce);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(6));
    const PlayerPartition partition = random_partition(n, rng);
    const FunctionGame base = typed_game(partition, rng.next());
    EXPECT_TRUE(verify_symmetry(base, partition));
    const PlayerPartition verified = verified_partition(base, partition);
    EXPECT_EQ(verified.num_types(), partition.num_types());
  }
}

TEST_F(SymmetryPropertyTest, OracleRejectsFalseSymmetryClaims) {
  // Players have distinct per-player weights: no two are interchangeable.
  const int n = 5;
  const FunctionGame asymmetric(n, [](Coalition s) {
    double acc = 0.0;
    for (const int i : s.members()) acc += std::sqrt(2.0 + i);
    return acc * acc;
  });
  const PlayerPartition all_one =
      PlayerPartition::from_type_of({0, 0, 0, 0, 0});
  EXPECT_FALSE(verify_symmetry(asymmetric, all_one));
  EXPECT_TRUE(verified_partition(asymmetric, all_one).is_trivial());
}

TEST_F(SymmetryPropertyTest, OracleSplitsOnlyTheImpostor) {
  // Players 0 and 1 are interchangeable; player 2 only claims to be.
  const int n = 3;
  const FunctionGame partial(n, [](Coalition s) {
    double acc = 0.0;
    for (const int i : s.members()) acc += (i == 2) ? 2.0 : 1.0;
    return acc * std::sqrt(static_cast<double>(s.size()));
  });
  const PlayerPartition claim = PlayerPartition::from_type_of({0, 0, 0});
  EXPECT_FALSE(verify_symmetry(partial, claim));
  const PlayerPartition split = verified_partition(partial, claim);
  EXPECT_EQ(split.num_types(), 2);
  EXPECT_EQ(split.type_of(0), split.type_of(1));
  EXPECT_NE(split.type_of(0), split.type_of(2));
}

// ---------------------------------------------------------------------
// Model-layer wiring.

model::Federation typed_federation() {
  auto space = model::LocationSpace::disjoint({{"A1", 10, 2.0, 0.9},
                                               {"A2", 10, 2.0, 0.9},
                                               {"B1", 5, 3.0, 0.8},
                                               {"B2", 5, 3.0, 0.8}});
  return model::Federation(std::move(space),
                           model::DemandProfile::uniform(4, 12));
}

TEST_F(SymmetryPropertyTest, FederationDetectsEqualConfigs) {
  const model::Federation fed = typed_federation();
  EXPECT_TRUE(fed.symmetry_partition(SymmetryMode::kOff).is_trivial());
  const PlayerPartition exact = fed.symmetry_partition(SymmetryMode::kExact);
  EXPECT_EQ(exact.num_types(), 2);
  EXPECT_EQ(exact.type_of(0), exact.type_of(1));
  EXPECT_EQ(exact.type_of(2), exact.type_of(3));
  EXPECT_NE(exact.type_of(0), exact.type_of(2));
  // The greedy allocator really is symmetric here, so auto keeps the
  // grouping.
  const PlayerPartition checked = fed.symmetry_partition(SymmetryMode::kAuto);
  EXPECT_EQ(checked.num_types(), 2);
}

TEST_F(SymmetryPropertyTest, OverlappingSpaceDisablesConfigDetection) {
  // Identical configs over a shared universe: members are NOT
  // interchangeable in general (their location sets differ), so the
  // config detector must return the identity partition.
  auto space = model::LocationSpace::overlapping(
      {{"A1", 10, 2.0, 0.9}, {"A2", 10, 2.0, 0.9}}, 15, 1);
  const model::Federation fed(std::move(space),
                              model::DemandProfile::uniform(3, 8));
  EXPECT_TRUE(fed.symmetry_partition(SymmetryMode::kExact).is_trivial());
}

TEST_F(SymmetryPropertyTest, FederationQuotientMatchesFullTabulation) {
  const model::Federation fed = typed_federation();
  const TabularGame full = fed.build_game();
  const TabularGame quotient = fed.build_game(SymmetryMode::kExact);
  ASSERT_EQ(quotient.values().size(), full.values().size());
  for (std::size_t mask = 0; mask < full.values().size(); ++mask) {
    ASSERT_NEAR(quotient.values()[mask], full.values()[mask],
                1e-9 * (1.0 + std::abs(full.values()[mask])))
        << "mask=" << mask;
  }
  EXPECT_EQ(fed.build_game(SymmetryMode::kOff).values(), full.values());
}

TEST_F(SymmetryPropertyTest, FederationBudgetedQuotientMatchesAndTrips) {
  const model::Federation fed = typed_federation();
  const PlayerPartition exact = fed.symmetry_partition(SymmetryMode::kExact);
  const auto unlimited =
      fed.build_game_budgeted(exact, runtime::ComputeBudget::unlimited());
  ASSERT_TRUE(unlimited.has_value());
  EXPECT_EQ(unlimited->values(),
            fed.build_game(SymmetryMode::kExact).values());

  const model::Federation fresh = typed_federation();
  EXPECT_FALSE(
      fresh.build_game_budgeted(exact, runtime::ComputeBudget().cap_nodes(2))
          .has_value());
}

TEST_F(SymmetryPropertyTest, SweepQuotientMatchesFullSweep) {
  const model::Federation fed = typed_federation();
  model::LpSweepOptions off;
  const model::LpSweepResult full = fed.relaxation_sweep(off);
  model::LpSweepOptions quotient_opts;
  quotient_opts.symmetry = SymmetryMode::kExact;
  const model::LpSweepResult quotient = fed.relaxation_sweep(quotient_opts);
  ASSERT_TRUE(quotient.complete);
  ASSERT_EQ(quotient.values.size(), full.values.size());
  for (std::size_t mask = 0; mask < full.values.size(); ++mask) {
    ASSERT_NEAR(quotient.values[mask], full.values[mask],
                1e-7 * (1.0 + std::abs(full.values[mask])))
        << "mask=" << mask;
  }
  // 4 players as 2 types of 2: 9 orbits, 8 nonempty LPs vs 15.
  EXPECT_EQ(quotient.lps_solved, 8u);
  EXPECT_EQ(full.lps_solved, 15u);
}

// ---------------------------------------------------------------------
// Monotone-closure regression (the PlanetLab-style dip).

model::Federation planetlab_federation() {
  auto space = model::LocationSpace::disjoint({{"PLC", 300, 4.0},
                                               {"PLE-core", 150, 4.0},
                                               {"G-Lab", 60, 3.0},
                                               {"EmanicsLab", 30, 2.0},
                                               {"PLJ", 80, 3.0}});
  model::DemandProfile demand;
  demand.classes = {{30.0, 40.0, 1.0, 1.0},
                    {5.0, 100.0, 4.0, 1.0},
                    {10.0, 500.0, 2.0, 1.0}};
  return model::Federation(std::move(space), std::move(demand));
}

TEST_F(SymmetryPropertyTest, GreedyDipIsClosedToMonotone) {
  const model::Federation fed = planetlab_federation();
  // The raw greedy allocator dips on this config: adding PLE-core to
  // {PLC, PLJ} *lowers* the heuristic's value. This is the bug the
  // monotone closure exists for — pin that it is still present in the
  // raw function so the regression test keeps guarding something real.
  const double raw_pair = fed.raw_value(Coalition::of({0, 4}));
  const double raw_triple = fed.raw_value(Coalition::of({0, 1, 4}));
  EXPECT_GT(raw_pair, raw_triple);
  // The closed value must not dip.
  EXPECT_GE(fed.value(Coalition::of({0, 1, 4})),
            fed.value(Coalition::of({0, 4})));
  EXPECT_GE(fed.value(Coalition::of({0, 1, 4})), raw_pair);
}

TEST_F(SymmetryPropertyTest, ClosedGameIsMonotoneEverywhere) {
  const model::Federation fed = planetlab_federation();
  const TabularGame tab = fed.build_game();
  const std::vector<double>& v = tab.values();
  for (std::uint64_t mask = 1; mask < v.size(); ++mask) {
    for (int i = 0; i < tab.num_players(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if (!(mask & bit)) continue;
      ASSERT_GE(v[mask], v[mask ^ bit])
          << "dropping player " << i << " from mask " << mask
          << " raised the value";
    }
  }
}

}  // namespace
}  // namespace fedshare::game
