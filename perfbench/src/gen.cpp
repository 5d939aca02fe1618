#include "gen.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace perfbench {
namespace {

// std::mt19937_64 is fully specified by the standard, and only `rng() %
// k` is drawn from it (the <random> distributions are not), so a seed
// gives the same inputs with every standard library.
using Rng = std::mt19937_64;

// Report precision written into every generated config: enough digits
// that the checks can recompute Shapley and the core from the text.
constexpr int kReportPrecision = 12;

struct FacilityParams {
  int locations = 0;
  int units = 0;
  double availability = 1.0;
  auto key() const { return std::tie(locations, units, availability); }
};

struct DemandParams {
  int count_a = 0;
  int min_a = 0;
  int count_b = 0;
  int min_b = 0;
  int units_b = 0;
};

struct Range {
  int lo = 0;
  int hi = 0;
};

// Scale from configs/planetlab.ini, the repo's PlanetLab-style
// federation: its facilities hold 30 (EmanicsLab) to 300 (PLC)
// locations of 2-4 units each. The report workloads draw from that
// whole range; serve_churn from its smallest members (EmanicsLab 30 to
// G-Lab 60), because a serve event re-solves bound LPs with one row per
// location and costs about 1.6 s at a roster of 6 over the whole range. Availability spans the fedN family's 0.9 and
// planetlab.ini's 1.0.
constexpr Range kPlanetLab{30, 300};
constexpr Range kRegional{30, 60};
constexpr Range kUnits{2, 4};
constexpr std::array<double, 4> kAvailability{0.85, 0.9, 0.95, 1.0};

// planetlab.ini's first two demand archetypes, each drawn around its
// value there: P2P experiments (30 wanting 40 locations) and CDN-style
// services (5 wanting 100 locations at 4 units).
constexpr DemandParams kPlanetLabDemand{30, 40, 5, 100, 4};
constexpr Range kCountA{20, 40};
constexpr Range kMinA{20, 60};
constexpr Range kCountB{3, 8};
constexpr Range kMinB{60, 150};
constexpr Range kUnitsB{2, 4};

std::uint64_t pick(Rng& rng, std::uint64_t k) { return rng() % k; }

int pick_in(Rng& rng, Range r) {
  return r.lo +
         static_cast<int>(pick(rng, static_cast<std::uint64_t>(r.hi - r.lo + 1)));
}

// The k-th of n equal parts of r (one value wide when r has fewer than
// n values). The cost of a report or of a serve event grows steeply
// with the number of locations and shifts with the demand, so drawing
// each parameter of a set from its own part, instead of every one from
// the whole range, gives every seed the same spread and keeps seeds
// comparable.
Range stratum(Range r, std::size_t k, std::size_t n) {
  const auto span = static_cast<std::size_t>(r.hi - r.lo + 1);
  const int lo = r.lo + static_cast<int>(span * k / n);
  return {lo, std::max(lo, r.lo + static_cast<int>(span * (k + 1) / n) - 1)};
}

// A seeded order of 0..n-1.
std::vector<int> shuffled(Rng& rng, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[pick(rng, static_cast<std::uint64_t>(i) + 1)]);
  }
  return order;
}

FacilityParams random_facility(Rng& rng, Range locations) {
  FacilityParams f;
  f.locations = pick_in(rng, locations);
  f.units = pick_in(rng, kUnits);
  f.availability = kAvailability[pick(rng, kAvailability.size())];
  return f;
}

// Demand profile k of a set of n. Each parameter comes from its own
// stratum, paired by the fixed maps k, 3k+1, 5k+2 and 9k+3 (mod n), so
// the n profiles hold one value from every stratum of every range and
// mix small with large. The maps are one-to-one when n is prime to 3
// and 5.
DemandParams demand_profile(Rng& rng, std::size_t k, std::size_t n) {
  if (n % 3 == 0 || n % 5 == 0) {
    throw std::invalid_argument("demand profiles: n must be prime to 3 and 5");
  }
  DemandParams d;
  d.min_a = pick_in(rng, stratum(kMinA, k, n));
  d.count_a = pick_in(rng, stratum(kCountA, (3 * k + 1) % n, n));
  d.count_b = pick_in(rng, stratum(kCountB, (5 * k + 2) % n, n));
  d.min_b = pick_in(rng, stratum(kMinB, (9 * k + 3) % n, n));
  d.units_b = pick_in(rng, stratum(kUnitsB, k, n));
  return d;
}

void write_facility(std::ostream& out, const std::string& name,
                    const FacilityParams& f) {
  out << "[facility]\nname = " << name << "\nlocations = " << f.locations
      << "\nunits = " << f.units << "\navailability = " << f.availability
      << "\n\n";
}

void write_demand(std::ostream& out, const DemandParams& d) {
  out << "[demand]\ncount = " << d.count_a
      << "\nmin_locations = " << d.min_a << "\n\n"
      << "[demand]\ncount = " << d.count_b
      << "\nmin_locations = " << d.min_b << "\nunits = " << d.units_b
      << "\n\n"
      << "[options]\nprecision = " << kReportPrecision << "\n";
}

std::string demand_event(const DemandParams& d) {
  std::ostringstream out;
  out << "demand count=" << d.count_a << ",min_locations=" << d.min_a
      << ";count=" << d.count_b << ",min_locations=" << d.min_b
      << ",units=" << d.units_b;
  return out.str();
}

// Distinct streams per workload, so one seed does not give related
// inputs to two workloads.
Rng seeded(std::uint64_t seed, std::uint64_t workload) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(workload)};
  return Rng(seq);
}

}  // namespace

std::vector<ReportInput> hetero_inputs(std::uint64_t seed,
                                      std::size_t count) {
  constexpr std::size_t kFacilities = 6;
  Rng rng = seeded(seed, 1);
  std::vector<ReportInput> out;
  for (std::size_t k = 0; k < count; ++k) {
    // One facility from each sixth of the size range, so no two are
    // alike; which name gets which size turns with k.
    std::ostringstream text;
    for (std::size_t i = 0; i < kFacilities; ++i) {
      write_facility(
          text, "H" + std::to_string(i + 1),
          random_facility(rng, stratum(kPlanetLab, (i + k) % kFacilities,
                                       kFacilities)));
    }
    write_demand(text, demand_profile(rng, k, count));
    out.push_back({text.str(), {}});
  }
  return out;
}

std::vector<ReportInput> typed_inputs(std::uint64_t seed,
                                     std::size_t count) {
  constexpr int kPerType = 6;
  if (count % 2 == 1) {
    throw std::invalid_argument("typed_inputs: count must be even");
  }
  Rng rng = seeded(seed, 2);
  std::vector<ReportInput> out;
  for (std::size_t k = 0; k < count; ++k) {
    // Type sizes from strata k and 5k+3 (mod count), a fixed pairing
    // that mixes small with large types; for even count the two strata
    // differ, so the types differ.
    const std::array<FacilityParams, 2> types{
        random_facility(rng, stratum(kPlanetLab, k, count)),
        random_facility(rng, stratum(kPlanetLab, (5 * k + 3) % count, count))};
    // Interleave the two types so type membership is not a prefix.
    ReportInput input;
    std::ostringstream text;
    for (int i = 0; i < 2 * kPerType; ++i) {
      const int t = i % 2;
      input.type_of.push_back(t);
      write_facility(text, "T" + std::to_string(i + 1),
                     types[static_cast<std::size_t>(t)]);
    }
    write_demand(text, demand_profile(rng, k, count));
    input.text = text.str();
    out.push_back(std::move(input));
  }
  return out;
}

ChurnScript churn_script(std::uint64_t seed, int cycles) {
  constexpr int kRoster = 7;
  Rng rng = seeded(seed, 3);
  auto join = [](int i, const FacilityParams& f) {
    std::ostringstream out;
    out << "join name=S" << i + 1 << " locations=" << f.locations
        << " units=" << f.units << " availability=" << f.availability;
    return out.str();
  };
  // The log that recovery starts from is the same for every seed, so
  // set-up times one fixed recovery: planetlab.ini's demand, seven
  // joins spread evenly over the serve size range, then one outage
  // flap. The seed draws the cycles.
  std::vector<FacilityParams> roster;
  for (int i = 0; i < kRoster; ++i) {
    FacilityParams f;
    f.locations = kRegional.lo + (kRegional.hi - kRegional.lo) * i / (kRoster - 1);
    f.units = 2 + i % 3;
    f.availability = 0.9;
    roster.push_back(f);
  }
  ChurnScript script;
  script.prefix.push_back(demand_event(kPlanetLabDemand));
  for (int i = 0; i < kRoster; ++i) {
    script.prefix.push_back(join(i, roster[static_cast<std::size_t>(i)]));
  }
  script.suffix = {"outage-start name=S4 seed=1 scenario=0",
                   "outage-end name=S4"};

  for (int c = 0; c < cycles; ++c) {
    const std::vector<int> order = shuffled(rng, kRoster);
    // The cycle's rejoins draw one size from each seventh of the size
    // range, and its demand updates are the seven demand profiles.
    const std::vector<int> sizes = shuffled(rng, kRoster);
    const std::vector<int> demands = shuffled(rng, kRoster);
    std::vector<std::string> cycle;
    for (std::size_t j = 0; j < order.size(); ++j) {
      const int i = order[j];
      const std::string name = "S" + std::to_string(i + 1);
      cycle.push_back("outage-start name=" + name +
                      " seed=" + std::to_string(1 + pick(rng, 100000)) +
                      " scenario=" + std::to_string(pick(rng, 4)));
      cycle.push_back("outage-end name=" + name);
      cycle.push_back(demand_event(demand_profile(
          rng, static_cast<std::size_t>(demands[j]), kRoster)));
      cycle.push_back("leave name=" + name);
      FacilityParams next;
      do {
        next = random_facility(
            rng, stratum(kRegional, static_cast<std::size_t>(sizes[j]),
                         kRoster));
      } while (std::any_of(roster.begin(), roster.end(),
                           [&](const FacilityParams& g) {
                             return g.key() == next.key();
                           }));
      roster[static_cast<std::size_t>(i)] = next;
      cycle.push_back(join(i, next));
    }
    script.cycles.push_back(std::move(cycle));
  }
  return script;
}

}  // namespace perfbench
