// fuzz_lp — differential fuzzer for the simplex engines.
//
// Generates random LPs on a small coefficient grid. Every case seed
// yields one LP of each of three shapes:
//  * general: up to 6 x 6, mixed relations, free variables;
//  * excess: tall LPs like the nucleolus and least-core chains, many
//    >=-rows over a few columns plus a free epsilon column, so the
//    revised engine's basis factorization keeps a non-empty dense bump;
//  * capacity: separable LPs like the allocation relaxation, each
//    structural column in one capacity row plus singleton caps, so the
//    basis peels to a permuted triangle with no bump.
// Each LP is solved three ways: dense two-phase tableau, revised
// simplex from a cold basis, and revised simplex warm-started from the
// optimal basis of an rhs-perturbed neighbour. Any disagreement — status
// mismatch, objective divergence, or a certificate
// (verify/certificates.hpp) that fails on a claimed answer — is a bug in
// at least one engine, and the harness prints a self-contained
// reproduction and exits non-zero.
//
// Usage: fuzz_lp [--seconds N] [--cases N] [--seed S]
//   --seconds N   wall-clock budget (default 10; 0 = no time limit)
//   --cases N     max case seeds (default unlimited; 0 = unlimited)
//   --seed S      base RNG seed (default 1); case k uses seed S + k
//
// tools/check.sh runs `fuzz_lp --seconds 10` as a smoke gate.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "verify/certificates.hpp"

namespace {

using fedshare::lp::Objective;
using fedshare::lp::Problem;
using fedshare::lp::Relation;
using fedshare::lp::SimplexOptions;
using fedshare::lp::Solution;
using fedshare::lp::SolveStatus;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform integer in [0, bound).
std::uint64_t pick(std::uint64_t& rng, std::uint64_t bound) {
  return splitmix64(rng) % bound;
}

// Coefficients live on the grid {-4, -3.5, ..., 4}: small enough that
// both engines are numerically comfortable, rich enough (halves, mixed
// signs, zeros) to reach degenerate and infeasible corners.
double grid(std::uint64_t& rng) {
  return (static_cast<double>(pick(rng, 17)) - 8.0) / 2.0;
}

struct Case {
  Problem problem;
  // The rhs-perturbed neighbour solved first to seed the warm start.
  std::vector<double> neighbour_rhs;
};

// Excess shape: minimize epsilon over >=-rows x(S) + epsilon >= b_S, with
// an optional efficiency row x(N) == b_N.
Case make_excess_case(std::uint64_t& rng) {
  const std::size_t k = 1 + pick(rng, 4);
  const std::size_t m = 8 + pick(rng, 33);
  Problem p(k + 1, Objective::kMinimize);
  p.set_objective_coefficient(k, 1.0);
  p.set_free(k);
  for (std::size_t j = 0; j < k; ++j) {
    if (pick(rng, 2) == 0) p.set_free(j);
    if (pick(rng, 4) == 0) p.set_objective_coefficient(j, grid(rng) / 4.0);
  }
  Case c{std::move(p), {}};
  const auto add = [&](std::vector<double> coef, Relation rel, double rhs) {
    c.neighbour_rhs.push_back(rhs + (static_cast<double>(pick(rng, 5)) - 2.0));
    c.problem.add_constraint(std::move(coef), rel, rhs);
  };
  if (pick(rng, 2) == 0) {
    std::vector<double> eff(k + 1, 1.0);
    eff[k] = 0.0;
    add(std::move(eff), Relation::kEqual, 2.0 * grid(rng));
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coef(k + 1, 0.0);
    const std::uint64_t mask = 1 + pick(rng, (std::uint64_t{1} << k) - 1);
    for (std::size_t j = 0; j < k; ++j) {
      if ((mask >> j) & 1U) coef[j] = pick(rng, 4) == 0 ? grid(rng) : 1.0;
    }
    coef[k] = 1.0;
    add(std::move(coef), Relation::kGreaterEqual, grid(rng));
  }
  return c;
}

// Capacity shape: maximize sum_c w_c y_{c,l} s.t. sum_c r_c y_{c,l} <= cap_l
// per location l and y_{c,l} <= count_c.
Case make_capacity_case(std::uint64_t& rng) {
  const std::size_t locations = 2 + pick(rng, 11);
  const std::size_t classes = 1 + pick(rng, 3);
  const std::size_t n = classes * locations;
  Problem p(n, Objective::kMaximize);
  std::vector<double> units(classes), count(classes);
  for (std::size_t cl = 0; cl < classes; ++cl) {
    const double w = 0.5 + static_cast<double>(pick(rng, 8)) / 2.0;
    units[cl] = 0.5 + static_cast<double>(pick(rng, 8)) / 2.0;
    count[cl] = static_cast<double>(pick(rng, 6));
    for (std::size_t l = 0; l < locations; ++l) {
      p.set_objective_coefficient(cl * locations + l, w);
    }
  }
  Case c{std::move(p), {}};
  const auto add = [&](std::vector<double> coef, double rhs) {
    c.neighbour_rhs.push_back(rhs + (static_cast<double>(pick(rng, 5)) - 2.0));
    c.problem.add_constraint(std::move(coef), Relation::kLessEqual, rhs);
  };
  for (std::size_t l = 0; l < locations; ++l) {
    std::vector<double> coef(n, 0.0);
    for (std::size_t cl = 0; cl < classes; ++cl) {
      coef[cl * locations + l] = units[cl];
    }
    const double cap =
        pick(rng, 8) == 0 ? grid(rng) : 2.0 * (grid(rng) + 4.0);
    add(std::move(coef), cap);
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<double> coef(n, 0.0);
    coef[v] = 1.0;
    add(std::move(coef), count[v / locations]);
  }
  return c;
}

// General shape.
Case make_general_case(std::uint64_t& rng) {
  const std::size_t n = 1 + pick(rng, 6);
  const std::size_t m = 1 + pick(rng, 6);
  const Objective sense =
      pick(rng, 2) == 0 ? Objective::kMaximize : Objective::kMinimize;
  Problem p(n, sense);
  for (std::size_t j = 0; j < n; ++j) {
    p.set_objective_coefficient(j, grid(rng));
    if (pick(rng, 5) == 0) p.set_free(j);
  }
  Case c{std::move(p), {}};
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> coef(n);
    for (auto& v : coef) v = grid(rng);
    const Relation rel = static_cast<Relation>(pick(rng, 3));
    const double rhs = grid(rng);
    c.neighbour_rhs.push_back(rhs + (static_cast<double>(pick(rng, 5)) - 2.0));
    c.problem.add_constraint(std::move(coef), rel, rhs);
  }
  return c;
}

enum class Shape { kGeneral, kExcess, kCapacity };
constexpr Shape kShapes[] = {Shape::kGeneral, Shape::kExcess,
                             Shape::kCapacity};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kExcess: return "excess";
    case Shape::kCapacity: return "capacity";
    default: return "general";
  }
}

Case make_case(Shape shape, std::uint64_t seed) {
  std::uint64_t rng = seed;
  switch (shape) {
    case Shape::kExcess: return make_excess_case(rng);
    case Shape::kCapacity: return make_capacity_case(rng);
    default: return make_general_case(rng);
  }
}

void dump(const Problem& p, std::ostream& out) {
  out << (p.sense() == Objective::kMaximize ? "maximize" : "minimize");
  for (double cj : p.objective()) out << ' ' << cj;
  out << '\n';
  for (const auto& con : p.constraints()) {
    out << "  ";
    for (double a : con.coefficients) out << a << ' ';
    out << (con.relation == Relation::kLessEqual
                ? "<="
                : con.relation == Relation::kEqual ? "==" : ">=")
        << ' ' << con.rhs << '\n';
  }
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    if (p.is_free(j)) out << "  free x" << j << '\n';
  }
}

const char* status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    default: return "limit";
  }
}

// A status the harness can compare: limits (iteration/budget) carry no
// claim, so cases hitting one are skipped, not failed.
bool comparable(SolveStatus s) {
  return s == SolveStatus::kOptimal || s == SolveStatus::kInfeasible ||
         s == SolveStatus::kUnbounded;
}

struct Failure {
  std::string what;
};

// Checks one claimed answer's certificate. Empty certificate vectors
// mean "no witness produced", which the engines are allowed to do in
// rare corners — only a *failing* witness is a bug.
bool certificate_ok(const Problem& p, const Solution& s, std::string& why) {
  const auto report = fedshare::verify::check_lp(p, s, 1e-7);
  if (report.checked && !report.valid) {
    why = report.detail + " (residual " + std::to_string(report.max_residual) +
          ")";
    return false;
  }
  return true;
}

// Cases whose warm start factorized a basis with a dense bump.
std::uint64_t bump_cases = 0;

bool run_case(const Case& c, Failure& failure) {
  SimplexOptions dense_opts;
  dense_opts.solver = fedshare::lp::SolverKind::kDense;
  const Solution dense = fedshare::lp::solve(c.problem, dense_opts);

  fedshare::lp::RevisedSimplex cold(c.problem);
  const Solution revised = cold.solve();

  // Warm start: solve the rhs-perturbed neighbour cold, then patch back
  // to the real rhs and re-solve from the neighbour's optimal basis.
  fedshare::lp::RevisedSimplex warm_engine(c.problem);
  for (std::size_t i = 0; i < c.neighbour_rhs.size(); ++i) {
    warm_engine.set_constraint_rhs(i, c.neighbour_rhs[i]);
  }
  (void)warm_engine.solve();
  const fedshare::lp::Basis basis = warm_engine.basis();
  for (std::size_t i = 0; i < c.neighbour_rhs.size(); ++i) {
    warm_engine.set_constraint_rhs(i, c.problem.constraints()[i].rhs);
  }
  const Solution warm = warm_engine.solve_from_basis(basis);
  if (warm_engine.factor_stats().bump > 0) ++bump_cases;

  if (!comparable(dense.status) || !comparable(revised.status) ||
      !comparable(warm.status)) {
    return true;  // a limit tripped; nothing to compare
  }

  const struct {
    const char* name;
    const Solution* s;
  } answers[] = {{"dense", &dense}, {"revised", &revised}, {"warm", &warm}};

  for (const auto& a : answers) {
    std::string why;
    if (!certificate_ok(c.problem, *a.s, why)) {
      failure.what = std::string(a.name) + " certificate invalid: " + why;
      return false;
    }
  }
  for (const auto& a : answers) {
    if (a.s->status != dense.status) {
      failure.what = std::string("status mismatch: dense=") +
                     status_name(dense.status) + " " + a.name + "=" +
                     status_name(a.s->status);
      return false;
    }
  }
  if (dense.status == SolveStatus::kOptimal) {
    double scale = 1.0;
    for (double cj : c.problem.objective()) {
      scale = std::max(scale, std::abs(cj));
    }
    for (const auto& a : answers) {
      if (std::abs(a.s->objective - dense.objective) > 1e-6 * scale * 8.0) {
        failure.what = std::string("objective mismatch: dense=") +
                       std::to_string(dense.objective) + " " + a.name + "=" +
                       std::to_string(a.s->objective);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 10.0;
  std::uint64_t max_cases = 0;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> double {
      if (i + 1 >= argc) {
        std::cerr << "fuzz_lp: " << flag << " needs a value\n";
        std::exit(2);
      }
      return std::strtod(argv[++i], nullptr);
    };
    if (arg == "--seconds") {
      seconds = value("--seconds");
    } else if (arg == "--cases") {
      max_cases = static_cast<std::uint64_t>(value("--cases"));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(value("--seed"));
    } else {
      std::cerr << "usage: fuzz_lp [--seconds N] [--cases N] [--seed S]\n";
      return 2;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::uint64_t cases = 0;
  while ((max_cases == 0 || cases < max_cases) &&
         (seconds <= 0.0 || elapsed() < seconds)) {
    const std::uint64_t case_seed = seed + cases;
    for (const Shape shape : kShapes) {
      Failure failure;
      const Case c = make_case(shape, case_seed);
      if (!run_case(c, failure)) {
        std::cerr << "fuzz_lp: FAILED at case " << cases << " (seed "
                  << case_seed << ", " << shape_name(shape)
                  << " shape): " << failure.what << "\n";
        std::cerr << "reproduce with: fuzz_lp --seed " << case_seed
                  << " --cases 1 --seconds 0\n";
        dump(c.problem, std::cerr);
        return 1;
      }
    }
    ++cases;
  }
  std::cout << "fuzz_lp: " << cases << " case seeds x 3 shapes ("
            << bump_cases << " LPs warm-started on a basis with a dense "
            << "bump), 3 engines each, no disagreements\n";
  return 0;
}
