// Sparse LU of a simplex basis by triangle peeling, plus the product-form
// eta file that updates it between refactorizations.
//
// The bases the product LPs produce are almost all slack or singleton
// columns: the relaxation LP's basis is a permuted diagonal (every basic
// y_{c,l} has its one nonzero in capacity row l), and the excess LPs of
// the nucleolus and the least core carry at most n+1 structural columns
// next to thousands of slacks. A dense m x m LU throws nearly all of its
// O(m^3) factorization and O(m^2) per solve away on such bases.
//
// factorize() instead peels the basis into block upper-triangular form
// P B Q = [U1 X; 0 K]:
//  * column singletons (a column with one nonzero among the remaining
//    rows: every slack, and structural columns left with one entry) are
//    pivoted first, in FIFO order seeded by ascending basis position;
//  * the k x k bump K left over (rows ascending, positions ascending) is
//    LU-factored densely with partial pivoting. k is 0 on the relaxation
//    LPs and at most the number of basic structurals on excess LPs.
// L and U stay sparse (the peeled columns keep their own entries), so an
// FTRAN or BTRAN costs O(nnz(B) + k^2) instead of O(m^2). Each eta keeps
// only the nonzeros of the ftran'd entering column.
//
// Purity contract: factorize() is a deterministic function of (m, the
// basic column list, the column data). No hashing, no allocation-order
// dependence. BatchSolver relies on this to hand one engine's factors to
// another engine that adopted the same basic set (spill seeding), and
// ftran_panel() relies on the factors being shared read-only.
#pragma once

#include <cstddef>
#include <vector>

namespace fedshare::lp {

/// One nonzero of a sparse column.
struct ColEntry {
  std::size_t row = 0;
  double value = 0.0;
};

/// Shape of the most recent successful factorization.
struct FactorStats {
  std::size_t peeled = 0;  ///< pivots taken as column singletons
  std::size_t bump = 0;    ///< order k of the densely factored remainder
};

class BasisLu {
 public:
  /// Factors the m x m basis whose position p holds column basic[p]:
  /// columns j < n are `cols[j]` (entries sorted by row), columns j >= n
  /// are slacks with a unit at row j - n. Clears the eta file. Returns
  /// false when a singleton pivot or a bump pivot falls below the
  /// singularity tolerance; the factors are then unusable.
  bool factorize(std::size_t m, const std::vector<std::size_t>& basic,
                 std::size_t n, const std::vector<std::vector<ColEntry>>& cols);

  /// Solves B x = v in place: `v` enters indexed by row and leaves
  /// indexed by basis position (eta updates applied).
  void ftran(std::vector<double>& v) const;
  /// Solves B^T y = v in place: `v` enters indexed by basis position and
  /// leaves indexed by row (eta updates applied).
  void btran(std::vector<double>& v) const;
  /// ftran() on `lanes` right-hand sides at once. `panel` is slot-major
  /// (slot s of lane l at panel[s * lanes + l]); every lane performs
  /// exactly ftran()'s operations in ftran()'s order, so each lane is
  /// bitwise the scalar result. The lane loop is innermost, so it
  /// vectorizes. `work` is scratch.
  void ftran_panel(std::vector<double>& panel, std::size_t lanes,
                   std::vector<double>& work) const;

  /// Records the product-form update for a pivot at basis position `pos`
  /// whose ftran'd entering column is `w`.
  void push_eta(std::size_t pos, const std::vector<double>& w);
  [[nodiscard]] std::size_t num_etas() const noexcept { return etas_.size(); }
  void clear_etas() noexcept {
    etas_.clear();
    eta_entries_.clear();
  }

  [[nodiscard]] const FactorStats& stats() const noexcept { return stats_; }

 private:
  // A singleton pivot: column at basis position `pos` pivots on `row`
  // with value `value`; its other entries are off_[begin, end).
  struct Pivot {
    std::size_t row = 0;
    std::size_t pos = 0;
    double value = 0.0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  // A product-form eta: x[row] = inv * p, x[i] += c * p over entries
  // eta_entries_[begin, end), where p is the incoming x[row].
  struct Eta {
    std::size_t row = 0;
    double inv = 0.0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void apply_etas(std::vector<double>& v) const;

  std::size_t m_ = 0;
  // Column-singleton pivots in peel order.
  std::vector<Pivot> pivots_;
  std::vector<ColEntry> off_;
  // The bump: slot i of the dense LU takes row bump_rows_[i] (partial
  // pivoting applied) and column j is basis position bump_pos_[j], whose
  // entries outside the bump rows are off_[bump_off_[j], bump_off_[j+1]).
  std::size_t k_ = 0;
  std::vector<std::size_t> bump_rows_;
  std::vector<std::size_t> bump_pos_;
  std::vector<std::size_t> bump_off_;
  std::vector<double> bump_lu_;  ///< k x k row-major, L unit-diagonal

  std::vector<Eta> etas_;
  std::vector<ColEntry> eta_entries_;
  FactorStats stats_;

  // Factorization scratch (contents never influence the factors).
  std::vector<std::size_t> col_count_, row_count_, row_start_, row_pos_,
      queue_, bump_slot_;
  std::vector<char> col_active_, row_active_;
  std::vector<ColEntry> unit_;  ///< unit_[r]: the slack column of row r
  // Solve scratch. Engines are driven by one thread at a time, so
  // mutable scratch inside the const solves is safe.
  mutable std::vector<double> work_, bump_work_;
};

}  // namespace fedshare::lp
