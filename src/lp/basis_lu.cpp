#include "lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>

namespace fedshare::lp {

namespace {

// A pivot below this aborts factorization as singular.
constexpr double kSingularTol = 1e-11;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

bool BasisLu::factorize(std::size_t m, const std::vector<std::size_t>& basic,
                        std::size_t n,
                        const std::vector<std::vector<ColEntry>>& cols) {
  m_ = m;
  clear_etas();
  pivots_.clear();
  off_.clear();
  k_ = 0;

  // Slack columns read as one-entry views into unit_.
  unit_.resize(m);
  for (std::size_t r = 0; r < m; ++r) unit_[r] = ColEntry{r, 1.0};
  const auto first = [&](std::size_t p) -> const ColEntry* {
    const std::size_t j = basic[p];
    return j < n ? cols[j].data() : &unit_[j - n];
  };
  const auto last = [&](std::size_t p) -> const ColEntry* {
    const std::size_t j = basic[p];
    return j < n ? cols[j].data() + cols[j].size() : &unit_[j - n] + 1;
  };

  // Nonzero counts over the active submatrix, and a row-wise index of
  // the basis (positions ascending within each row).
  col_count_.resize(m);
  row_count_.assign(m, 0);
  for (std::size_t p = 0; p < m; ++p) {
    col_count_[p] = static_cast<std::size_t>(last(p) - first(p));
    for (const ColEntry* e = first(p); e != last(p); ++e) ++row_count_[e->row];
  }
  row_start_.resize(m + 1);
  row_start_[0] = 0;
  for (std::size_t r = 0; r < m; ++r) {
    row_start_[r + 1] = row_start_[r] + row_count_[r];
  }
  row_pos_.resize(row_start_[m]);
  bump_slot_.assign(row_start_.begin(), row_start_.end() - 1);  // cursors
  for (std::size_t p = 0; p < m; ++p) {
    for (const ColEntry* e = first(p); e != last(p); ++e) {
      row_pos_[bump_slot_[e->row]++] = p;
    }
  }
  col_active_.assign(m, 1);
  row_active_.assign(m, 1);

  // Column singletons. Removing the pivot row can only lower the counts
  // of other columns; no remaining row loses an entry, because the
  // pivot column has none left outside its pivot row.
  queue_.clear();
  for (std::size_t p = 0; p < m; ++p) {
    if (col_count_[p] == 1) queue_.push_back(p);
  }
  for (std::size_t h = 0; h < queue_.size(); ++h) {
    const std::size_t p = queue_[h];
    if (!col_active_[p] || col_count_[p] != 1) continue;
    const ColEntry* piv = first(p);
    while (!row_active_[piv->row]) ++piv;
    if (std::abs(piv->value) < kSingularTol) return false;
    Pivot pv{piv->row, p, piv->value, off_.size(), 0};
    for (const ColEntry* e = first(p); e != last(p); ++e) {
      if (e != piv) off_.push_back(*e);
    }
    pv.end = off_.size();
    pivots_.push_back(pv);
    row_active_[pv.row] = 0;
    col_active_[p] = 0;
    for (std::size_t i = row_start_[pv.row]; i < row_start_[pv.row + 1]; ++i) {
      const std::size_t q = row_pos_[i];
      if (col_active_[q] && --col_count_[q] == 1) queue_.push_back(q);
    }
  }
  // The bump: remaining rows and positions, ascending. Every entry of
  // its columns outside the bump rows lies in a peeled row and goes to
  // the off list.
  bump_rows_.clear();
  bump_pos_.clear();
  bump_slot_.assign(m, kNone);
  for (std::size_t r = 0; r < m; ++r) {
    if (!row_active_[r]) continue;
    bump_slot_[r] = bump_rows_.size();
    bump_rows_.push_back(r);
  }
  for (std::size_t p = 0; p < m; ++p) {
    if (col_active_[p]) bump_pos_.push_back(p);
  }
  const std::size_t k = bump_rows_.size();
  k_ = k;
  bump_lu_.assign(k * k, 0.0);
  bump_off_.resize(k + 1);
  for (std::size_t j = 0; j < k; ++j) {
    bump_off_[j] = off_.size();
    const std::size_t p = bump_pos_[j];
    for (const ColEntry* e = first(p); e != last(p); ++e) {
      const std::size_t slot = bump_slot_[e->row];
      if (slot != kNone) {
        bump_lu_[slot * k + j] = e->value;
      } else {
        off_.push_back(*e);
      }
    }
  }
  bump_off_[k] = off_.size();

  // Dense LU of the bump with partial pivoting.
  double* lu = bump_lu_.data();
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t piv = c;
    double best = std::abs(lu[c * k + c]);
    for (std::size_t i = c + 1; i < k; ++i) {
      const double a = std::abs(lu[i * k + c]);
      if (a > best) {
        best = a;
        piv = i;
      }
    }
    if (best < kSingularTol) return false;
    if (piv != c) {
      std::swap_ranges(lu + piv * k, lu + piv * k + k, lu + c * k);
      std::swap(bump_rows_[piv], bump_rows_[c]);
    }
    const double pivot = lu[c * k + c];
    for (std::size_t i = c + 1; i < k; ++i) {
      const double f = lu[i * k + c] / pivot;
      lu[i * k + c] = f;
      if (f != 0.0) {
        for (std::size_t cc = c + 1; cc < k; ++cc) {
          lu[i * k + cc] -= f * lu[c * k + cc];
        }
      }
    }
  }

  stats_ = FactorStats{pivots_.size(), k};
  return true;
}

void BasisLu::ftran(std::vector<double>& v) const {
  // Back substitution on P B Q: the bump first, then the singletons in
  // reverse peel order. Each singleton fixes its position from its
  // pivot row, then clears its column's other entries, which all sit in
  // rows pivoted earlier.
  std::vector<double>& x = work_;
  x.resize(m_);
  const auto peel = [&](const Pivot& pv) {
    const double xp = v[pv.row] / pv.value;
    x[pv.pos] = xp;
    for (std::size_t i = pv.begin; i < pv.end; ++i) {
      v[off_[i].row] -= off_[i].value * xp;
    }
  };
  if (k_ > 0) {
    const std::size_t k = k_;
    const double* lu = bump_lu_.data();
    std::vector<double>& t = bump_work_;
    t.resize(k);
    for (std::size_t i = 0; i < k; ++i) t[i] = v[bump_rows_[i]];
    for (std::size_t i = 0; i < k; ++i) {
      double acc = t[i];
      for (std::size_t c = 0; c < i; ++c) acc -= lu[i * k + c] * t[c];
      t[i] = acc;
    }
    for (std::size_t ii = k; ii-- > 0;) {
      double acc = t[ii];
      for (std::size_t c = ii + 1; c < k; ++c) acc -= lu[ii * k + c] * t[c];
      t[ii] = acc / lu[ii * k + ii];
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double xp = t[j];
      x[bump_pos_[j]] = xp;
      for (std::size_t i = bump_off_[j]; i < bump_off_[j + 1]; ++i) {
        v[off_[i].row] -= off_[i].value * xp;
      }
    }
  }
  for (std::size_t i = pivots_.size(); i-- > 0;) peel(pivots_[i]);
  v.swap(x);
  apply_etas(v);
}

void BasisLu::apply_etas(std::vector<double>& v) const {
  for (const Eta& e : etas_) {
    const double p = v[e.row];
    if (p == 0.0) continue;
    v[e.row] = e.inv * p;
    for (std::size_t i = e.begin; i < e.end; ++i) {
      v[eta_entries_[i].row] += eta_entries_[i].value * p;
    }
  }
}

void BasisLu::btran(std::vector<double>& v) const {
  // Transposed etas in reverse order, then forward substitution on
  // (P B Q)^T: the singletons in peel order, then the bump.
  for (std::size_t ei = etas_.size(); ei-- > 0;) {
    const Eta& e = etas_[ei];
    double acc = e.inv * v[e.row];
    for (std::size_t i = e.begin; i < e.end; ++i) {
      acc += eta_entries_[i].value * v[eta_entries_[i].row];
    }
    v[e.row] = acc;
  }
  std::vector<double>& y = work_;
  y.resize(m_);
  const auto peel = [&](const Pivot& pv) {
    double acc = v[pv.pos];
    for (std::size_t i = pv.begin; i < pv.end; ++i) {
      acc -= off_[i].value * y[off_[i].row];
    }
    y[pv.row] = acc / pv.value;
  };
  for (const Pivot& pv : pivots_) peel(pv);
  if (k_ > 0) {
    // K = P^T L U, so K^T z = t is U^T s = t (forward), L^T r = s
    // (backward, unit diagonal), z = P^T r.
    const std::size_t k = k_;
    const double* lu = bump_lu_.data();
    std::vector<double>& t = bump_work_;
    t.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      double acc = v[bump_pos_[j]];
      for (std::size_t i = bump_off_[j]; i < bump_off_[j + 1]; ++i) {
        acc -= off_[i].value * y[off_[i].row];
      }
      t[j] = acc;
    }
    for (std::size_t i = 0; i < k; ++i) {
      double acc = t[i];
      for (std::size_t c = 0; c < i; ++c) acc -= lu[c * k + i] * t[c];
      t[i] = acc / lu[i * k + i];
    }
    for (std::size_t ii = k; ii-- > 0;) {
      double acc = t[ii];
      for (std::size_t c = ii + 1; c < k; ++c) acc -= lu[c * k + ii] * t[c];
      t[ii] = acc;
    }
    for (std::size_t i = 0; i < k; ++i) y[bump_rows_[i]] = t[i];
  }
  v.swap(y);
}

void BasisLu::ftran_panel(std::vector<double>& panel, std::size_t lanes,
                          std::vector<double>& work) const {
  // ftran() with every scalar step widened to a lane loop. ftran folds
  // into an `acc` register where this updates the slot in memory; the
  // sequence of subtractions per lane is the same.
  const std::size_t nl = lanes;
  work.resize(m_ * nl);
  double* v = panel.data();
  double* x = work.data();
  const auto peel = [&](const Pivot& pv) {
    const double* vr = v + pv.row * nl;
    double* xp = x + pv.pos * nl;
    for (std::size_t l = 0; l < nl; ++l) xp[l] = vr[l] / pv.value;
    for (std::size_t i = pv.begin; i < pv.end; ++i) {
      const double a = off_[i].value;
      double* vo = v + off_[i].row * nl;
      for (std::size_t l = 0; l < nl; ++l) vo[l] -= a * xp[l];
    }
  };
  if (k_ > 0) {
    const std::size_t k = k_;
    const double* lu = bump_lu_.data();
    std::vector<double>& tv = bump_work_;
    tv.resize(k * nl);
    double* t = tv.data();
    for (std::size_t i = 0; i < k; ++i) {
      const double* src = v + bump_rows_[i] * nl;
      std::copy(src, src + nl, t + i * nl);
    }
    for (std::size_t i = 0; i < k; ++i) {
      double* ti = t + i * nl;
      for (std::size_t c = 0; c < i; ++c) {
        const double a = lu[i * k + c];
        const double* tc = t + c * nl;
        for (std::size_t l = 0; l < nl; ++l) ti[l] -= a * tc[l];
      }
    }
    for (std::size_t ii = k; ii-- > 0;) {
      double* ti = t + ii * nl;
      for (std::size_t c = ii + 1; c < k; ++c) {
        const double a = lu[ii * k + c];
        const double* tc = t + c * nl;
        for (std::size_t l = 0; l < nl; ++l) ti[l] -= a * tc[l];
      }
      const double piv = lu[ii * k + ii];
      for (std::size_t l = 0; l < nl; ++l) ti[l] /= piv;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double* tj = t + j * nl;
      double* xp = x + bump_pos_[j] * nl;
      std::copy(tj, tj + nl, xp);
      for (std::size_t i = bump_off_[j]; i < bump_off_[j + 1]; ++i) {
        const double a = off_[i].value;
        double* vo = v + off_[i].row * nl;
        for (std::size_t l = 0; l < nl; ++l) vo[l] -= a * xp[l];
      }
    }
  }
  for (std::size_t i = pivots_.size(); i-- > 0;) peel(pivots_[i]);
  panel.swap(work);
  // A batch frame has an empty eta file (pivots invalidate it); the
  // roll-forward keeps the lanes exact should that invariant relax.
  for (const Eta& e : etas_) {
    for (std::size_t l = 0; l < nl; ++l) {
      const double p = panel[e.row * nl + l];
      if (p == 0.0) continue;
      panel[e.row * nl + l] = e.inv * p;
      for (std::size_t i = e.begin; i < e.end; ++i) {
        panel[eta_entries_[i].row * nl + l] += eta_entries_[i].value * p;
      }
    }
  }
}

void BasisLu::push_eta(std::size_t pos, const std::vector<double>& w) {
  const double pivot = w[pos];
  Eta e{pos, 1.0 / pivot, eta_entries_.size(), 0};
  for (std::size_t i = 0; i < m_; ++i) {
    if (i != pos && w[i] != 0.0) eta_entries_.push_back({i, -w[i] / pivot});
  }
  e.end = eta_entries_.size();
  etas_.push_back(e);
}

}  // namespace fedshare::lp
