// Small dense row-major matrix of doubles.
//
// This is deliberately minimal: the simplex solver and the allocation
// LP-relaxation need contiguous storage, row operations, and little else.
#pragma once

#include <cstddef>
#include <vector>

namespace fedshare::lp {

/// Dense row-major matrix. Indices are checked in at(); operator() is not.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Unchecked element access.
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Checked element access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// row(r) += factor * row(src). Rows must be distinct and in range.
  void add_scaled_row(std::size_t r, std::size_t src, double factor);

  /// row(r) *= factor.
  void scale_row(std::size_t r, double factor);

  /// Pointer to the start of row r (contiguous cols() doubles).
  [[nodiscard]] double* row_data(std::size_t r) noexcept {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const double* row_data(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace fedshare::lp
