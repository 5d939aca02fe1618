#include "lp/matrix.hpp"

#include <stdexcept>

namespace fedshare::lp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at: index out of range");
  }
  return (*this)(r, c);
}

void Matrix::add_scaled_row(std::size_t r, std::size_t src, double factor) {
  if (r >= rows_ || src >= rows_) {
    throw std::out_of_range("Matrix::add_scaled_row: row out of range");
  }
  double* dst = row_data(r);
  const double* s = row_data(src);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] += factor * s[c];
}

void Matrix::scale_row(std::size_t r, double factor) {
  if (r >= rows_) {
    throw std::out_of_range("Matrix::scale_row: row out of range");
  }
  double* dst = row_data(r);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] *= factor;
}

}  // namespace fedshare::lp
