// Soft-margin support vector machine, trained by SMO.
//
// The paper compares its threshold detector against "a computationally
// expensive SVM" (Table 1). No external ML tooling is assumed: this is a
// from-scratch C-SVM with linear and RBF kernels, adequate for the
// paper's 2000-sample, 4-feature ground-truth problem and validated in
// tests against analytically separable cases.
//
// Solver: the LIBSVM decomposition method of Fan, Chen & Lin ("Working
// set selection using second order information for training SVM", JMLR
// 2005) on the dual
//
//   min f(a) = 1/2 a'Qa - e'a   s.t.  0 <= a_t <= C,  y'a = 0,
//
// with Q_ij = y_i y_j K(x_i, x_j) precomputed. The gradient G = Qa - e
// is cached and updated in O(n) per step from the two kernel rows.
//
//  - Working set (WSS2, second-order): i maximises -y_t G_t over I_up;
//    j minimises -b_it^2 / a_it over the t in I_low with
//    -y_t G_t < -y_i G_i, where b_it = -y_i G_i + y_t G_t and
//    a_it = K_ii + K_tt - 2 K_it. An a_it <= 0 (duplicate points) is
//    clamped to tau = 1e-12, as in LIBSVM.
//  - Stopping rule: the maximal KKT violation m(a) - M(a) <= tol, where
//    m = max_{I_up} -y_t G_t and M = min_{I_low} -y_t G_t.
//  - Bias: b = -rho, rho the mean of y_t G_t over the free vectors
//    (0 < a_t < C), or the midpoint of the feasible interval when none
//    is free.
//
// Training is deterministic: no step draws a random number.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace sybil::ml {

enum class Kernel { kLinear, kRbf };

struct SvmParams {
  Kernel kernel = Kernel::kRbf;
  double c = 10.0;        // soft-margin penalty
  double gamma = 0.5;     // RBF width (ignored for linear)
  double tol = 1e-3;      // stop when the KKT gap m(a) - M(a) <= tol
  std::size_t max_iterations = 1'000'000;  // safety cap on SMO steps
};

class SvmModel {
 public:
  /// Trains on the given (already scaled) dataset.
  static SvmModel train(const Dataset& data, const SvmParams& params);

  /// Decision value (distance-like score; positive → Sybil side).
  double decision(std::span<const double> row) const;

  /// Predicted label: kSybilLabel or kNormalLabel.
  int predict(std::span<const double> row) const {
    return decision(row) >= 0.0 ? kSybilLabel : kNormalLabel;
  }

  std::size_t support_vector_count() const noexcept { return sv_.size(); }
  /// Training-row index of each support vector, ascending.
  std::span<const std::size_t> support_indices() const noexcept {
    return sv_index_;
  }
  /// alpha_i * y_i of each support vector, in support_indices() order.
  std::span<const double> dual_coefficients() const noexcept {
    return sv_alpha_y_;
  }
  double bias() const noexcept { return b_; }
  /// SMO steps the solver took (at most params().max_iterations).
  std::size_t iterations() const noexcept { return iterations_; }
  const SvmParams& params() const noexcept { return params_; }

 private:
  double kernel(std::span<const double> a, std::span<const double> b) const;

  SvmParams params_;
  std::vector<std::vector<double>> sv_;     // support vectors
  std::vector<std::size_t> sv_index_;       // their training-row indices
  std::vector<double> sv_alpha_y_;          // alpha_i * y_i
  double b_ = 0.0;
  std::size_t iterations_ = 0;
};

}  // namespace sybil::ml
