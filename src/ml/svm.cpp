#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sybil::ml {

namespace {

// LIBSVM's stand-in for a non-positive curvature a_ij.
constexpr double kTau = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

double kernel_eval(Kernel k, double gamma, std::span<const double> a,
                   std::span<const double> b) {
  double acc = 0.0;
  if (k == Kernel::kLinear) {
    for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
    return acc;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::exp(-gamma * acc);
}

}  // namespace

double SvmModel::kernel(std::span<const double> a,
                        std::span<const double> b) const {
  return kernel_eval(params_.kernel, params_.gamma, a, b);
}

double SvmModel::decision(std::span<const double> row) const {
  double f = b_;
  for (std::size_t i = 0; i < sv_.size(); ++i) {
    f += sv_alpha_y_[i] * kernel(sv_[i], row);
  }
  return f;
}

SvmModel SvmModel::train(const Dataset& data, const SvmParams& params) {
  if (data.empty()) throw std::invalid_argument("svm: empty dataset");
  if (data.count_label(kSybilLabel) == 0 ||
      data.count_label(kNormalLabel) == 0) {
    throw std::invalid_argument("svm: need both classes");
  }
  const std::size_t n = data.size();
  const double c = params.c;

  // Precompute the kernel matrix: n is small (thousands) in every use of
  // this library, so O(n^2) memory buys a large constant-factor win.
  std::vector<double> k(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v =
          kernel_eval(params.kernel, params.gamma, data.row(i), data.row(j));
      k[i * n + j] = v;
      k[j * n + i] = v;
    }
  }

  std::vector<double> y(n);
  for (std::size_t t = 0; t < n; ++t) y[t] = data.label(t);
  std::vector<double> alpha(n, 0.0);
  std::vector<double> grad(n, -1.0);  // G = Q alpha - e at alpha = 0
  const auto in_up = [&](std::size_t t) {
    return y[t] > 0.0 ? alpha[t] < c : alpha[t] > 0.0;
  };
  const auto in_low = [&](std::size_t t) {
    return y[t] > 0.0 ? alpha[t] > 0.0 : alpha[t] < c;
  };

  std::size_t steps = 0;
  for (; steps < params.max_iterations; ++steps) {
    // WSS2: i is the maximal violator in I_up; j minimises the
    // second-order decrease bound among the I_low points that violate
    // against i. m - M is the KKT gap.
    std::size_t i = n;
    double m = -kInf;
    for (std::size_t t = 0; t < n; ++t) {
      if (in_up(t) && -y[t] * grad[t] >= m) {
        m = -y[t] * grad[t];
        i = t;
      }
    }
    if (i == n) break;
    const double* ki = &k[i * n];
    std::size_t j = n;
    double big_m = kInf, best = kInf;
    for (std::size_t t = 0; t < n; ++t) {
      if (!in_low(t)) continue;
      const double v = -y[t] * grad[t];
      big_m = std::min(big_m, v);
      const double b_it = m - v;
      if (b_it <= 0.0) continue;
      const double a_it = ki[i] + k[t * n + t] - 2.0 * ki[t];
      const double obj = -(b_it * b_it) / (a_it > 0.0 ? a_it : kTau);
      if (obj <= best) {
        best = obj;
        j = t;
      }
    }
    if (m - big_m <= params.tol || j == n) break;

    // Analytic two-variable step along y_i a_i + y_j a_j = const,
    // clipped to the box (LIBSVM Solver::Solve).
    const double* kj = &k[j * n];
    const double ai_old = alpha[i], aj_old = alpha[j];
    double quad = ki[i] + kj[j] - 2.0 * ki[j];
    if (quad <= 0.0) quad = kTau;
    if (y[i] != y[j]) {
      const double delta = (-grad[i] - grad[j]) / quad;
      const double diff = ai_old - aj_old;
      alpha[i] += delta;
      alpha[j] += delta;
      if (diff > 0.0) {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = diff;
        }
        if (alpha[i] > c) {
          alpha[i] = c;
          alpha[j] = c - diff;
        }
      } else {
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = -diff;
        }
        if (alpha[j] > c) {
          alpha[j] = c;
          alpha[i] = c + diff;
        }
      }
    } else {
      const double delta = (grad[i] - grad[j]) / quad;
      const double sum = ai_old + aj_old;
      alpha[i] -= delta;
      alpha[j] += delta;
      if (sum > c) {
        if (alpha[i] > c) {
          alpha[i] = c;
          alpha[j] = sum - c;
        }
        if (alpha[j] > c) {
          alpha[j] = c;
          alpha[i] = sum - c;
        }
      } else {
        if (alpha[j] < 0.0) {
          alpha[j] = 0.0;
          alpha[i] = sum;
        }
        if (alpha[i] < 0.0) {
          alpha[i] = 0.0;
          alpha[j] = sum;
        }
      }
    }

    // Gradient cache: G_t += Q_ti dA_i + Q_tj dA_j.
    const double di = y[i] * (alpha[i] - ai_old);
    const double dj = y[j] * (alpha[j] - aj_old);
    for (std::size_t t = 0; t < n; ++t) {
      grad[t] += y[t] * (ki[t] * di + kj[t] * dj);
    }
  }

  // rho from the free vectors; with none free, the midpoint of the
  // interval the bound vectors leave for it.
  double upper = kInf, lower = -kInf, free_sum = 0.0;
  std::size_t free = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yg = y[t] * grad[t];
    const bool at_upper = alpha[t] >= c;
    const bool at_lower = alpha[t] <= 0.0;
    if (!at_upper && !at_lower) {
      free_sum += yg;
      ++free;
    } else if (at_upper == (y[t] < 0.0)) {
      upper = std::min(upper, yg);
    } else {
      lower = std::max(lower, yg);
    }
  }
  const double rho = free > 0 ? free_sum / static_cast<double>(free)
                              : (upper + lower) / 2.0;

  SvmModel model;
  model.params_ = params;
  model.b_ = -rho;
  model.iterations_ = steps;
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 0.0) {
      const auto row = data.row(t);
      model.sv_.emplace_back(row.begin(), row.end());
      model.sv_index_.push_back(t);
      model.sv_alpha_y_.push_back(alpha[t] * y[t]);
    }
  }
  return model;
}

}  // namespace sybil::ml
