#include "ml/svm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/ground_truth.h"
#include "ml/scaler.h"
#include "osn/simulator.h"
#include "stats/distributions.h"

namespace sybil::ml {
namespace {

Dataset linearly_separable(std::size_t per_class, stats::Rng& rng) {
  Dataset d(2);
  for (std::size_t i = 0; i < per_class; ++i) {
    d.add(std::vector<double>{stats::sample_normal(rng, 2.0, 0.5),
                              stats::sample_normal(rng, 2.0, 0.5)},
          kSybilLabel);
    d.add(std::vector<double>{stats::sample_normal(rng, -2.0, 0.5),
                              stats::sample_normal(rng, -2.0, 0.5)},
          kNormalLabel);
  }
  return d;
}

Dataset xor_dataset() {
  Dataset d(2);
  stats::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    const double y = rng.uniform(-1.0, 1.0);
    if (std::abs(x) < 0.1 || std::abs(y) < 0.1) continue;  // margin gap
    d.add(std::vector<double>{x, y},
          (x > 0) == (y > 0) ? kSybilLabel : kNormalLabel);
  }
  return d;
}

/// Linearly separable Gaussians with ~5% of the labels flipped.
Dataset noisy_linear(std::uint64_t seed) {
  stats::Rng rng(seed);
  const Dataset clean = linearly_separable(100, rng);
  Dataset noisy(2);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    int label = clean.label(i);
    if (rng.bernoulli(0.05)) label = -label;
    noisy.add(clean.row(i), label);
  }
  return noisy;
}

/// One Table 1 training set at reduced scale: the four features of a
/// small ground-truth simulation, standardised as the pipeline does.
Dataset pipeline_dataset() {
  osn::GroundTruthConfig c;
  c.background_users = 3000;
  c.subject_normals = 120;
  c.subject_sybils = 120;
  c.sim_hours = 200.0;
  c.seed = 42;
  osn::GroundTruthSimulator sim(c);
  sim.run();
  const Dataset raw = core::build_ground_truth_dataset(
      sim.network(), sim.subject_normals(), sim.subject_sybils());
  StandardScaler scaler;
  scaler.fit(raw);
  return scaler.transform(raw);
}

/// The dual variable of every training row, read back from the model.
std::vector<double> alphas_of(const SvmModel& model, std::size_t n) {
  std::vector<double> alpha(n, 0.0);
  for (std::size_t s = 0; s < model.support_vector_count(); ++s) {
    alpha.at(model.support_indices()[s]) =
        std::abs(model.dual_coefficients()[s]);
  }
  return alpha;
}

/// m(a) - M(a), recomputed from the model: with f(x) = decision(x) - b,
/// the dual gradient is G_t = y_t f(x_t) - 1, so -y_t G_t = y_t - f(x_t).
double kkt_gap(const SvmModel& model, const Dataset& data) {
  const double c = model.params().c;
  const std::vector<double> alpha = alphas_of(model, data.size());
  double m = -std::numeric_limits<double>::infinity();
  double big_m = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < data.size(); ++t) {
    const double y = data.label(t);
    const double v = y - (model.decision(data.row(t)) - model.bias());
    const bool up = y > 0 ? alpha[t] < c : alpha[t] > 0.0;
    const bool low = y > 0 ? alpha[t] > 0.0 : alpha[t] < c;
    if (up) m = std::max(m, v);
    if (low) big_m = std::min(big_m, v);
  }
  return m - big_m;
}

/// The dual objective e'a - 1/2 a'Qa that SMO maximises, from the model:
/// a'Qa = sum_s (a_s y_s) (decision(x_s) - b) over the support vectors.
double dual_objective(const SvmModel& model, const Dataset& data) {
  double sum_alpha = 0.0, quad = 0.0;
  for (std::size_t s = 0; s < model.support_vector_count(); ++s) {
    const double coef = model.dual_coefficients()[s];
    const auto row = data.row(model.support_indices()[s]);
    sum_alpha += std::abs(coef);
    quad += coef * (model.decision(row) - model.bias());
  }
  return sum_alpha - 0.5 * quad;
}

/// A valid model: every a_t in [0, C], y'a = 0, finite bias and
/// decisions.
void expect_valid(const SvmModel& model, const Dataset& data) {
  const double c = model.params().c;
  double balance = 0.0;
  for (std::size_t s = 0; s < model.support_vector_count(); ++s) {
    const double coef = model.dual_coefficients()[s];
    EXPECT_GT(std::abs(coef), 0.0);
    EXPECT_LE(std::abs(coef), c * (1 + 1e-12));
    EXPECT_EQ(coef > 0.0,
              data.label(model.support_indices()[s]) == kSybilLabel);
    balance += coef;
  }
  EXPECT_NEAR(balance, 0.0, 1e-9 * std::max(1.0, c * data.size()));
  EXPECT_TRUE(std::isfinite(model.bias()));
  for (std::size_t t = 0; t < data.size(); ++t) {
    EXPECT_TRUE(std::isfinite(model.decision(data.row(t))));
  }
}

TEST(Svm, LinearKernelSeparatesGaussians) {
  stats::Rng rng(1);
  const Dataset train = linearly_separable(100, rng);
  SvmParams params;
  params.kernel = Kernel::kLinear;
  params.c = 1.0;
  const SvmModel model = SvmModel::train(train, params);
  EXPECT_GT(model.support_vector_count(), 0u);

  const Dataset test = linearly_separable(100, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    correct += model.predict(test.row(i)) == test.label(i);
  }
  EXPECT_GE(correct, test.size() * 98 / 100);
}

TEST(Svm, RbfKernelSolvesXor) {
  // XOR is not linearly separable; RBF must handle it.
  const Dataset d = xor_dataset();
  SvmParams params;
  params.kernel = Kernel::kRbf;
  params.gamma = 2.0;
  params.c = 10.0;
  const SvmModel model = SvmModel::train(d, params);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    correct += model.predict(d.row(i)) == d.label(i);
  }
  EXPECT_GE(correct, d.size() * 95 / 100);
}

TEST(Svm, DecisionSignMatchesPrediction) {
  stats::Rng rng(3);
  const Dataset train = linearly_separable(50, rng);
  const SvmModel model = SvmModel::train(train, SvmParams{});
  const std::vector<double> probe = {2.0, 2.0};
  EXPECT_EQ(model.predict(probe),
            model.decision(probe) >= 0 ? kSybilLabel : kNormalLabel);
  EXPECT_GT(model.decision(std::vector<double>{3.0, 3.0}), 0.0);
  EXPECT_LT(model.decision(std::vector<double>{-3.0, -3.0}), 0.0);
}

TEST(Svm, DeterministicAcrossRuns) {
  stats::Rng rng(4);
  const Dataset train = linearly_separable(50, rng);
  const SvmModel a = SvmModel::train(train, SvmParams{});
  const SvmModel b = SvmModel::train(train, SvmParams{});
  EXPECT_EQ(a.support_vector_count(), b.support_vector_count());
  EXPECT_EQ(a.bias(), b.bias());
  EXPECT_EQ(a.iterations(), b.iterations());
  ASSERT_EQ(a.dual_coefficients().size(), b.dual_coefficients().size());
  for (std::size_t s = 0; s < a.dual_coefficients().size(); ++s) {
    EXPECT_EQ(a.support_indices()[s], b.support_indices()[s]);
    EXPECT_EQ(a.dual_coefficients()[s], b.dual_coefficients()[s]);
  }
}

TEST(Svm, SoftMarginToleratesLabelNoise) {
  stats::Rng rng(5);
  Dataset d = linearly_separable(100, rng);
  // Flip ~5% of labels.
  Dataset noisy(2);
  for (std::size_t i = 0; i < d.size(); ++i) {
    int label = d.label(i);
    if (rng.bernoulli(0.05)) label = -label;
    noisy.add(d.row(i), label);
  }
  SvmParams params;
  params.kernel = Kernel::kLinear;
  params.c = 1.0;
  const SvmModel model = SvmModel::train(noisy, params);
  // Evaluate against the CLEAN labels: the soft margin should ignore
  // the injected noise.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    correct += model.predict(d.row(i)) == d.label(i);
  }
  EXPECT_GE(correct, d.size() * 95 / 100);
}

TEST(Svm, KktGapWithinTolAtReturn) {
  SvmParams xor_params;
  xor_params.gamma = 2.0;
  SvmParams linear;
  linear.kernel = Kernel::kLinear;
  linear.c = 1.0;
  const struct {
    const char* name;
    Dataset data;
    SvmParams params;
  } cases[] = {
      {"xor", xor_dataset(), xor_params},
      {"noisy-linear", noisy_linear(5), linear},
      {"noisy-linear-rbf", noisy_linear(6), SvmParams{}},
      {"pipeline", pipeline_dataset(), SvmParams{}},
  };
  for (const auto& c : cases) {
    const SvmModel model = SvmModel::train(c.data, c.params);
    EXPECT_LT(model.iterations(), c.params.max_iterations) << c.name;
    // Slack for the rounding the cached gradient accumulated over the
    // steps against the gradient recomputed here in one pass.
    EXPECT_LE(kkt_gap(model, c.data), c.params.tol + 1e-9) << c.name;
    // The bias puts every free support vector (0 < a_t < C) on its
    // margin, y_t * decision(x_t) = 1, up to the same gap.
    std::size_t free = 0;
    for (std::size_t s = 0; s < model.support_vector_count(); ++s) {
      if (std::abs(model.dual_coefficients()[s]) >= c.params.c) continue;
      const std::size_t t = model.support_indices()[s];
      EXPECT_NEAR(model.decision(c.data.row(t)), c.data.label(t),
                  c.params.tol + 1e-9)
          << c.name << " row " << t;
      ++free;
    }
    EXPECT_GT(free, 0u) << c.name;
    expect_valid(model, c.data);
  }
}

TEST(Svm, DualObjectiveNeverDecreasesStepToStep) {
  // The model after a cap of k steps is the solver's state after step
  // k, so training with caps 0, 1, 2, ... replays the run step by step.
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    stats::Rng rng(seed);
    Dataset d(3);
    for (int i = 0; i < 24; ++i) {
      const int label = rng.bernoulli(0.5) ? kSybilLabel : kNormalLabel;
      d.add(std::vector<double>{stats::sample_normal(rng, 0.7 * label, 1.0),
                                stats::sample_normal(rng, 0.0, 1.0),
                                stats::sample_normal(rng, -0.3 * label, 1.0)},
            label);
    }
    if (d.count_label(kSybilLabel) == 0 || d.count_label(kNormalLabel) == 0) {
      continue;
    }
    SvmParams params;
    params.kernel = seed % 2 == 0 ? Kernel::kRbf : Kernel::kLinear;
    params.c = seed % 3 == 0 ? 0.5 : 5.0;
    params.tol = 1e-6;
    double previous = 0.0;  // the objective at a = 0
    for (std::size_t cap = 1;; ++cap) {
      params.max_iterations = cap;
      const SvmModel model = SvmModel::train(d, params);
      const double objective = dual_objective(model, d);
      EXPECT_GE(objective, previous - 1e-12 * std::max(1.0, previous))
          << "seed " << seed << " step " << cap;
      previous = objective;
      if (model.iterations() < cap) break;  // converged before the cap
      ASSERT_LT(cap, 10'000u) << "seed " << seed << " did not converge";
    }
  }
}

TEST(Svm, DegenerateInputsTerminateWithValidModels) {
  const auto check = [](const char* name, const Dataset& d,
                        const SvmParams& params) {
    SCOPED_TRACE(name);
    const SvmModel model = SvmModel::train(d, params);
    EXPECT_LT(model.iterations(), params.max_iterations);
    expect_valid(model, d);
  };
  SvmParams linear;
  linear.kernel = Kernel::kLinear;

  // The same row under both labels (a_ij = 0 for that pair).
  Dataset contradictory(2);
  contradictory.add(std::vector<double>{0.0, 0.0}, kSybilLabel);
  contradictory.add(std::vector<double>{0.0, 0.0}, kNormalLabel);
  contradictory.add(std::vector<double>{1.0, 1.0}, kSybilLabel);
  contradictory.add(std::vector<double>{-1.0, -1.0}, kNormalLabel);
  check("contradictory-rbf", contradictory, SvmParams{});
  check("contradictory-linear", contradictory, linear);

  // Every row identical: every a_ij is 0, so every step uses tau.
  Dataset identical(2);
  for (int i = 0; i < 6; ++i) {
    identical.add(std::vector<double>{0.5, -0.5},
                  i % 3 == 0 ? kSybilLabel : kNormalLabel);
  }
  check("identical-rbf", identical, SvmParams{});
  check("identical-linear", identical, linear);

  // One point per class: the maximum-margin bisector.
  Dataset pair(2);
  pair.add(std::vector<double>{1.0, 0.0}, kSybilLabel);
  pair.add(std::vector<double>{-1.0, 0.0}, kNormalLabel);
  for (const SvmParams& p : {SvmParams{}, linear}) {
    const SvmModel model = SvmModel::train(pair, p);
    expect_valid(model, pair);
    EXPECT_EQ(model.predict(pair.row(0)), kSybilLabel);
    EXPECT_EQ(model.predict(pair.row(1)), kNormalLabel);
    EXPECT_NEAR(model.decision(std::vector<double>{0.0, 3.0}), 0.0, 1e-9);
  }

  // A vanishing penalty: every alpha sits at its bound C.
  SvmParams tiny;
  tiny.c = 1e-9;
  stats::Rng rng(8);
  const Dataset gaussians = linearly_separable(20, rng);
  check("tiny-c", gaussians, tiny);
}

TEST(Svm, IterationCapReturnsAModel) {
  const Dataset d = xor_dataset();
  for (const std::size_t cap : {0u, 1u, 3u, 10u}) {
    SvmParams params;
    params.gamma = 2.0;
    params.max_iterations = cap;
    const SvmModel model = SvmModel::train(d, params);
    EXPECT_EQ(model.iterations(), cap);
    EXPECT_LE(model.support_vector_count(), 2 * cap);
    expect_valid(model, d);
  }
}

TEST(Svm, Errors) {
  EXPECT_THROW(SvmModel::train(Dataset(1), SvmParams{}),
               std::invalid_argument);
  Dataset one_class(1);
  one_class.add(std::vector<double>{1.0}, kSybilLabel);
  one_class.add(std::vector<double>{2.0}, kSybilLabel);
  EXPECT_THROW(SvmModel::train(one_class, SvmParams{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sybil::ml
