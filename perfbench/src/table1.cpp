// paper-table1: the reproduction path behind the paper's Table 1 —
// ground-truth simulation at paper scale, the four features of the
// tracked subjects, SVM 5-fold cross-validation, and the paper-constant
// threshold rule (the same path as bench_table1_classifiers).
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ground_truth.h"
#include "core/threshold_detector.h"
#include "ml/kfold.h"
#include "ml/scaler.h"
#include "ml/svm.h"
#include "osn/simulator.h"

namespace perfbench {
namespace {

using namespace sybil;

// Scale. The paper's own scale (60k background users, 1000+1000
// subjects, 400 h) takes 25-45 s a pass on a 2.1 GHz core, most of it in
// SVM training whose cost swings with the data, so one pass per run
// cannot be steady across seeds. A pass here simulates a third of the
// background over half the window, and every pass of a run draws a new
// dataset, so a run's median spans many datasets.
//
// Bands the correct pipeline lands in at these scales (the paper's
// figures: SVM 98.99% / 0.66%, threshold 98.68% / 0.5%). Recall of the
// paper-constant rule sits a few points lower than at 60k background,
// where ambient edge density sets a lower floor on Sybil clustering
// (EXPERIMENTS.md).
constexpr double kSvmAccuracyMin = 0.95;
constexpr double kThresholdRecallMin = 0.90;
constexpr double kThresholdFalsePositiveMax = 0.02;

// One scale for both Scale settings: smaller populations miss the bands.
osn::GroundTruthConfig config_for(const Args& args, std::size_t pass) {
  osn::GroundTruthConfig c;
  c.background_users = 20000;
  c.subject_normals = 250;
  c.subject_sybils = 250;
  c.sim_hours = 200.0;
  c.seed = args.seed * 1000 + pass;
  return c;
}

struct PassOut {
  PassFigures fig;
  ml::ConfusionMatrix svm;
  ml::ConfusionMatrix threshold;
};

PassOut run_pass(osn::GroundTruthSimulator& sim, Tracer& tracer) {
  PassOut out;
  auto last_hour = Clock::now();
  sim.set_hour_hook([&](graph::Time, osn::Network&) {
    const auto now = Clock::now();
    out.fig.steps_ms.push_back(1e3 * seconds_between(last_hour, now));
    last_hour = now;
  });
  std::size_t folds = 0;
  double support_vectors = 0.0;
  const auto t0 = Clock::now();
  {
    Scope root(tracer, "pass", "bench");
    last_hour = Clock::now();
    {
      Scope span(tracer, "run", "osn.simulator");
      sim.run();
    }
    const auto d0 = Clock::now();
    ml::Dataset data;
    {
      Scope span(tracer, "build_ground_truth_dataset", "core.features");
      data = core::build_ground_truth_dataset(
          sim.network(), sim.subject_normals(), sim.subject_sybils());
    }
    stats::Rng rng(sim.config().seed + 1);
    {
      Scope span(tracer, "cross_validate", "ml.kfold");
      out.svm = ml::cross_validate(
          data, 5,
          [&](const ml::Dataset& train) -> ml::Predictor {
            auto scaler = std::make_shared<ml::StandardScaler>();
            scaler->fit(train);
            const ml::Dataset scaled = scaler->transform(train);
            std::shared_ptr<ml::SvmModel> model;
            {
              Scope span(tracer, "train", "ml.svm");
              model = std::make_shared<ml::SvmModel>(
                  ml::SvmModel::train(scaled, ml::SvmParams{}));
            }
            support_vectors += static_cast<double>(model->support_vector_count());
            ++folds;
            return [scaler, model, &tracer](std::span<const double> row) {
              const auto x = scaler->transform(row);
              Scope span(tracer, "predict", "ml.svm");
              return model->predict(x);
            };
          },
          rng);
    }
    {
      Scope span(tracer, "is_sybil", "ml.threshold");
      const core::ThresholdDetector detector{};
      for (std::size_t i = 0; i < data.size(); ++i) {
        const auto row = data.row(i);
        core::SybilFeatures f;
        f.invite_rate_short = row[0];
        f.outgoing_accept_ratio = row[1];
        f.incoming_accept_ratio = row[2];
        f.clustering_coefficient = row[3];
        out.threshold.record(data.label(i), detector.is_sybil(f)
                                                ? ml::kSybilLabel
                                                : ml::kNormalLabel);
      }
    }
    out.fig.e2e["drain_s"] = seconds_between(d0, Clock::now());
  }
  out.fig.wall_s = seconds_between(t0, Clock::now());
  sim.set_hour_hook({});

  const osn::Network& net = sim.network();
  double requests = 0.0;  // friend requests the simulation sent
  for (std::size_t id = 0; id < net.account_count(); ++id) {
    requests += net.ledger(static_cast<osn::NodeId>(id)).sent();
  }
  out.fig.e2e["pass_s"] = out.fig.wall_s;
  out.fig.e2e["events_per_s"] = requests / out.fig.wall_s;
  if (tracer.enabled()) {
    auto& m = out.fig.layer;
    m["osn.simulator.edges"] = static_cast<double>(net.graph().edge_count());
    m["ml.svm.support_vectors"] = folds ? support_vectors / folds : 0.0;
    m["ml.svm.accuracy"] = out.svm.accuracy();
  }
  return out;
}

std::string percent(double x) { return std::to_string(100.0 * x) + "%"; }

}  // namespace

void run_table1(const Args& args, Tracer& tracer, Report& report) {
  const double svm_min =
      args.perturb == Perturb::kTable1 ? 1.01 : kSvmAccuracyMin;

  // Simulator construction is this workload's set-up; a few extra ones
  // make its median steadier.
  const auto construct = [&args](std::size_t pass, double& setup_s) {
    const auto t = Clock::now();
    auto sim = std::make_unique<osn::GroundTruthSimulator>(config_for(args, pass));
    setup_s = seconds_between(t, Clock::now());
    return sim;
  };
  std::vector<double> setup(5);
  for (std::size_t k = 0; k < setup.size(); ++k) construct(k, setup[k]);

  std::vector<double> accuracy;
  const auto run_one = [&](std::size_t pass) {
    // Traced runs show each dataset untraced, then traced, so the
    // tracing overhead is not confounded with the dataset.
    double setup_s = 0.0;
    auto sim = construct(args.trace ? pass / 2 : pass, setup_s);
    PassOut p = run_pass(*sim, tracer);
    p.fig.setup_s.push_back(setup_s);
    report.check("svm accuracy", p.svm.accuracy() >= svm_min,
                 "SVM 5-fold accuracy " + percent(p.svm.accuracy()) +
                     " below " + percent(svm_min));
    report.check("threshold confusion",
                 p.threshold.sybil_recall() >= kThresholdRecallMin &&
                     p.threshold.false_positive_rate() <=
                         kThresholdFalsePositiveMax,
                 "threshold rule recall " + percent(p.threshold.sybil_recall()) +
                     ", false positives " +
                     percent(p.threshold.false_positive_rate()));
    accuracy.push_back(p.svm.accuracy());
    return p.fig;
  };
  run_passes(args, tracer,
             {{"run", "osn.simulator.run_s"},
              {"build_ground_truth_dataset", "core.features.s"},
              {"cross_validate", "ml.kfold.s"},
              {"train", "ml.svm.train_s"},
              {"predict", "ml.svm.predict_s"},
              {"is_sybil", "ml.threshold.eval_s"}},
             std::move(setup), run_one, report);

  const osn::GroundTruthConfig config = config_for(args, 0);
  report.notes["svm_accuracy"] = std::to_string(median(accuracy));
  report.notes["background_users"] = std::to_string(config.background_users);
  report.notes["subjects"] = std::to_string(config.subject_normals) + "+" +
                             std::to_string(config.subject_sybils);
  report.notes["sim_hours"] = std::to_string(config.sim_hours);
}

}  // namespace perfbench
