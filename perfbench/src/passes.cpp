// The pass loop both workload families share: alternating untraced and
// traced passes, per-pass span profiles, the stage-sum check, and the
// medians that become the report.
#include <sys/resource.h>

#include <cmath>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

/// Self time per layer and inclusive time per span name over one pass's
/// spans (from index `first`, the pass's root span).
struct PassProfile {
  std::map<std::string, double> layer_self_s;
  std::map<std::string, double> name_total_s;
  double unattributed_s = 0.0;  // the root span's own self time
};

PassProfile profile_pass(const Tracer& tracer, std::size_t first) {
  const auto& spans = tracer.spans();
  PassProfile p;
  std::vector<double> self(spans.size() - first);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const double d = seconds_between(spans[i].start, spans[i].end);
    self[i - first] += d;
    if (i != first) self[spans[i].parent - first] -= d;
    p.name_total_s[spans[i].name] += d;
  }
  p.unattributed_s = self[0];
  for (std::size_t i = first + 1; i < spans.size(); ++i) {
    p.layer_self_s[spans[i].layer] += self[i - first];
  }
  return p;
}

/// Median of each key over per-pass maps (a key missing from a pass
/// counts as 0 there).
std::map<std::string, double> median_by_key(
    const std::vector<std::map<std::string, double>>& passes) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& pass : passes) {
    for (const auto& [key, value] : pass) columns[key];
  }
  std::map<std::string, double> out;
  for (auto& [key, column] : columns) {
    for (const auto& pass : passes) {
      const auto it = pass.find(key);
      column.push_back(it == pass.end() ? 0.0 : it->second);
    }
    out[key] = median(column);
  }
  return out;
}

}  // namespace

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void run_passes(const Args& args, Tracer& tracer,
                const std::vector<SpanMetric>& span_metrics,
                std::vector<double> setup,
                const std::function<PassFigures(std::size_t pass)>& run_pass,
                Report& report) {
  std::vector<std::map<std::string, double>> plain, traced, layers;
  std::vector<double> steps, tails, overhead;
  double last_untraced_s = 0.0;
  std::size_t steps_per_pass = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    const std::size_t first_span = tracer.spans().size();
    tracer.set_enabled(trace_this);
    PassFigures f = run_pass(i);
    tracer.set_enabled(false);
    setup.insert(setup.end(), f.setup_s.begin(), f.setup_s.end());
    if (i == 0) steps_per_pass = f.steps_ms.size();

    if (trace_this) {
      const PassProfile p = profile_pass(tracer, first_span);
      double sum = p.unattributed_s;
      bool nested = true;
      for (const auto& [layer, self] : p.layer_self_s) {
        f.layer[layer + ".self_s"] = self;
        sum += self;
        nested = nested && self > -1e-9;  // no child outlived its parent
      }
      const double gap = f.wall_s - sum;
      report.check("stage sum",
                   nested && std::fabs(gap) <= std::max(2e-3, 0.01 * f.wall_s),
                   "layer self times + unattributed miss the wall clock by " +
                       std::to_string(gap) + " s");
      f.layer["bench.unattributed_s"] = p.unattributed_s;
      f.layer["bench.stage_sum_gap_s"] = gap;
      for (const SpanMetric& m : span_metrics) {
        const auto it = p.name_total_s.find(m.span);
        f.layer[m.metric] = it == p.name_total_s.end() ? 0.0 : it->second;
      }
      // Paired with the untraced pass just before it (same inputs).
      overhead.push_back(f.e2e["pass_s"] - last_untraced_s);
      traced.push_back(f.e2e);
      layers.push_back(f.layer);
    } else {
      plain.push_back(f.e2e);
      tails.push_back(tail_value(f.steps_ms));
      steps.insert(steps.end(), f.steps_ms.begin(), f.steps_ms.end());
      last_untraced_s = f.e2e["pass_s"];
      report.notes["pass_s_each"] += std::to_string(last_untraced_s) + " ";
    }
    const bool have_both = !args.trace || !traced.empty();
    if (have_both && Clock::now() >= deadline) break;
  }

  report.e2e = median_by_key(plain);
  report.e2e["step_p50_ms"] = median(steps);
  report.e2e["step_tail_ms"] = median(tails);
  report.e2e["setup_s"] = median(setup);
  for (const double x : setup) {
    report.notes["setup_s_each"] += std::to_string(x) + " ";
  }
  report.e2e["peak_rss_mb"] = peak_rss_mib();
  report.passes = plain.size() + traced.size();
  report.traced_passes = traced.size();
  report.notes["step_tail_percentile"] =
      std::to_string(tail_percentile(steps_per_pass));
  report.notes["step_samples_per_pass"] = std::to_string(steps_per_pass);
  report.notes["step_samples"] = std::to_string(steps.size());
  if (args.trace) {
    report.e2e_traced = median_by_key(traced);
    report.per_layer = median_by_key(layers);
    report.per_layer["bench.trace_overhead_s"] = median(overhead);
  }
}

}  // namespace perfbench
