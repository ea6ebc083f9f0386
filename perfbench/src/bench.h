// Shared pieces of the end-to-end benchmark driver: the clock, the span
// recorder used by traced runs, order statistics, and the run report
// that main.cpp prints as JSON.
//
// All timing comes from this code, around calls into the repository's
// public functions; nothing inside the library is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Which sizes a workload runs at: the published benchmark ("paper") or
/// the benchmark's own tests ("tiny").
enum class Scale { kPaper, kTiny };

/// Deliberately wrong references, so the tests can show that each
/// correctness check fails when its expectation is wrong.
enum class Perturb { kNone, kFlags, kDigest, kCrash, kTable1 };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kPaper;
  Perturb perturb = Perturb::kNone;
  std::string state_dir;   // scratch root for service state
  std::string trace_out;   // where a traced run writes its spans
};

// ---------------------------------------------------------------- spans

/// In-memory span recorder. Spans nest by construction (RAII scopes on
/// one thread), carry their parent's index, and are written out only
/// when the run ends. Disabled, a scope costs one branch.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Span {
    std::uint32_t parent;
    const char* name;
    const char* layer;
    Clock::time_point start;
    Clock::time_point end;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  std::uint32_t open(const char* name, const char* layer) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({stack_.empty() ? kNoParent : stack_.back(), name, layer,
                      Clock::now(), {}});
    stack_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id].end = Clock::now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const char* layer)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_) id_ = tracer_->open(name, layer);
  }
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
};

// --------------------------------------------------------------- stats

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest sample (the median for ten samples or fewer).
inline double tail_value(std::vector<double> v) {
  if (v.size() <= 10) return median(std::move(v));
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

/// The percentile tail_value() reads for `n` samples.
inline double tail_percentile(std::size_t n) {
  return n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
                : 50.0;
}

// -------------------------------------------------------------- report

struct FailedCheck {
  std::string name;
  std::string detail;
};

/// Everything one invocation measured. Metric values are medians over
/// passes; `e2e` comes from untraced passes, `e2e_traced` and
/// `per_layer` from traced ones.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<FailedCheck> checks;
  std::map<std::string, double> e2e;
  std::map<std::string, double> e2e_traced;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::string> notes;
  std::size_t passes = 0;
  std::size_t traced_passes = 0;

  /// Records `ops` checked operations of which `bad` failed, keeping the
  /// first failure of each name for the report.
  void tally(const std::string& name, std::uint64_t ops, std::uint64_t bad,
             const std::string& detail) {
    attempted += ops;
    failed += bad;
    if (bad && std::none_of(checks.begin(), checks.end(),
                            [&](const FailedCheck& c) { return c.name == name; })) {
      checks.push_back({name, detail});
    }
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    tally(name, 1, ok ? 0 : 1, detail);
  }
};

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

// ---------------------------------------------------------------- passes

/// What one pass of a workload measured.
struct PassFigures {
  std::vector<double> setup_s;          // set-up samples taken for it
  double wall_s = 0.0;                  // clocked around the root span
  std::map<std::string, double> e2e;    // events_per_s, pass_s, drain_s
  std::map<std::string, double> layer;  // boundary counts, traced passes
  std::vector<double> steps_ms;
};

/// A per-layer metric that is the summed duration of one span name.
struct SpanMetric {
  const char* span;
  const char* metric;
};

/// Runs passes until args.seconds have elapsed — alternating untraced
/// and traced passes when args.trace, with at least one of each — and
/// fills the report: end-to-end medians over untraced passes (step p50
/// over pooled steps; the tail as the median over passes of each pass's
/// tail_value), set-up median over `setup` plus every pass's samples,
/// and for traced passes the per-layer medians, layer self times, the
/// stage-sum check (layer self times + unattributed == wall within
/// max(2 ms, 1% of wall)) and the tracing overhead (median of traced
/// minus the untraced pass before).
void run_passes(const Args& args, Tracer& tracer,
                const std::vector<SpanMetric>& span_metrics,
                std::vector<double> setup,
                const std::function<PassFigures(std::size_t pass)>& run_pass,
                Report& report);

/// Runs one workload from args.seed, with correctness checks on every
/// pass.
void run_svc(const Args& args, Tracer& tracer, Report& report);
void run_table1(const Args& args, Tracer& tracer, Report& report);

}  // namespace perfbench
