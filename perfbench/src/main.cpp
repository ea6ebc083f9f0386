// perfbench_e2e: runs one benchmark workload and prints a JSON report as
// its last line of standard output. perfbench/run.py builds and drives
// it; run it directly only for debugging:
//
//   perfbench_e2e --workload svc-steady --seed 1 --seconds 10 --trace 0
//                 --state-dir DIR [--trace-out FILE] [--scale tiny]
//                 [--perturb flags|digest|crash|table1]
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

std::string report_json(const Args& args, const Report& r,
                        const std::string& trace_id) {
  std::string checks = "[";
  for (const FailedCheck& c : r.checks) {
    if (checks.size() > 1) checks += ",";
    checks += "{\"name\":" + json_string(c.name) +
              ",\"detail\":" + json_string(c.detail) + "}";
  }
  checks += "]";
  std::string notes = "{";
  for (const auto& [k, v] : r.notes) {
    if (notes.size() > 1) notes += ",";
    notes += json_string(k) + ":" + json_string(v);
  }
  notes += "}";
  return "{\"workload\":" + json_string(args.workload) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"trace\":" + (args.trace ? "1" : "0") +
         ",\"scale\":" + json_string(args.scale == Scale::kTiny ? "tiny" : "paper") +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
         ",\"trace_id\":" + json_string(trace_id) +
         ",\"passes\":" + std::to_string(r.passes) +
         ",\"traced_passes\":" + std::to_string(r.traced_passes) +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"failed_checks\":" + checks +
         ",\"e2e\":" + json_map(r.e2e) +
         ",\"e2e_traced\":" + json_map(r.e2e_traced) +
         ",\"per_layer\":" + json_map(r.per_layer) +
         ",\"notes\":" + notes + "}";
}

/// Writes every recorded span, one JSON object a line, times in ns from
/// the first span's start.
void write_trace(const std::string& path, const std::string& trace_id,
                 const Args& args, const Tracer& tracer) {
  std::ofstream out(path);
  out << "{\"trace_id\":" << json_string(trace_id)
      << ",\"workload\":" << json_string(args.workload)
      << ",\"seed\":" << args.seed << "}\n";
  const auto& spans = tracer.spans();
  if (spans.empty()) return;
  const auto origin = spans.front().start;
  const auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"span\":" << i << ",\"parent\":"
        << (s.parent == Tracer::kNoParent ? std::string("null")
                                          : std::to_string(s.parent))
        << ",\"name\":" << json_string(s.name)
        << ",\"layer\":" << json_string(s.layer)
        << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
        << "}\n";
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
               "svc-steady|svc-sharded|paper-table1 --seed N --seconds S "
               "--trace 0|1 --state-dir DIR [--trace-out FILE] "
               "[--scale paper|tiny] [--perturb flags|digest|crash|table1]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--state-dir") {
      a.state_dir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--scale") {
      if (v != "paper" && v != "tiny") usage("unknown scale");
      a.scale = v == "tiny" ? Scale::kTiny : Scale::kPaper;
    } else if (flag == "--perturb") {
      if (v == "flags") {
        a.perturb = Perturb::kFlags;
      } else if (v == "digest") {
        a.perturb = Perturb::kDigest;
      } else if (v == "crash") {
        a.perturb = Perturb::kCrash;
      } else if (v == "table1") {
        a.perturb = Perturb::kTable1;
      } else {
        usage("unknown perturbation");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "svc-steady" && a.workload != "svc-sharded" &&
      a.workload != "paper-table1") {
    usage("unknown workload");
  }
  if (a.state_dir.empty()) usage("--state-dir is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const std::string trace_id = [] {
    std::random_device rd;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%08x%08x", rd(), rd());
    return std::string(buf);
  }();
  Tracer tracer;
  Report report;
  try {
    std::filesystem::create_directories(args.state_dir);
    if (args.workload == "paper-table1") {
      run_table1(args, tracer, report);
    } else {
      run_svc(args, tracer, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
  if (args.trace && !args.trace_out.empty()) {
    write_trace(args.trace_out, trace_id, args, tracer);
  }
  std::printf("%s\n", report_json(args, report, trace_id).c_str());
  return 0;
}
