// End-to-end benchmark program. Usage:
//
//   mlcs_perfbench --workload <fig1-indb|sql-wire|serve-forest>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                  [--rate <requests/s>]   (serve-forest rate ladder only)
//
// Untraced runs print the end-to-end metrics of one workload; traced runs
// print the per-layer table of all three workloads plus the traced
// end-to-end values of the named one. The last line of standard output is
// the JSON result; everything before it is for people.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

double BusyRate(const std::vector<double>& op_seconds) {
  double busy = 0;
  for (double s : op_seconds) busy += s;
  return busy > 0 ? static_cast<double>(op_seconds.size()) / busy : 0;
}

double WindowedP99(const std::vector<double>& op_seconds) {
  constexpr size_t kWindowOps = 1000;
  size_t windows = std::max<size_t>(1, op_seconds.size() / kWindowOps);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = op_seconds.begin() + static_cast<std::ptrdiff_t>(
                                          w * op_seconds.size() / windows);
    auto end = op_seconds.begin() + static_cast<std::ptrdiff_t>(
                                        (w + 1) * op_seconds.size() / windows);
    p99s.push_back(Quantile(std::vector<double>(begin, end), 0.99));
  }
  return Median(std::move(p99s));
}

void AddEndToEnd(double setup_s, const std::vector<double>& op_seconds,
                 double ops_per_s, RunResult* result,
                 std::vector<Metric>* layers) {
  double p50_ms = Quantile(op_seconds, 0.50) * 1e3;
  double p99_ms = WindowedP99(op_seconds) * 1e3;
  result->Add("setup_s", setup_s, "s");
  result->Add("ops_per_s", ops_per_s, "ops/s");
  result->Add("op_p50_ms", p50_ms, "ms");
  result->Add("op_p99_ms", p99_ms, "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  if (layers == nullptr) return;
  layers->push_back({"traced.ops_per_s", ops_per_s, "ops/s"});
  layers->push_back({"traced.op_p50_ms", p50_ms, "ms"});
  layers->push_back({"traced.op_p99_ms", p99_ms, "ms"});
}

namespace {

/// Engine settings, fixed for every workload: the thread pool stays below
/// the 4 vCPUs of the reference host so the load generator and the server
/// threads fit beside it, and the buffer pool is smaller than the blocks
/// the sql-wire rotation touches.
constexpr const char* kThreads = "2";
constexpr const char* kBufferPoolBytes = "2097152";

using RunFn = void (*)(const Options&, Mode, SetupClock*, RunResult*,
                       std::vector<Metric>*);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"fig1-indb", RunFig1InDb},
    {"sql-wire", RunSqlWire},
    {"serve-forest", RunServeForest},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "mlcs_perfbench: %s\nusage: mlcs_perfbench --workload "
               "<fig1-indb|sql-wire|serve-forest> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Clock::time_point process_start = Clock::now();
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--rate") {
      options.rate = std::atoi(value);
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) selected = &w;
  }
  if (selected == nullptr) return Usage("unknown workload");
  if (options.seconds < 1) return Usage("--seconds must be at least 1");
  if (options.workdir.empty()) return Usage("--workdir is required");

  setenv("MLCS_THREADS", kThreads, 1);
  setenv("MLCS_BUFFER_POOL_BYTES", kBufferPoolBytes, 1);
  if (options.trace) mlcs::obs::SetTracingEnabled(true);

  SetupClock setup(process_start);
  double ref_start_ms = 0;
  {
    SetupClock::Exclusion exclude(&setup);
    ref_start_ms = RefLoopMs();
  }
  RunResult result;
  std::vector<Metric> layers;
  selected->run(options, Mode::kMeasure, &setup, &result,
                options.trace ? &layers : nullptr);

  if (options.trace) {
    // The other workloads' layers, so a traced run prints the whole table.
    for (const Workload& w : kWorkloads) {
      if (&w == selected) continue;
      SetupClock probe_setup(Clock::now());
      RunResult probe;
      w.run(options, Mode::kProbe, &probe_setup, &probe, &layers);
      if (!probe.correct) result.correct = false;
    }
    layers.push_back(
        {"host.ref_loop_ms", (ref_start_ms + RefLoopMs()) / 2, "ms"});
    PrintTable("end-to-end (" + options.workload + ", traced)",
               result.metrics);
    PrintTable("per-layer", layers);
    result.metrics = layers;
  } else {
    std::printf("host.ref_loop_ms start %.3f end %.3f\n", ref_start_ms,
                RefLoopMs());
    PrintTable("end-to-end (" + options.workload + ")", result.metrics);
  }
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);
  return 0;
}
