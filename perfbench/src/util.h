#ifndef MLCS_PERFBENCH_UTIL_H_
#define MLCS_PERFBENCH_UTIL_H_

// Shared plumbing of the end-to-end benchmark: command-line options, the
// result line, order statistics, the set-up clock, resource readings and
// readers for what the engine exports (mlcs_metrics(), mlcs_trace()).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sql/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// serve-forest offered load in requests/s; 0 keeps the workload's
  /// fixed rate. Only the rate ladder in the README sets it.
  int rate = 0;
  /// Private directory for this run's files (created and removed by the
  /// caller, so nothing is left behind even if the process dies).
  std::string workdir;
};

/// One named number with its unit, as printed in the result line and in
/// the human-readable tables.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the last line of standard output.
struct RunResult {
  /// False when any op's output failed an independent check.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one op whose output failed a check: counts it as failed and
  /// marks the run incorrect. `why` goes to standard error (first few).
  void FailCheck(const std::string& why);
  /// Marks the run incorrect without counting an op (the warm-up op).
  void MarkIncorrect(const std::string& why);

 private:
  uint64_t reported_ = 0;
};

std::string ResultJson(const RunResult& result);
void PrintTable(const std::string& title, const std::vector<Metric>& rows);

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    fn();
    t.push_back(SecondsSince(start));
  }
  return Median(std::move(t));
}

/// Set-up time from process start, minus the spans in which the benchmark
/// computes its own expected answers.
class SetupClock {
 public:
  explicit SetupClock(Clock::time_point start) : start_(start) {}
  /// Excludes the scope's wall time from the set-up time.
  class Exclusion {
   public:
    explicit Exclusion(SetupClock* clock)
        : clock_(clock), start_(Clock::now()) {}
    ~Exclusion() { clock_->excluded_ += SecondsSince(start_); }
    Exclusion(const Exclusion&) = delete;
    Exclusion& operator=(const Exclusion&) = delete;

   private:
    SetupClock* clock_;
    Clock::time_point start_;
  };
  double Seconds() const { return SecondsSince(start_) - excluded_; }

 private:
  Clock::time_point start_;
  double excluded_ = 0;
};

/// getrusage() high-water resident set of the process, in MB.
double PeakRssMb();

/// A fixed single-thread integer loop, timed in ms: host-speed drift.
double RefLoopMs();

/// `SELECT name, value FROM mlcs_metrics()`.
std::map<std::string, double> ReadMetrics(mlcs::Database* db);
double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

/// One row of `mlcs_trace(id)`.
struct SpanRow {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string name;
  double duration_us = 0;
};

/// Spans of every trace the flight recorder retains with an id above
/// `after_trace_id`.
std::vector<SpanRow> ReadSpans(mlcs::Database* db, uint64_t after_trace_id);
/// Highest trace id in `spans` (or `floor` when none is higher).
uint64_t MaxTraceId(const std::vector<SpanRow>& spans, uint64_t floor);
/// Self time (duration minus direct children) of every span called
/// `name`, in microseconds.
std::vector<double> SelfTimesUs(const std::vector<SpanRow>& spans,
                                const std::string& name);

/// Exits with a message when `status` is not OK: set-up faults end the
/// run without a result line.
void CheckOk(const mlcs::Status& status, const char* what);

}  // namespace perfbench

#endif  // MLCS_PERFBENCH_UTIL_H_
