#ifndef MLCS_PERFBENCH_WORKLOADS_H_
#define MLCS_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "util.h"

namespace perfbench {

/// How a workload is driven in this process.
///  - kMeasure: set up, then run ops for `Options::seconds` and report the
///    end-to-end metrics (plus layer probes when tracing).
///  - kProbe: set up, run a few ops, then the layer probes only — how a
///    traced run of another workload fills in this workload's layers.
enum class Mode { kMeasure, kProbe };

/// Adds the workload's end-to-end metrics to the result (kMeasure) and,
/// when `layers` is non-null, its per-layer metrics to `layers`.
/// Correctness failures land in the result either way.
void RunFig1InDb(const Options& options, Mode mode, SetupClock* setup,
                 RunResult* result, std::vector<Metric>* layers);
void RunSqlWire(const Options& options, Mode mode, SetupClock* setup,
                RunResult* result, std::vector<Metric>* layers);
void RunServeForest(const Options& options, Mode mode, SetupClock* setup,
                    RunResult* result, std::vector<Metric>* layers);

/// Ops per second of busy time: op count over summed op latency (the
/// benchmark's own checks between ops do not count).
double BusyRate(const std::vector<double>& op_seconds);

/// p99 that rare host stalls do not swing: the ops, in completion order,
/// are cut into consecutive windows of at least 1000 ops, and this is the
/// median of the windows' p99s. Under 2000 ops it is the plain p99.
double WindowedP99(const std::vector<double>& op_seconds);

/// Adds the end-to-end metrics, reading the peak RSS now: call it right
/// after the measured ops, before any checking that allocates. When
/// `layers` is non-null (a traced run) the throughput and latency figures
/// are also recorded there as `traced.*`, for the probe overhead.
void AddEndToEnd(double setup_s, const std::vector<double>& op_seconds,
                 double ops_per_s, RunResult* result,
                 std::vector<Metric>* layers);

}  // namespace perfbench

#endif  // MLCS_PERFBENCH_WORKLOADS_H_
