#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

void RunResult::FailCheck(const std::string& why) {
  ++failed;
  MarkIncorrect(why);
}

void RunResult::MarkIncorrect(const std::string& why) {
  correct = false;
  if (++reported_ <= 5) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void PrintTable(const std::string& title, const std::vector<Metric>& rows) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : rows) {
    std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double RefLoopMs() {
  Clock::time_point start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double ms = SecondsSince(start) * 1e3;
  // Keeps the loop from being folded away.
  if (x == 42) std::fprintf(stderr, "unlikely\n");
  return ms;
}

std::map<std::string, double> ReadMetrics(mlcs::Database* db) {
  std::map<std::string, double> out;
  auto table = db->Query("SELECT name, value FROM mlcs_metrics()");
  CheckOk(table.status(), "mlcs_metrics()");
  const mlcs::Table& t = *table.ValueOrDie();
  for (size_t r = 0; r < t.num_rows(); ++r) {
    auto name = t.GetValue(r, 0);
    auto value = t.GetValue(r, 1);
    if (!name.ok() || !value.ok()) continue;
    auto v = value.ValueOrDie().AsDouble();
    if (v.ok()) out[name.ValueOrDie().string_value()] = v.ValueOrDie();
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

std::vector<SpanRow> ReadSpans(mlcs::Database* db, uint64_t after_trace_id) {
  auto table = db->Query(
      "SELECT trace_id, span_id, parent_id, name, duration_us FROM "
      "mlcs_trace(0) WHERE trace_id > " +
      std::to_string(after_trace_id));
  CheckOk(table.status(), "mlcs_trace(0)");
  const mlcs::Table& t = *table.ValueOrDie();
  std::vector<SpanRow> out;
  out.reserve(t.num_rows());
  auto cell = [&t](size_t r, size_t c) {
    auto v = t.GetValue(r, c);
    CheckOk(v.status(), "mlcs_trace cell");
    return std::move(v).ValueOrDie();
  };
  for (size_t r = 0; r < t.num_rows(); ++r) {
    SpanRow row;
    row.trace_id = static_cast<uint64_t>(cell(r, 0).int64_value());
    row.span_id = static_cast<uint64_t>(cell(r, 1).int64_value());
    row.parent_id = static_cast<uint64_t>(cell(r, 2).int64_value());
    row.name = cell(r, 3).string_value();
    row.duration_us = cell(r, 4).double_value();
    out.push_back(std::move(row));
  }
  return out;
}

uint64_t MaxTraceId(const std::vector<SpanRow>& spans, uint64_t floor) {
  for (const SpanRow& s : spans) floor = std::max(floor, s.trace_id);
  return floor;
}

std::vector<double> SelfTimesUs(const std::vector<SpanRow>& spans,
                                const std::string& name) {
  std::map<std::pair<uint64_t, uint64_t>, double> child_us;
  for (const SpanRow& s : spans) {
    if (s.parent_id != 0) child_us[{s.trace_id, s.parent_id}] += s.duration_us;
  }
  std::vector<double> out;
  for (const SpanRow& s : spans) {
    if (s.name != name) continue;
    auto it = child_us.find({s.trace_id, s.span_id});
    out.push_back(s.duration_us - (it == child_us.end() ? 0 : it->second));
  }
  return out;
}

void CheckOk(const mlcs::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::fflush(stderr);
  // Server and pool threads may still run; skip static destructors.
  std::_Exit(2);
}

}  // namespace perfbench
