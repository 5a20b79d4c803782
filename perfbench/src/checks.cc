#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench::checks {

namespace {

/// printf-style message (chained std::string + trips GCC 12's -Wrestrict).
template <typename... Args>
std::string Format(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

std::vector<double> ColumnValues(const mlcs::Table& table, size_t c) {
  auto values = table.column(c)->ToDoubleVector();
  return values.ok() ? values.ValueOrDie() : std::vector<double>{};
}

}  // namespace

PrecinctPredictions ToPrecinctPredictions(const mlcs::Table& table) {
  PrecinctPredictions out;
  if (table.num_columns() != 3) return out;
  std::vector<double> id = ColumnValues(table, 0);
  std::vector<double> dem = ColumnValues(table, 1);
  std::vector<double> n = ColumnValues(table, 2);
  if (id.size() != table.num_rows() || dem.size() != id.size() ||
      n.size() != id.size()) {
    return out;
  }
  for (size_t r = 0; r < id.size(); ++r) {
    out.push_back({static_cast<int64_t>(id[r]), static_cast<int64_t>(dem[r]),
                   static_cast<int64_t>(n[r])});
  }
  std::sort(out.begin(), out.end(),
            [](const PrecinctPrediction& a, const PrecinctPrediction& b) {
              return a.precinct_id < b.precinct_id;
            });
  return out;
}

std::string SamePredictions(const PrecinctPredictions& got,
                            const PrecinctPredictions& expected) {
  if (got.size() != expected.size()) {
    return Format("precinct count %zu != %zu", got.size(), expected.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == expected[i])) {
      return Format("precinct %lld: pred_dem/n %lld/%lld != %lld/%lld",
                    (long long)expected[i].precinct_id,
                    (long long)got[i].pred_dem, (long long)got[i].n,
                    (long long)expected[i].pred_dem,
                    (long long)expected[i].n);
    }
  }
  return "";
}

std::string PredictionBounds(const PrecinctPredictions& got) {
  if (got.empty()) return "no precinct predictions";
  for (const PrecinctPrediction& p : got) {
    if (p.pred_dem < 0 || p.pred_dem > p.n) {
      return Format("precinct %lld: pred_dem %lld outside [0, %lld]",
                    (long long)p.precinct_id, (long long)p.pred_dem,
                    (long long)p.n);
    }
  }
  return "";
}

std::string RowConservation(const PrecinctPredictions& got,
                            uint64_t train_rows, uint64_t num_voters) {
  int64_t test_rows = 0;
  for (const PrecinctPrediction& p : got) test_rows += p.n;
  if (test_rows < 0 ||
      static_cast<uint64_t>(test_rows) + train_rows != num_voters) {
    return Format("test rows %lld + train rows %llu != voters %llu",
                  (long long)test_rows, (unsigned long long)train_rows,
                  (unsigned long long)num_voters);
  }
  return "";
}

namespace {

/// Actual dem share per precinct id, from the votes table.
std::map<int64_t, double> ActualShares(
    const std::vector<PrecinctVotes>& votes) {
  std::map<int64_t, double> share;
  for (const PrecinctVotes& v : votes) {
    double total = static_cast<double>(v.dem + v.rep);
    share[v.precinct_id] = total > 0 ? v.dem / total : 0.5;
  }
  return share;
}

template <typename Predict>
double Mae(const PrecinctPredictions& got,
           const std::vector<PrecinctVotes>& votes, Predict&& predict) {
  std::map<int64_t, double> actual = ActualShares(votes);
  double sum = 0;
  size_t count = 0;
  for (const PrecinctPrediction& p : got) {
    auto it = actual.find(p.precinct_id);
    if (it == actual.end() || p.n <= 0) continue;
    sum += std::fabs(predict(p) - it->second);
    ++count;
  }
  return count == 0 ? INFINITY : sum / static_cast<double>(count);
}

}  // namespace

double ShareMae(const PrecinctPredictions& got,
                const std::vector<PrecinctVotes>& votes) {
  return Mae(got, votes, [](const PrecinctPrediction& p) {
    return static_cast<double>(p.pred_dem) / static_cast<double>(p.n);
  });
}

double ConstantShareMae(const PrecinctPredictions& got,
                        const std::vector<PrecinctVotes>& votes) {
  double dem = 0, total = 0;
  for (const PrecinctVotes& v : votes) {
    dem += static_cast<double>(v.dem);
    total += static_cast<double>(v.dem + v.rep);
  }
  double overall = total > 0 ? dem / total : 0.5;
  return Mae(got, votes, [overall](const PrecinctPrediction&) {
    return overall;
  });
}

std::string BeatsConstantShare(const PrecinctPredictions& got,
                               const std::vector<PrecinctVotes>& votes) {
  double model = ShareMae(got, votes);
  double constant = ConstantShareMae(got, votes);
  if (!(model < constant)) {
    return Format("share MAE %.6f does not beat the constant-share MAE %.6f",
                  model, constant);
  }
  return "";
}

Rows ToRows(const mlcs::Table& table) {
  std::vector<std::vector<double>> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(ColumnValues(table, c));
    if (columns.back().size() != table.num_rows()) return {};
  }
  Rows rows(table.num_rows(), std::vector<double>(table.num_columns()));
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t r = 0; r < rows.size(); ++r) rows[r][c] = columns[c][r];
  }
  return rows;
}

std::string SameRows(Rows got, const Rows& want, bool ordered) {
  if (got == want) return "";  // also the usual unordered case
  Rows expected = want;
  if (!ordered) {
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
  }
  if (got.size() != expected.size()) {
    return Format("row count %zu != %zu", got.size(), expected.size());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r] != expected[r]) {
      std::string why = Format("row %zu differs:", r);
      for (double v : got[r]) why += Format(" %.17g", v);
      why += " vs";
      for (double v : expected[r]) why += Format(" %.17g", v);
      return why;
    }
  }
  return "";
}

std::string ServeResponse(bool code_ok, const std::vector<int32_t>& labels,
                          const std::vector<int32_t>& forest_a,
                          const std::vector<int32_t>& forest_b) {
  if (!code_ok) return "response code is not kOk";
  if (labels != forest_a && labels != forest_b) {
    return "labels match neither forest's in-process prediction";
  }
  return "";
}

std::string ResponseCount(uint64_t sent, uint64_t received) {
  if (sent != received) {
    return Format("%llu responses for %llu requests",
                  (unsigned long long)received, (unsigned long long)sent);
  }
  return "";
}

}  // namespace perfbench::checks
