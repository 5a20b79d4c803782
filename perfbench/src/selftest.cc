// Self-test of the benchmark's correctness checks: each check must accept
// a real engine output and reject the same output with one deliberate
// corruption (a flipped label, a changed aggregate, a dropped response).
// Exits non-zero when a check accepts a corrupted output or rejects a
// clean one.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <map>
#include <string>

#include "checks.h"
#include "io/voter_gen.h"
#include "pipeline/voter_pipeline.h"
#include "sql/database.h"

namespace {

using namespace perfbench::checks;

int g_failures = 0;

void Expect(bool accepted, const std::string& why, bool want_accepted,
            const char* what) {
  bool ok = accepted == want_accepted;
  std::printf("%-4s %-46s %s%s\n", ok ? "ok" : "FAIL", what,
              accepted ? "accepted" : "rejected: ",
              accepted ? "" : why.c_str());
  if (!ok) ++g_failures;
}

void Accepts(const std::string& why, const char* what) {
  Expect(why.empty(), why, true, what);
}
void Rejects(const std::string& why, const char* what) {
  Expect(why.empty(), why, false, what);
}

void Fig1Checks() {
  mlcs::pipeline::PipelineConfig config;
  config.data.num_voters = 20000;
  config.data.num_columns = 16;
  config.data.num_precincts = 100;
  config.n_estimators = 4;
  config.max_depth = 6;
  mlcs::Database db;
  if (!mlcs::pipeline::LoadVoterData(&db, config).ok()) {
    std::printf("FAIL could not load voter data\n");
    ++g_failures;
    return;
  }
  auto run = mlcs::pipeline::RunInDatabase(&db, config);
  auto precincts = db.catalog().GetTable("precincts");
  auto joined = db.Query("SELECT COUNT(*) FROM voter_joined WHERE is_train");
  if (!run.ok() || !precincts.ok() || !joined.ok()) {
    std::printf("FAIL in-database pipeline did not run\n");
    ++g_failures;
    return;
  }
  PrecinctPredictions clean =
      ToPrecinctPredictions(*run.ValueOrDie().precinct_predictions);
  uint64_t train_rows = static_cast<uint64_t>(
      joined.ValueOrDie()->GetValue(0, 0).ValueOrDie().int64_value());
  std::vector<PrecinctVotes> votes;
  const mlcs::Table& p = *precincts.ValueOrDie();
  for (size_t r = 0; r < p.num_rows(); ++r) {
    votes.push_back({p.column(0)->i32_data()[r], p.column(1)->i32_data()[r],
                     p.column(2)->i32_data()[r]});
  }
  const uint64_t voters = config.data.num_voters;

  Accepts(SamePredictions(clean, clean), "fig1 identical predictions");
  Accepts(PredictionBounds(clean), "fig1 0 <= pred_dem <= n");
  Accepts(RowConservation(clean, train_rows, voters), "fig1 row count");
  Accepts(BeatsConstantShare(clean, votes), "fig1 beats constant share");

  PrecinctPredictions flipped = clean;  // one voter's label flipped
  flipped[0].pred_dem += flipped[0].pred_dem < flipped[0].n ? 1 : -1;
  Rejects(SamePredictions(flipped, clean), "fig1 one flipped label");
  PrecinctPredictions over = clean;
  over[0].pred_dem = over[0].n + 1;
  Rejects(PredictionBounds(over), "fig1 pred_dem above n");
  PrecinctPredictions lost(clean.begin() + 1, clean.end());
  Rejects(RowConservation(lost, train_rows, voters), "fig1 dropped precinct");
  PrecinctPredictions degenerate = clean;  // a model that predicts one class
  for (PrecinctPrediction& d : degenerate) d.pred_dem = 0;
  Rejects(BeatsConstantShare(degenerate, votes), "fig1 single-class model");
}

void SqlChecks() {
  mlcs::io::VoterDataOptions data;
  data.num_voters = 5000;
  data.num_columns = 9;
  data.num_precincts = 50;
  auto voters = mlcs::io::GenerateVoters(data);
  mlcs::Database db;
  if (!voters.ok() ||
      !db.catalog().CreateTable("voters", voters.ValueOrDie(), true).ok()) {
    std::printf("FAIL could not create voters\n");
    ++g_failures;
    return;
  }
  const mlcs::Table& v = *voters.ValueOrDie();
  std::map<int32_t, std::pair<double, double>> groups;
  for (size_t r = 0; r < v.num_rows(); ++r) {
    if (v.column(2)->i32_data()[r] > 40) {
      groups[v.column(5)->i32_data()[r]].first += 1;
      groups[v.column(5)->i32_data()[r]].second += v.column(2)->i32_data()[r];
    }
  }
  Rows expected;
  for (const auto& [key, g] : groups) {
    expected.push_back({double(key), g.first, g.second});
  }
  auto result = db.Query(
      "SELECT party_reg, COUNT(*) AS n, SUM(age) AS s FROM voters WHERE "
      "age > 40 GROUP BY party_reg");
  if (!result.ok()) {
    std::printf("FAIL query did not run\n");
    ++g_failures;
    return;
  }
  Rows clean = ToRows(*result.ValueOrDie());
  Accepts(SameRows(clean, expected, false), "sql result equals loop answer");
  Rows changed = clean;
  changed[0][2] += 1;
  Rejects(SameRows(changed, expected, false), "sql one changed aggregate");
  Rows dropped(clean.begin() + 1, clean.end());
  Rejects(SameRows(dropped, expected, false), "sql one dropped row");
  Rows swapped = expected;
  std::swap(swapped[0], swapped[1]);
  Rejects(SameRows(swapped, expected, true), "sql rows out of ORDER BY order");
}

void ServeChecks() {
  std::vector<int32_t> a = {1, 0, 1, 1, 0, 0, 1, 0};
  std::vector<int32_t> b = {1, 1, 1, 0, 0, 0, 1, 1};
  Accepts(ServeResponse(true, a, a, b), "serve labels of forest A");
  Accepts(ServeResponse(true, b, a, b), "serve labels of forest B");
  Accepts(ResponseCount(100, 100), "serve every response received");
  std::vector<int32_t> flipped = a;
  flipped[0] = 1 - flipped[0];
  Rejects(ServeResponse(true, flipped, a, b), "serve one flipped label");
  Rejects(ServeResponse(false, a, a, b), "serve non-kOk response");
  Rejects(ResponseCount(100, 99), "serve one dropped response");
}

}  // namespace

int main() {
  Fig1Checks();
  SqlChecks();
  ServeChecks();
  std::printf("%s: %d check(s) misbehaved\n",
              g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
