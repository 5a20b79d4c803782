// sql-wire: a fixed rotation of analytical queries sent by one TableClient
// over the columnar protocol, in a closed loop, against a TableServer whose
// tables were written with Database::SaveTo and re-attached with LoadFrom,
// so every scan goes through the block files and the buffer pool. An op is
// one query; a run attempts whole rotations.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <tuple>

#include "checks.h"
#include "client/client.h"
#include "client/server.h"
#include "exec/kernels.h"
#include "io/voter_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kVoters = 1'000'000;
constexpr size_t kColumns = 32;
constexpr size_t kPrecincts = 2751;
/// Rotations after the warm-up when this workload only fills in probes.
constexpr int kProbeRotations = 20;

struct Query {
  std::string sql;
  checks::Rows expected;
  bool ordered = false;
};

/// The rotation, with answers computed by plain loops over the generated
/// columns. Predicates are chosen to match rows: age spans 18-100 and
/// urban_score 0-10.
std::vector<Query> Rotation(const mlcs::Table& voters,
                            const mlcs::Table& precincts) {
  const auto& id = voters.column(0)->i32_data();
  const auto& precinct = voters.column(1)->i32_data();
  const auto& age = voters.column(2)->i32_data();
  const auto& party = voters.column(5)->i32_data();
  const auto& income = voters.column(6)->i32_data();
  const auto& urban = voters.column(7)->i32_data();
  const auto& years = voters.column(8)->i32_data();
  const size_t n = id.size();
  std::vector<Query> rotation;

  {  // Filtered GROUP BY over the lower half of the voter_id range.
    std::map<int32_t, std::pair<double, double>> groups;
    for (size_t r = 0; r < n; ++r) {
      if (id[r] < 500000 && age[r] > 40 && urban[r] >= 5) {
        groups[party[r]].first += 1;
        groups[party[r]].second += age[r];
      }
    }
    Query q{"SELECT party_reg, COUNT(*) AS n, SUM(age) AS s FROM voters "
            "WHERE voter_id < 500000 AND age > 40 AND urban_score >= 5 "
            "GROUP BY party_reg",
            {}, false};
    for (const auto& [key, g] : groups) {
      q.expected.push_back({double(key), g.first, g.second});
    }
    rotation.push_back(std::move(q));
  }
  {  // Join with precincts under a GROUP BY, upper half of voter_id.
    std::map<int32_t, double> dem_of;
    const auto& pid = precincts.column(0)->i32_data();
    const auto& dem = precincts.column(1)->i32_data();
    for (size_t k = 0; k < pid.size(); ++k) dem_of[pid[k]] = dem[k];
    std::map<int32_t, std::pair<double, double>> groups;
    for (size_t r = 0; r < n; ++r) {
      auto it = dem_of.find(precinct[r]);
      if (id[r] >= 500000 && age[r] < 30 && it != dem_of.end()) {
        groups[party[r]].first += it->second;
        groups[party[r]].second += 1;
      }
    }
    Query q{"SELECT party_reg, SUM(dem_votes) AS d, COUNT(*) AS n FROM "
            "voters JOIN precincts ON precinct_id = precinct_id WHERE "
            "voter_id >= 500000 AND age < 30 GROUP BY party_reg",
            {}, false};
    for (const auto& [key, g] : groups) {
      q.expected.push_back({double(key), g.first, g.second});
    }
    rotation.push_back(std::move(q));
  }
  {  // ORDER BY ... LIMIT; the voter_id range lets zone maps skip blocks.
    std::vector<std::tuple<int32_t, int32_t, int32_t>> rows;  // -inc,-age,id
    for (size_t r = 0; r < n; ++r) {
      if (id[r] < 400000 && urban[r] == 9) {
        rows.emplace_back(-income[r], -age[r], id[r]);
      }
    }
    std::sort(rows.begin(), rows.end());
    Query q{"SELECT voter_id, age, income_bracket FROM voters WHERE "
            "voter_id < 400000 AND urban_score = 9 ORDER BY income_bracket "
            "DESC, age DESC, voter_id LIMIT 100",
            {}, true};
    for (size_t i = 0; i < rows.size() && i < 100; ++i) {
      auto [neg_income, neg_age, voter] = rows[i];
      q.expected.push_back({double(voter), double(-neg_age),
                            double(-neg_income)});
    }
    rotation.push_back(std::move(q));
  }
  {  // Multi-expression arithmetic aggregate over the upper half of the
     // voter_id range (zone maps skip the lower half's blocks).
    double a = 0, b = 0, count = 0;
    for (size_t r = 0; r < n; ++r) {
      if (id[r] < 500000) continue;
      a += age[r] * 2 + income[r];
      b += years[r] - age[r];
      count += 1;
    }
    rotation.push_back(
        {"SELECT SUM(age * 2 + income_bracket) AS a, SUM(years_registered - "
         "age) AS b, COUNT(*) AS n FROM voters WHERE voter_id >= 500000",
         {{a, b, count}},
         true});
  }
  {  // A projection returning on the order of 10^5 rows (upper half).
    Query q{"SELECT voter_id, age, precinct_id FROM voters WHERE "
            "voter_id >= 500000 AND urban_score <= 4 AND age < 50",
            {}, false};
    for (size_t r = 0; r < n; ++r) {
      if (id[r] >= 500000 && urban[r] <= 4 && age[r] < 50) {
        q.expected.push_back({double(id[r]), double(age[r]),
                              double(precinct[r])});
      }
    }
    rotation.push_back(std::move(q));
  }
  return rotation;
}

/// Self time per operator kind, from one EXPLAIN ANALYZE rendering: each
/// node's "actual time" minus that of its direct children.
std::map<std::string, double> OperatorSelfMs(const std::string& plan) {
  struct Node {
    size_t depth;
    std::string kind;
    double ms;
  };
  std::vector<Node> nodes;
  size_t pos = 0;
  while (pos < plan.size()) {
    size_t end = plan.find('\n', pos);
    if (end == std::string::npos) end = plan.size();
    std::string line = plan.substr(pos, end - pos);
    pos = end + 1;
    size_t at = line.find("(actual time=");
    if (at == std::string::npos) continue;
    size_t indent = line.find_first_not_of(' ');
    std::string label = line.substr(indent);
    std::string kind = "other";
    for (const char* k : {"SCAN", "FILTER", "HASH JOIN", "AGGREGATE", "SORT",
                          "PROJECT", "LIMIT"}) {
      if (label.rfind(k, 0) == 0) kind = k;
    }
    nodes.push_back({indent / 2, kind,
                     std::strtod(line.c_str() + at + 13, nullptr)});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < nodes.size(); ++i) {
    double ms = nodes[i].ms;
    for (size_t j = i + 1;
         j < nodes.size() && nodes[j].depth > nodes[i].depth; ++j) {
      if (nodes[j].depth == nodes[i].depth + 1) ms -= nodes[j].ms;
    }
    self[nodes[i].kind] += ms;
  }
  return self;
}

std::string PlanText(const mlcs::Table& explain) {
  std::string text;
  for (size_t r = 0; r < explain.num_rows(); ++r) {
    auto v = explain.GetValue(r, 0);
    if (v.ok()) text += v.ValueOrDie().string_value() + "\n";
  }
  return text;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Direct probes: planning spans with a cold plan cache, EXPLAIN ANALYZE
/// operator self times, the add kernel, and wire versus in-process
/// latency of the same query. Per-query figures are means over the
/// rotation of per-query medians.
void ProbeSqlLayers(mlcs::Database* db, mlcs::client::TableClient* client,
                    const std::vector<Query>& rotation,
                    const mlcs::Column& left, const mlcs::Column& right,
                    std::vector<Metric>* layers) {
  constexpr int kReps = 5;
  std::map<std::string, std::vector<double>> stage_us;  // per-query medians
  uint64_t seen = MaxTraceId(ReadSpans(db, 0), 0);
  for (const Query& q : rotation) {
    std::map<std::string, std::vector<double>> samples;
    for (int rep = 0; rep < kReps; ++rep) {
      db->ClearPlanCache();
      CheckOk(db->Query(q.sql).status(), "cold-cache query");
      std::vector<SpanRow> spans = ReadSpans(db, seen);
      seen = MaxTraceId(spans, seen);
      for (const SpanRow& s : spans) {
        if (s.name == "sql.parse" || s.name == "sql.plan" ||
            s.name == "sql.optimize") {
          samples[s.name].push_back(s.duration_us);
        }
      }
    }
    for (auto& [name, v] : samples) stage_us[name].push_back(Median(v));
  }
  layers->push_back({"sql.parse_us", Mean(stage_us["sql.parse"]), "us"});
  layers->push_back({"sql.plan_us", Mean(stage_us["sql.plan"]), "us"});
  layers->push_back({"sql.optimize_us", Mean(stage_us["sql.optimize"]), "us"});

  std::map<std::string, std::vector<double>> op_ms;  // per rep, whole rotation
  for (int rep = 0; rep < kReps; ++rep) {
    std::map<std::string, double> total;
    for (const Query& q : rotation) {
      auto explain = db->Query("EXPLAIN ANALYZE " + q.sql);
      CheckOk(explain.status(), "EXPLAIN ANALYZE");
      for (auto& [kind, ms] : OperatorSelfMs(PlanText(*explain.ValueOrDie()))) {
        total[kind] += ms;
      }
    }
    for (const char* kind :
         {"SCAN", "FILTER", "HASH JOIN", "AGGREGATE", "SORT", "PROJECT"}) {
      op_ms[kind].push_back(total[kind] / rotation.size());
    }
  }
  layers->push_back({"exec.scan_ms", Median(op_ms["SCAN"]), "ms"});
  layers->push_back({"exec.filter_ms", Median(op_ms["FILTER"]), "ms"});
  layers->push_back({"exec.hash_join_ms", Median(op_ms["HASH JOIN"]), "ms"});
  layers->push_back({"exec.aggregate_ms", Median(op_ms["AGGREGATE"]), "ms"});
  layers->push_back({"exec.sort_ms", Median(op_ms["SORT"]), "ms"});
  layers->push_back({"exec.project_ms", Median(op_ms["PROJECT"]), "ms"});

  double add_s = MedianSeconds(7, [&] {
    CheckOk(mlcs::exec::BinaryKernel(mlcs::exec::BinOpKind::kAdd, left, right)
                .status(),
            "BinaryKernel add");
  });
  layers->push_back({"exec.kernel_add_rows_per_s",
                     static_cast<double>(left.size()) / add_s, "rows/s"});

  // Wire and in-process runs of a query alternate, and which goes first
  // alternates too; the overhead is the median of the paired differences,
  // so host drift and order effects cancel.
  std::vector<double> overhead_ms;
  for (const Query& q : rotation) {
    std::vector<double> diff_ms;
    auto wire = [&] {
      return MedianSeconds(1, [&] {
        CheckOk(client->Query(q.sql, mlcs::client::WireProtocol::kColumnar)
                    .status(),
                "wire query");
      });
    };
    auto local = [&] {
      return MedianSeconds(
          1, [&] { CheckOk(db->Query(q.sql).status(), "local query"); });
    };
    for (int rep = 0; rep < 2 * kReps + 1; ++rep) {
      double wire_s = 0, local_s = 0;
      if (rep % 2 == 0) {
        wire_s = wire();
        local_s = local();
      } else {
        local_s = local();
        wire_s = wire();
      }
      diff_ms.push_back((wire_s - local_s) * 1e3);
    }
    overhead_ms.push_back(Median(diff_ms));
  }
  layers->push_back({"client.wire_overhead_ms", Mean(overhead_ms), "ms"});
}

}  // namespace

void RunSqlWire(const Options& options, Mode mode, SetupClock* setup,
                RunResult* result, std::vector<Metric>* layers) {
  mlcs::io::VoterDataOptions data;
  data.num_voters = kVoters;
  data.num_columns = kColumns;
  data.num_precincts = kPrecincts;
  data.seed = options.seed;
  std::vector<Query> rotation;
  // The add-kernel probe's inputs: two 1M-row INT32 columns.
  mlcs::ColumnPtr kernel_left, kernel_right;
  // Write the tables as block files, then serve them from a fresh
  // Database that attaches the files: scans go through the buffer pool.
  // The generated tables are released once written.
  std::string dir = options.workdir + "/sql_db";
  {
    auto voters = mlcs::io::GenerateVoters(data);
    CheckOk(voters.status(), "GenerateVoters");
    auto precincts = mlcs::io::GeneratePrecincts(data);
    CheckOk(precincts.status(), "GeneratePrecincts");
    {
      SetupClock::Exclusion exclude(setup);
      rotation = Rotation(*voters.ValueOrDie(), *precincts.ValueOrDie());
    }
    if (layers != nullptr) {
      kernel_left = voters.ValueOrDie()->column(2);    // age
      kernel_right = voters.ValueOrDie()->column(6);   // income_bracket
    }
    mlcs::Database staging;
    CheckOk(staging.catalog().CreateTable("voters", voters.ValueOrDie(), true),
            "create voters");
    CheckOk(staging.catalog().CreateTable("precincts", precincts.ValueOrDie(),
                                          true),
            "create precincts");
    CheckOk(staging.SaveTo(dir), "Database::SaveTo");
  }
  mlcs::Database db;
  CheckOk(db.LoadFrom(dir), "Database::LoadFrom");
  mlcs::client::TableServer server(&db);
  CheckOk(server.Start(0), "TableServer::Start");
  mlcs::client::TableClient client;
  CheckOk(client.Connect("127.0.0.1", server.port()), "TableClient::Connect");

  // One op of the rotation; returns its latency, or < 0 when it failed.
  auto run_op = [&](const Query& q, bool counted) -> double {
    if (counted) ++result->attempted;
    Clock::time_point start = Clock::now();
    auto r = client.Query(q.sql, mlcs::client::WireProtocol::kColumnar);
    double seconds = SecondsSince(start);
    std::string why =
        r.ok() ? checks::SameRows(checks::ToRows(*r.ValueOrDie()), q.expected,
                                  q.ordered)
               : "error: " + r.status().ToString();
    if (!why.empty()) {
      why = "sql op \"" + q.sql + "\": " + why;
      if (counted) {
        result->FailCheck(why);
      } else {
        result->MarkIncorrect(why);
      }
      return -1;
    }
    return seconds;
  };

  for (const Query& q : rotation) run_op(q, false);  // warm-up rotation
  double setup_s = setup->Seconds();

  std::map<std::string, double> before = ReadMetrics(&db);
  std::vector<double> op_s;
  Clock::time_point window = Clock::now();
  for (int round = 0; mode == Mode::kMeasure
                          ? SecondsSince(window) < options.seconds
                          : round < kProbeRotations;
       ++round) {
    for (const Query& q : rotation) {
      double seconds = run_op(q, true);
      if (seconds >= 0) op_s.push_back(seconds);
    }
  }
  std::map<std::string, double> after = ReadMetrics(&db);

  if (mode == Mode::kMeasure) {
    AddEndToEnd(setup_s, op_s, BusyRate(op_s), result, layers);
  }
  if (layers != nullptr) {
    double queries = std::max<double>(1, op_s.size());
    double hits = Delta(before, after, "mlcs.plan_cache.hits");
    double misses = Delta(before, after, "mlcs.plan_cache.misses");
    double pool_hits = Delta(before, after, "mlcs.bufpool.hits");
    double pool_misses = Delta(before, after, "mlcs.bufpool.misses");
    layers->push_back({"sql.plan_cache_hit_ratio",
                       hits / std::max(1.0, hits + misses), "ratio"});
    layers->push_back({"bufpool.hit_ratio",
                       pool_hits / std::max(1.0, pool_hits + pool_misses),
                       "ratio"});
    layers->push_back(
        {"bufpool.bytes_read_per_query",
         Delta(before, after, "mlcs.bufpool.bytes_read") / queries, "bytes"});
    layers->push_back({"bufpool.blocks_skipped_per_query",
                       Delta(before, after, "mlcs.bufpool.blocks_skipped") /
                           queries,
                       "count"});
    layers->push_back(
        {"storage.scan_bytes_per_query",
         Delta(before, after, "mlcs.scan.bytes_touched") / queries, "bytes"});
    layers->push_back({"storage.code_path_hits_per_query",
                       Delta(before, after, "mlcs.encode.code_path_hits") /
                           queries,
                       "count"});
    ProbeSqlLayers(&db, &client, rotation, *kernel_left, *kernel_right,
                   layers);
  }

  // The client disconnects before the server stops: TableServer::Stop()
  // joins connection threads that are blocked in recv() on a live socket.
  client.Disconnect();
  server.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
