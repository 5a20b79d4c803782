// fig1-indb: the paper's Figure-1 in-database channel, run back to back.
// An op is one pipeline::RunInDatabase call on a loaded Database: wrangle,
// the train UDF, the predict UDF and the per-precinct aggregate.

#include <cstdio>
#include <filesystem>

#include "checks.h"
#include "io/npy.h"
#include "io/voter_gen.h"
#include "ml/matrix.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"
#include "pipeline/voter_pipeline.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kVoters = 250'000;
constexpr size_t kColumns = 96;
constexpr size_t kPrecincts = 2751;
constexpr int kTrees = 8;
constexpr int kMaxDepth = 10;
/// Ops after the warm-up when this workload only fills in layer probes.
constexpr int kProbeOps = 3;

mlcs::pipeline::PipelineConfig Config(uint64_t seed) {
  mlcs::pipeline::PipelineConfig config;
  config.data.num_voters = kVoters;
  config.data.num_columns = kColumns;
  config.data.num_precincts = kPrecincts;
  config.data.seed = seed;
  config.n_estimators = kTrees;
  config.max_depth = kMaxDepth;
  config.seed = seed;
  return config;
}

std::vector<checks::PrecinctVotes> VotesOf(const mlcs::Table& precincts) {
  const auto& id = precincts.column(0)->i32_data();
  const auto& dem = precincts.column(1)->i32_data();
  const auto& rep = precincts.column(2)->i32_data();
  std::vector<checks::PrecinctVotes> votes;
  for (size_t r = 0; r < id.size(); ++r) votes.push_back({id[r], dem[r], rep[r]});
  return votes;
}

/// Training rows of the last pipeline, counted with a plain loop over the
/// `is_train` column the wrangle step wrote.
uint64_t CountTrainRows(mlcs::Database* db) {
  auto table = db->catalog().GetTable("voter_joined");
  if (!table.ok()) return 0;
  auto column = table.ValueOrDie()->ColumnByName("is_train");
  if (!column.ok()) return 0;
  auto values = column.ValueOrDie()->ToDoubleVector();
  if (!values.ok()) return 0;
  uint64_t rows = 0;
  for (double v : values.ValueOrDie()) rows += v != 0 ? 1 : 0;
  return rows;
}

/// Runs every fig1 check on one op's output; empty when it passes.
struct Fig1Checker {
  checks::PrecinctPredictions first_op;
  std::vector<checks::PrecinctVotes> votes;

  std::string Check(const mlcs::pipeline::PipelineResult& r,
                    mlcs::Database* db) {
    if (r.precinct_predictions == nullptr) return "no precinct predictions";
    checks::PrecinctPredictions got =
        checks::ToPrecinctPredictions(*r.precinct_predictions);
    if (first_op.empty()) first_op = got;
    for (std::string why :
         {checks::SamePredictions(got, first_op),
          checks::PredictionBounds(got),
          checks::RowConservation(got, CountTrainRows(db), kVoters),
          checks::BeatsConstantShare(got, votes)}) {
      if (!why.empty()) return why;
    }
    return "";
  }
};

std::vector<std::string> FeatureNames(const mlcs::Table& voters) {
  std::vector<std::string> names;
  for (size_t c = 1; c < voters.schema().num_fields(); ++c) {
    names.push_back(voters.schema().field(c).name);
  }
  return names;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

mlcs::ml::Matrix FeatureMatrix(const mlcs::Table& table, size_t cols) {
  std::vector<mlcs::ColumnPtr> features;
  for (size_t c = 0; c < cols; ++c) features.push_back(table.column(c));
  auto x = mlcs::ml::Matrix::FromColumns(features);
  CheckOk(x.status(), "Matrix::FromColumns");
  return std::move(x).ValueOrDie();
}

/// Direct calls into the ML layer on the rows of the last pipeline.
void ProbeMlLayers(mlcs::Database* db, const std::vector<std::string>& names,
                   uint64_t seed, std::vector<Metric>* layers) {
  std::string list = JoinNames(names);
  auto train = db->Query("SELECT " + list +
                         ", label FROM voter_joined WHERE is_train");
  CheckOk(train.status(), "training rows");
  auto test = db->Query("SELECT " + list +
                        " FROM voter_joined WHERE NOT is_train");
  CheckOk(test.status(), "test rows");
  const mlcs::Table& train_table = *train.ValueOrDie();
  const mlcs::Table& test_table = *test.ValueOrDie();

  double handoff_s = MedianSeconds(
      5, [&] { FeatureMatrix(train_table, names.size()); });
  layers->push_back({"udf.handoff_ms", handoff_s * 1e3, "ms"});

  mlcs::ml::Matrix x_train = FeatureMatrix(train_table, names.size());
  auto labels = train_table.column(names.size())->CastTo(mlcs::TypeId::kInt32);
  CheckOk(labels.status(), "label cast");
  const mlcs::ml::Labels& y = labels.ValueOrDie()->i32_data();
  mlcs::ml::RandomForestOptions options;
  options.n_estimators = kTrees;
  options.max_depth = kMaxDepth;
  options.seed = seed;
  mlcs::ml::RandomForest forest(options);
  double fit_s = MedianSeconds(3, [&] {
    forest = mlcs::ml::RandomForest(options);
    CheckOk(forest.Fit(x_train, y), "RandomForest::Fit");
  });
  layers->push_back({"ml.fit_s", fit_s, "s"});

  mlcs::ml::Matrix x_test = FeatureMatrix(test_table, names.size());
  double predict_s = MedianSeconds(3, [&] {
    CheckOk(forest.Predict(x_test).status(), "RandomForest::Predict");
  });
  layers->push_back({"ml.predict_rows_per_s",
                     static_cast<double>(x_test.rows()) / predict_s,
                     "rows/s"});

  std::string bytes = mlcs::ml::pickle::Dumps(forest);
  double dumps_s =
      MedianSeconds(9, [&] { bytes = mlcs::ml::pickle::Dumps(forest); });
  double loads_s = MedianSeconds(9, [&] {
    CheckOk(mlcs::ml::pickle::Loads(bytes).status(), "pickle::Loads");
  });
  layers->push_back({"pickle.dumps_ms", dumps_s * 1e3, "ms"});
  layers->push_back({"pickle.loads_ms", loads_s * 1e3, "ms"});
  layers->push_back(
      {"pickle.model_bytes", static_cast<double>(bytes.size()), "bytes"});
}

}  // namespace

void RunFig1InDb(const Options& options, Mode mode, SetupClock* setup,
                 RunResult* result, std::vector<Metric>* layers) {
  mlcs::pipeline::PipelineConfig config = Config(options.seed);
  auto voters = mlcs::io::GenerateVoters(config.data);
  CheckOk(voters.status(), "GenerateVoters");
  auto precincts = mlcs::io::GeneratePrecincts(config.data);
  CheckOk(precincts.status(), "GeneratePrecincts");
  std::vector<std::string> feature_names = FeatureNames(*voters.ValueOrDie());
  Fig1Checker checker;
  {
    SetupClock::Exclusion exclude(setup);
    checker.votes = VotesOf(*precincts.ValueOrDie());
  }

  mlcs::Database db;
  CheckOk(db.catalog().CreateTable("voters", voters.ValueOrDie(), true),
          "create voters");
  CheckOk(db.catalog().CreateTable("precincts", precincts.ValueOrDie(), true),
          "create precincts");

  auto warm = mlcs::pipeline::RunInDatabase(&db, config);
  CheckOk(warm.status(), "warm-up RunInDatabase");
  std::string why = checker.Check(warm.ValueOrDie(), &db);
  if (!why.empty()) result->MarkIncorrect("fig1 warm-up: " + why);
  double setup_s = setup->Seconds();

  uint64_t seen_trace = 0;
  if (layers != nullptr) seen_trace = MaxTraceId(ReadSpans(&db, 0), 0);
  std::vector<double> op_s, wrangle_s, train_s, predict_s;
  std::vector<double> train_self_us, predict_self_us;
  Clock::time_point window = Clock::now();
  for (int op = 0; mode == Mode::kMeasure
                       ? SecondsSince(window) < options.seconds
                       : op < kProbeOps;
       ++op) {
    ++result->attempted;
    Clock::time_point start = Clock::now();
    auto r = mlcs::pipeline::RunInDatabase(&db, config);
    double seconds = SecondsSince(start);
    why = r.ok() ? checker.Check(r.ValueOrDie(), &db)
                 : "error: " + r.status().ToString();
    if (!why.empty()) {
      result->FailCheck("fig1 op: " + why);
      continue;
    }
    op_s.push_back(seconds);
    wrangle_s.push_back(r.ValueOrDie().load_wrangle_seconds);
    train_s.push_back(r.ValueOrDie().train_seconds);
    predict_s.push_back(r.ValueOrDie().predict_seconds);
    if (layers != nullptr) {
      std::vector<SpanRow> spans = ReadSpans(&db, seen_trace);
      seen_trace = MaxTraceId(spans, seen_trace);
      for (double us : SelfTimesUs(spans, "udf:train_voter_rf")) {
        train_self_us.push_back(us);
      }
      for (double us : SelfTimesUs(spans, "udf:predict_voter_rf")) {
        predict_self_us.push_back(us);
      }
    }
  }
  if (mode == Mode::kMeasure) {
    AddEndToEnd(setup_s, op_s, BusyRate(op_s), result, layers);
  }
  if (layers != nullptr) {
    layers->push_back({"pipeline.wrangle_s", Median(wrangle_s), "s"});
    layers->push_back({"pipeline.train_s", Median(train_s), "s"});
    layers->push_back({"pipeline.predict_s", Median(predict_s), "s"});
    layers->push_back(
        {"udf.train_self_ms", Median(train_self_us) / 1e3, "ms"});
    layers->push_back(
        {"udf.predict_self_ms", Median(predict_self_us) / 1e3, "ms"});
    ProbeMlLayers(&db, feature_names, config.seed, layers);
  }

  // The expected answer, computed after the measurement so that neither
  // its time nor its memory counts: the same pipeline fed through an
  // independent data path (per-column .npy files). Every op already
  // matched the first op, so a mismatch here fails all of them.
  std::string voters_dir = options.workdir + "/fig1_voters_npy";
  std::string precincts_dir = options.workdir + "/fig1_precincts_npy";
  std::filesystem::create_directories(voters_dir);
  std::filesystem::create_directories(precincts_dir);
  CheckOk(mlcs::io::SaveTableAsNpyDir(*voters.ValueOrDie(), voters_dir),
          "stage voters npy");
  CheckOk(
      mlcs::io::SaveTableAsNpyDir(*precincts.ValueOrDie(), precincts_dir),
      "stage precincts npy");
  auto reference =
      mlcs::pipeline::RunFromNpyDir(voters_dir, precincts_dir, config);
  CheckOk(reference.status(), "RunFromNpyDir reference");
  std::filesystem::remove_all(voters_dir);
  std::filesystem::remove_all(precincts_dir);
  why = checks::SamePredictions(
      checker.first_op, checks::ToPrecinctPredictions(
                            *reference.ValueOrDie().precinct_predictions));
  if (!why.empty()) {
    result->failed += op_s.size();
    result->MarkIncorrect("fig1 against the npy data path: " + why);
  }
}

}  // namespace perfbench
