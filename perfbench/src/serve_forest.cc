// serve-forest: an open loop of 16-row columnar predict requests against
// serve::InferenceServer, sent at a fixed rate from one generator thread
// over a few connections. Once a second the served model name is re-saved,
// alternating between two forests trained with different seeds; the
// server's snapshot cache holds one model, so each re-save is followed by
// a cache miss and an unpickle on the request path. An op is one request,
// timed from the moment it was due to be sent.

#include <poll.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "client/inference_client.h"
#include "io/voter_gen.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"
#include "modelstore/model_cache.h"
#include "modelstore/model_store.h"
#include "pipeline/voter_pipeline.h"
#include "serve/inference_server.h"
#include "serve/serve_protocol.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kTrainRows = 40'000;
constexpr size_t kColumns = 96;
constexpr size_t kPrecincts = 2751;
constexpr size_t kRequestRows = 16;
constexpr size_t kRequestPool = 256;
constexpr int kRatePerSecond = 2000;
constexpr size_t kConnections = 2;
constexpr int kProbeSeconds = 3;
constexpr double kDrainSeconds = 5;
/// Requests the generator keeps outstanding at most, half the server's
/// default admission bound: a stall of the host then delays sends, which
/// the latency (timed from the due time) shows, instead of filling the
/// admission queue and drawing `overloaded` answers.
const size_t kMaxInFlight =
    mlcs::serve::InferenceServerOptions{}.max_queue_requests / 2;
const char* const kModelName = "voter_rf";

/// Rows [begin, begin + rows) of `x`.
mlcs::ml::Matrix Slice(const mlcs::ml::Matrix& x, size_t begin, size_t rows) {
  mlcs::ml::Matrix out(rows, x.cols());
  for (size_t c = 0; c < x.cols(); ++c) {
    std::copy_n(x.column(c).begin() + static_cast<std::ptrdiff_t>(begin),
                rows, out.column(c).begin());
  }
  return out;
}

struct ServeData {
  mlcs::ml::Matrix train;
  mlcs::ml::Labels labels;
  std::vector<mlcs::ml::Matrix> requests;
};

/// Voter features (every column but voter_id) and the pipeline's
/// precinct-share labels; the rows after the training rows become the
/// request pool.
ServeData MakeData(uint64_t seed) {
  mlcs::io::VoterDataOptions data;
  data.num_voters = kTrainRows + kRequestPool * kRequestRows;
  data.num_columns = kColumns;
  data.num_precincts = kPrecincts;
  data.seed = seed;
  auto voters = mlcs::io::GenerateVoters(data);
  CheckOk(voters.status(), "GenerateVoters");
  auto precincts = mlcs::io::GeneratePrecincts(data);
  CheckOk(precincts.status(), "GeneratePrecincts");
  const mlcs::Table& v = *voters.ValueOrDie();
  const mlcs::Table& p = *precincts.ValueOrDie();
  std::vector<double> share(kPrecincts, 0.5);
  for (size_t k = 0; k < p.num_rows(); ++k) {
    double dem = p.column(1)->i32_data()[k];
    double rep = p.column(2)->i32_data()[k];
    share[static_cast<size_t>(p.column(0)->i32_data()[k])] =
        dem + rep > 0 ? dem / (dem + rep) : 0.5;
  }
  mlcs::ColumnPtr labels = mlcs::pipeline::GenerateLabelColumnFactorized(
      *v.column(0), *v.column(1), share, seed);
  std::vector<mlcs::ColumnPtr> features;
  for (size_t c = 1; c < v.num_columns(); ++c) features.push_back(v.column(c));
  auto x = mlcs::ml::Matrix::FromColumns(features);
  CheckOk(x.status(), "Matrix::FromColumns");
  ServeData out;
  out.train = Slice(x.ValueOrDie(), 0, kTrainRows);
  out.labels.assign(labels->i32_data().begin(),
                    labels->i32_data().begin() + kTrainRows);
  for (size_t i = 0; i < kRequestPool; ++i) {
    out.requests.push_back(
        Slice(x.ValueOrDie(), kTrainRows + i * kRequestRows, kRequestRows));
  }
  return out;
}

std::unique_ptr<mlcs::ml::RandomForest> Train(const ServeData& data,
                                              uint64_t seed) {
  mlcs::ml::RandomForestOptions options;
  options.n_estimators = 8;
  options.max_depth = 10;
  options.seed = seed;
  auto forest = std::make_unique<mlcs::ml::RandomForest>(options);
  CheckOk(forest->Fit(data.train, data.labels), "RandomForest::Fit");
  return forest;
}

/// Re-saves the served model name once a second, alternating forests.
class ModelWriter {
 public:
  ModelWriter(mlcs::modelstore::ModelStore* store,
              const mlcs::ml::Model* first, const mlcs::ml::Model* second)
      : store_(store), models_{first, second},
        thread_([this] { Loop(); }) {}
  ~ModelWriter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ModelWriter(const ModelWriter&) = delete;
  ModelWriter& operator=(const ModelWriter&) = delete;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t k = 1;; ++k) {
      if (cv_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; })) {
        return;
      }
      CheckOk(store_->SaveModel(kModelName, *models_[k % 2], 0, kTrainRows),
              "ModelStore::SaveModel");
    }
  }

  mlcs::modelstore::ModelStore* store_;
  const mlcs::ml::Model* models_[2];
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

struct LoopStats {
  std::vector<double> latency_s;
  std::vector<double> late_s;
  double ops_per_s = 0;
};

/// The open-loop generator: sends request i at t0 + i / rate (or as soon
/// after as fewer than kMaxInFlight requests are outstanding), round-robin
/// over the connections, and collects responses on the same thread.
LoopStats OpenLoop(std::vector<std::unique_ptr<mlcs::client::InferenceClient>>&
                       clients,
                   const ServeData& data,
                   const std::vector<std::vector<int32_t>>& expect_a,
                   const std::vector<std::vector<int32_t>>& expect_b,
                   int rate, size_t total, RunResult* result) {
  LoopStats stats;
  std::vector<Clock::time_point> due(total);
  std::vector<std::unordered_map<uint64_t, size_t>> seq_of_id(
      clients.size());
  std::vector<pollfd> fds;
  for (auto& c : clients) fds.push_back({c->fd(), POLLIN, 0});
  Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](size_t i) {
    return t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                    1e9 * static_cast<double>(i) / rate));
  };
  size_t sent = 0, received = 0, ok = 0;
  Clock::time_point last_receive = t0;
  Clock::time_point give_up = due_at(total) + std::chrono::milliseconds(
                                                  int(kDrainSeconds * 1e3));
  result->attempted += total;
  while (received < total) {
    Clock::time_point now = Clock::now();
    bool may_send = sent < total && sent - received < kMaxInFlight;
    if (may_send && now >= due_at(sent)) {
      size_t conn = sent % clients.size();
      due[sent] = due_at(sent);
      auto id = clients[conn]->Send(kModelName,
                                    data.requests[sent % kRequestPool]);
      CheckOk(id.status(), "InferenceClient::Send");
      stats.late_s.push_back(SecondsBetween(due[sent], now));
      seq_of_id[conn][id.ValueOrDie()] = sent;
      ++sent;
      continue;
    }
    if (now >= give_up) break;
    Clock::time_point wake = may_send ? due_at(sent) : give_up;
    auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now);
    timespec timeout{static_cast<time_t>(wait.count() / 1'000'000'000),
                     static_cast<long>(wait.count() % 1'000'000'000)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (size_t conn = 0; conn < fds.size(); ++conn) {
      if ((fds[conn].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      auto response = clients[conn]->Receive();
      CheckOk(response.status(), "InferenceClient::Receive");
      Clock::time_point at = Clock::now();
      const mlcs::serve::PredictResponse& r = response.ValueOrDie();
      auto pending = seq_of_id[conn].find(r.request_id);
      if (pending == seq_of_id[conn].end()) {
        result->MarkIncorrect("response for an unknown request id");
        continue;
      }
      size_t seq = pending->second;
      seq_of_id[conn].erase(pending);
      ++received;
      std::string why = checks::ServeResponse(
          r.code == mlcs::serve::ServeCode::kOk, r.labels,
          expect_a[seq % kRequestPool], expect_b[seq % kRequestPool]);
      if (!why.empty()) {
        result->FailCheck("serve request: " + why + " (" +
                          mlcs::serve::ServeCodeToString(r.code) + ")");
        continue;
      }
      ++ok;
      last_receive = at;
      stats.latency_s.push_back(SecondsBetween(due[seq], at));
    }
  }
  std::string why = checks::ResponseCount(total, received);
  if (!why.empty()) {
    result->failed += total - received;
    result->MarkIncorrect("serve: " + why);
  }
  double span_s = SecondsBetween(t0, last_receive);
  stats.ops_per_s = span_s > 0 ? static_cast<double>(ok) / span_s : 0;
  return stats;
}

/// Median of `fn` per call in microseconds, timed in groups of `per`.
template <typename Fn>
double MedianCallUs(int groups, int per, Fn&& fn) {
  return MedianSeconds(groups, [&] {
           for (int i = 0; i < per; ++i) fn();
         }) *
         1e6 / per;
}

void ProbeServeLayers(mlcs::Database* db,
                      mlcs::modelstore::ModelStore* store,
                      const mlcs::ml::RandomForest& forest,
                      const ServeData& data, double mean_batch_rows,
                      std::vector<Metric>* layers) {
  mlcs::serve::PredictRequest request;
  request.request_id = 7;
  request.model_name = kModelName;
  request.features = data.requests[0];
  mlcs::ByteWriter encoded;
  mlcs::serve::EncodePredictRequest(request, mlcs::serve::Layout::kColumnar,
                                    &encoded);
  layers->push_back({"serve.encode_request_us", MedianCallUs(11, 200, [&] {
                       mlcs::ByteWriter w;
                       mlcs::serve::EncodePredictRequest(
                           request, mlcs::serve::Layout::kColumnar, &w);
                     }),
                     "us"});
  layers->push_back({"serve.decode_request_us", MedianCallUs(11, 200, [&] {
                       mlcs::ByteReader r(encoded.data());
                       CheckOk(mlcs::serve::DecodePredictRequest(&r).status(),
                               "DecodePredictRequest");
                     }),
                     "us"});

  auto blob = store->LoadModelBlob(kModelName);
  CheckOk(blob.status(), "LoadModelBlob");
  layers->push_back({"modelstore.load_blob_us", MedianCallUs(11, 20, [&] {
                       CheckOk(store->LoadModelBlob(kModelName).status(),
                               "LoadModelBlob");
                     }),
                     "us"});
  mlcs::modelstore::ModelCache warm(1);
  CheckOk(warm.Get(blob.ValueOrDie()).status(), "ModelCache::Get");
  layers->push_back({"modelstore.cache_hit_us", MedianCallUs(11, 20, [&] {
                       CheckOk(warm.Get(blob.ValueOrDie()).status(),
                               "ModelCache::Get");
                     }),
                     "us"});
  layers->push_back({"modelstore.cache_miss_ms", MedianSeconds(9, [&] {
                       mlcs::modelstore::ModelCache cold(1);
                       CheckOk(cold.Get(blob.ValueOrDie()).status(),
                               "ModelCache::Get");
                     }) * 1e3,
                     "ms"});

  size_t rows = std::max<size_t>(1, static_cast<size_t>(mean_batch_rows + 0.5));
  mlcs::ml::Matrix batch(rows, data.train.cols());
  for (size_t r = 0; r < rows; ++r) {
    const mlcs::ml::Matrix& src = data.requests[(r / kRequestRows) % kRequestPool];
    for (size_t c = 0; c < batch.cols(); ++c) {
      batch.column(c)[r] = src.column(c)[r % kRequestRows];
    }
  }
  layers->push_back({"ml.predict_batch_us", MedianCallUs(11, 20, [&] {
                       CheckOk(forest.Predict(batch).status(), "Predict");
                     }),
                     "us"});

  std::map<std::string, double> metrics = ReadMetrics(db);
  layers->push_back({"common.pool_dispatch_p50_us",
                     metrics["mlcs.wait.pool.dispatch.p50"], "us"});
}

}  // namespace

void RunServeForest(const Options& options, Mode mode, SetupClock* setup,
                    RunResult* result, std::vector<Metric>* layers) {
  ServeData data = MakeData(options.seed);

  // The two served forests and the expected labels (each forest's
  // in-process prediction for every request of the pool) are the
  // benchmark's own inputs and answers, so they are excluded from set-up
  // time.
  std::unique_ptr<mlcs::ml::RandomForest> forest_a, forest_b;
  std::vector<std::vector<int32_t>> expect_a, expect_b;
  {
    SetupClock::Exclusion exclude(setup);
    forest_a = Train(data, options.seed);
    forest_b = Train(data, options.seed + 1);
    for (const mlcs::ml::Matrix& x : data.requests) {
      auto a = forest_a->Predict(x);
      auto b = forest_b->Predict(x);
      CheckOk(a.status(), "Predict");
      CheckOk(b.status(), "Predict");
      expect_a.push_back(a.ValueOrDie());
      expect_b.push_back(b.ValueOrDie());
    }
  }

  mlcs::Database db;
  mlcs::modelstore::ModelStore store(&db);
  CheckOk(store.Init(), "ModelStore::Init");
  CheckOk(store.SaveModel(kModelName, *forest_a, 0, kTrainRows),
          "ModelStore::SaveModel");
  mlcs::modelstore::ModelCache cache(1);
  mlcs::serve::InferenceServerOptions server_options;
  server_options.model_cache = &cache;
  mlcs::serve::InferenceServer server(&db, &store, server_options);
  CheckOk(server.Start(0), "InferenceServer::Start");
  std::vector<std::unique_ptr<mlcs::client::InferenceClient>> clients;
  for (size_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<mlcs::client::InferenceClient>());
    CheckOk(clients.back()->Connect("127.0.0.1", server.port()),
            "InferenceClient::Connect");
  }
  auto warm = clients[0]->Call(kModelName, data.requests[0]);
  CheckOk(warm.status(), "warm-up request");
  std::string why = checks::ServeResponse(
      warm.ValueOrDie().code == mlcs::serve::ServeCode::kOk,
      warm.ValueOrDie().labels, expect_a[0], expect_b[0]);
  if (!why.empty()) result->MarkIncorrect("serve warm-up: " + why);
  double setup_s = setup->Seconds();

  uint64_t seen_trace = 0;
  if (layers != nullptr) seen_trace = MaxTraceId(ReadSpans(&db, 0), 0);
  mlcs::serve::InferenceServerStats before = server.stats();
  int seconds = mode == Mode::kMeasure ? options.seconds : kProbeSeconds;
  int rate = options.rate > 0 ? options.rate : kRatePerSecond;
  LoopStats loop;
  {
    ModelWriter writer(&store, forest_a.get(), forest_b.get());
    loop = OpenLoop(clients, data, expect_a, expect_b, rate,
                    static_cast<size_t>(rate) * seconds, result);
  }
  mlcs::serve::InferenceServerStats after = server.stats();

  if (mode == Mode::kMeasure) {
    AddEndToEnd(setup_s, loop.latency_s, loop.ops_per_s, result, layers);
  }
  if (layers != nullptr) {
    double batches = std::max<double>(
        1, after.batches_executed - before.batches_executed);
    layers->push_back(
        {"serve.requests_per_batch",
         (after.batched_requests - before.batched_requests) / batches,
         "requests"});
    layers->push_back({"serve.queue_peak",
                       static_cast<double>(after.peak_queue_depth),
                       "requests"});
    std::vector<double> predict_us;
    for (const SpanRow& s : ReadSpans(&db, seen_trace)) {
      if (s.name == "serve.predict") predict_us.push_back(s.duration_us);
    }
    layers->push_back({"serve.predict_span_us", Median(predict_us), "us"});
    // The plain p99 over the whole run, beside the windowed op_p99_ms:
    // rare stalls the windowed figure passes over show here.
    layers->push_back({"serve.run_p99_ms",
                       Quantile(loop.latency_s, 0.99) * 1e3, "ms"});
    layers->push_back({"serve.generator_late_p99_ms",
                       Quantile(loop.late_s, 0.99) * 1e3, "ms"});
    ProbeServeLayers(&db, &store, *forest_a, data,
                     (after.batched_rows - before.batched_rows) / batches,
                     layers);
  }

  for (auto& c : clients) c->Disconnect();
  server.Stop();
}

}  // namespace perfbench
