// The served workloads: an in-process server::QueryServer at session dop 1
// with four server::ServerClient connections sending a fixed statement mix.
// A closed-loop capacity phase measures throughput and the median latency;
// an open-loop phase at a fixed seeded arrival schedule measures latency
// from each request's due time. served_churn adds model swaps
// (RavenContext::UpdateModel on a seeded schedule) and ad-hoc statement
// texts that always miss the plan cache.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/flight.h"
#include "data/hospital.h"
#include "layers.h"
#include "ml/mlp.h"
#include "raven/raven.h"
#include "server/client.h"
#include "server/query_server.h"
#include "stats.h"
#include "steal.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using raven::Result;
using raven::Status;
using raven::Timer;
using raven::server::ServerResponse;
using raven::server::ServerResponseKind;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
constexpr std::size_t kPlanCacheCapacity = 64;
/// Open-loop arrival rates (statements/s), about a quarter to a third of the
/// closed-loop capacity each workload measured on a 4-vCPU host (about
/// 1300-1500/s and 1450-1550/s), and the latency limit of slo_attain_frac.
/// At half the capacity, arrivals often found all four connections busy
/// and the wait for one dominated the open-loop latency.
constexpr double kReadsRate = 400.0;
constexpr double kChurnRate = 450.0;
constexpr double kSloMillis = 25.0;
/// Mean gap between model swaps in served_churn.
constexpr double kSwapMeanSeconds = 0.25;
constexpr int kPointIds = 32;
constexpr int kAdhocTexts = 64;  // per model: 128 texts > plan cache size
const int kThresholds[] = {4, 6, 8, 10};

std::string FlightMlpScript() {
  return "from sklearn.pipeline import Pipeline, FeatureUnion\n"
         "from sklearn.preprocessing import StandardScaler, OneHotEncoder\n"
         "from sklearn.neural_network import MLPRegressor\n"
         "\n"
         "model_pipeline = Pipeline([\n"
         "    ('union', FeatureUnion([\n"
         "        ('scaler', StandardScaler(columns=['dep_hour', 'distance',\n"
         "            'day_of_week'])),\n"
         "        ('onehot', OneHotEncoder(columns=['airline', 'origin',\n"
         "            'dest']))\n"
         "    ])),\n"
         "    ('clf', MLPRegressor(max_iter=8))\n"
         "])\n";
}

/// The flight featurizer with a deterministic 8-layer, width-16 MLP head;
/// `version` changes the weights.
Result<raven::ml::ModelPipeline> MakeFlightMlp(
    const raven::data::FlightDataset& flights, int version) {
  RAVEN_ASSIGN_OR_RETURN(auto pipeline,
                         raven::data::TrainFlightLogreg(flights, 0.01, 2));
  const std::int64_t features = pipeline.NumFeatures();
  constexpr std::int64_t kWidth = 16;
  constexpr int kDepth = 8;
  raven::ml::Mlp mlp;
  std::int64_t in = features;
  for (int l = 0; l <= kDepth; ++l) {
    const bool last = l == kDepth;
    raven::ml::DenseLayer layer;
    layer.in = in;
    layer.out = last ? 1 : kWidth;
    layer.activation = last ? raven::ml::Activation::kSigmoid
                            : raven::ml::Activation::kRelu;
    layer.weights.resize(static_cast<std::size_t>(layer.in * layer.out));
    layer.bias.assign(static_cast<std::size_t>(layer.out), 0.01f);
    for (std::size_t i = 0; i < layer.weights.size(); ++i) {
      layer.weights[i] = 0.2f * std::sin(0.37f * static_cast<float>(i + 1) +
                                         0.5f * static_cast<float>(version));
    }
    mlp.AddLayer(std::move(layer));
    in = kWidth;
  }
  pipeline.predictor = std::move(mlp);
  return pipeline;
}

/// One statement instance a client sends.
struct Request {
  std::string key;    ///< reference key (without model version)
  std::string model;  ///< model the result depends on, or empty
  std::string sql;    ///< text form: the reference and replay statement
  /// Prepared execution (EXECUTE name(params)) instead of `sql`.
  std::string prepared;
  std::vector<double> params;
  std::int64_t base_rows = 0;
};

/// Swap counters of one model: version = count % 2. A statement sent when
/// `finished` read f0 and answered when `started` read s1 may have seen
/// any version in [f0, s1].
struct ModelSwaps {
  std::atomic<std::int64_t> started{0};
  std::atomic<std::int64_t> finished{0};
};

struct ServedFixture {
  bool churn = false;
  std::unique_ptr<raven::RavenContext> ctx;
  std::unique_ptr<raven::server::QueryServer> server;
  std::int64_t patients = 0;
  std::int64_t flights = 0;
  std::vector<std::int64_t> point_ids;
  raven::ml::ModelPipeline los[2];
  raven::ml::ModelPipeline delay[2];
  References refs;
  ModelSwaps los_swaps;
  ModelSwaps delay_swaps;

  ~ServedFixture() {
    if (server != nullptr) server->Stop();
  }

  /// Mix slots: 0 point PREDICT (prepared), 1 inlined-tree PREDICT
  /// (prepared), 2 running example, 3 GROUP BY, 4 ORDER BY LIMIT; churn adds
  /// 5/6, ad-hoc PREDICT texts with fresh literals. Both counts are odd so
  /// the latency median stays inside one statement's mode.
  std::int64_t mix_size() const { return churn ? 7 : 5; }

  Request MakeRequest(std::int64_t slot, std::uint64_t draw) const {
    Request r;
    switch (slot) {
      case 0: {
        const std::int64_t id = point_ids[draw % point_ids.size()];
        r.key = "point:" + std::to_string(id);
        r.model = "delay";
        r.sql = PointSql(std::to_string(id));
        r.prepared = "point";
        r.params = {static_cast<double>(id)};
        r.base_rows = flights;
        break;
      }
      case 1: {
        const int t = kThresholds[draw % std::size(kThresholds)];
        r.key = "hot:" + std::to_string(t);
        r.model = "los";
        r.sql = HotSql(std::to_string(t));
        r.prepared = "hot";
        r.params = {static_cast<double>(t)};
        r.base_rows = patients;
        break;
      }
      case 2:
        r.key = "running_example";
        r.model = "los";
        r.sql = RunningExampleSql("los");
        r.base_rows = 3 * patients;
        break;
      case 3:
        r.key = "groupby";
        r.sql = GroupBySql();
        r.base_rows = flights;
        break;
      case 4:
        r.key = "orderby";
        r.sql = OrderBySql();
        r.base_rows = patients;
        break;
      case 5: {
        const auto k = draw % kAdhocTexts;
        r.key = "adhoc_los:" + std::to_string(k);
        r.model = "los";
        r.sql = AdhocLosSql(k);
        r.base_rows = patients;
        break;
      }
      default: {
        const auto k = draw % kAdhocTexts;
        r.key = "adhoc_delay:" + std::to_string(k);
        r.model = "delay";
        r.sql = PointSql(std::to_string(AdhocId(k)));
        r.base_rows = flights;
        break;
      }
    }
    return r;
  }

  static std::string PointSql(const std::string& id) {
    return "SELECT id, p FROM PREDICT(MODEL='delay', DATA=flights) WITH(p "
           "float) WHERE id = " +
           id;
  }
  static std::string HotSql(const std::string& threshold) {
    return "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p "
           "float) WHERE p > " +
           threshold + " LIMIT 20";
  }
  static std::string GroupBySql() {
    return "SELECT airline, COUNT(*) AS n, AVG(distance) AS d FROM flights "
           "WHERE distance > 400 GROUP BY airline";
  }
  static std::string OrderBySql() {
    return "SELECT id, age, bp FROM patients WHERE bp > 100 ORDER BY bp DESC "
           "LIMIT 25";
  }
  static std::string AdhocLosSql(std::uint64_t k) {
    char literal[32];
    std::snprintf(literal, sizeof(literal), "%.2f", 3.0 + 0.05 * k);
    return "SELECT id, p FROM PREDICT(MODEL='los', DATA=patients) WITH(p "
           "float) WHERE p > " +
           std::string(literal) + " LIMIT 10";
  }
  std::int64_t AdhocId(std::uint64_t k) const {
    return static_cast<std::int64_t>((k * 7919 + 13) %
                                     static_cast<std::uint64_t>(flights));
  }

  /// Every request a run can send (one per slot and reference key).
  std::vector<Request> AllRequests() const {
    std::vector<Request> out;
    std::set<std::string> seen;
    for (std::int64_t slot = 0; slot < mix_size(); ++slot) {
      const std::uint64_t variants =
          slot == 0 ? point_ids.size()
          : slot == 1 ? std::size(kThresholds)
          : slot >= 5 ? kAdhocTexts
                      : 1;
      for (std::uint64_t d = 0; d < variants; ++d) {
        Request r = MakeRequest(slot, d);
        if (seen.insert(r.key).second) out.push_back(std::move(r));
      }
    }
    return out;
  }

  Status SetModels(int version) {
    RAVEN_RETURN_IF_ERROR(ctx->UpdateModel(
        "los", raven::data::HospitalTreeScript(), los[version]));
    return ctx->UpdateModel("delay", FlightMlpScript(), delay[version]);
  }
};

std::string RefKey(const std::string& key, const std::string& model,
                   std::int64_t version) {
  return model.empty() ? key : key + "@" + std::to_string(version % 2);
}

Result<std::unique_ptr<ServedFixture>> MakeServed(const Options& options,
                                                  bool churn,
                                                  SetupTimes* times) {
  Timer total;
  auto f = std::make_unique<ServedFixture>();
  f->churn = churn;
  f->patients = Scaled(options, 4000);
  f->flights = Scaled(options, 8000);
  Timer datagen;
  const auto hospital =
      raven::data::MakeHospitalDataset(f->patients, options.seed);
  const auto flights =
      raven::data::MakeFlightDataset(f->flights, options.seed + 1);
  raven::Rng rng(options.seed * 131 + 7);
  for (int i = 0; i < kPointIds; ++i) {
    f->point_ids.push_back(static_cast<std::int64_t>(
        rng.NextUint(static_cast<std::uint64_t>(f->flights))));
  }
  times->datagen_s = datagen.ElapsedSeconds();

  Timer train;
  const auto sample = TrainingSample(2000);
  RAVEN_ASSIGN_OR_RETURN(f->los[0],
                         raven::data::TrainHospitalTree(sample, 5));
  RAVEN_ASSIGN_OR_RETURN(f->delay[0], MakeFlightMlp(flights, 0));
  if (churn) {
    RAVEN_ASSIGN_OR_RETURN(f->los[1],
                           raven::data::TrainHospitalTree(sample, 6));
    RAVEN_ASSIGN_OR_RETURN(f->delay[1], MakeFlightMlp(flights, 1));
  }
  times->train_s = train.ElapsedSeconds();

  raven::RavenOptions ro;
  ro.execution.parallelism = 1;
  f->ctx = std::make_unique<raven::RavenContext>(ro);
  raven::RavenContext& ctx = *f->ctx;
  RAVEN_RETURN_IF_ERROR(ctx.RegisterTable("patients", hospital.joined));
  RAVEN_RETURN_IF_ERROR(
      ctx.RegisterTable("patient_info", hospital.patient_info));
  RAVEN_RETURN_IF_ERROR(
      ctx.RegisterTable("blood_tests", hospital.blood_tests));
  RAVEN_RETURN_IF_ERROR(
      ctx.RegisterTable("prenatal_tests", hospital.prenatal_tests));
  RAVEN_RETURN_IF_ERROR(ctx.RegisterTable("flights", flights.flights));
  RAVEN_RETURN_IF_ERROR(
      ctx.InsertModel("los", raven::data::HospitalTreeScript(), f->los[0]));
  RAVEN_RETURN_IF_ERROR(
      ctx.InsertModel("delay", FlightMlpScript(), f->delay[0]));

  // References: embedded dop-1 runs, one per (statement, model version).
  Timer ref_timer;
  const std::vector<Request> all = f->AllRequests();
  for (int version = churn ? 1 : 0; version >= 0; --version) {
    RAVEN_RETURN_IF_ERROR(f->SetModels(version));
    for (const Request& r : all) {
      if (r.model.empty() && version != 0) continue;
      RAVEN_ASSIGN_OR_RETURN(raven::QueryResult q, ctx.Query(r.sql));
      f->refs[RefKey(r.key, r.model, version)] = TableBytes(q.table);
    }
  }
  times->reference_s = ref_timer.ElapsedSeconds();

  Timer start;
  raven::server::QueryServerOptions so;
  so.unix_socket_path = options.work_dir + "/raven.sock";
  so.plan_cache_capacity = kPlanCacheCapacity;
  so.admission.max_concurrent = kClients;
  so.admission.max_queue = 64;
  so.default_execution.parallelism = 1;
  so.default_execution.predict_batch_window_micros = 200;
  so.default_execution.predict_max_batch_rows = 64;
  f->server = std::make_unique<raven::server::QueryServer>(&ctx, so);
  RAVEN_RETURN_IF_ERROR(f->server->Start());
  times->server_start_s = start.ElapsedSeconds();

  // Warm the shared plan cache and the NNRT sessions with the mix.
  Timer warm;
  raven::server::ServerClient client;
  RAVEN_RETURN_IF_ERROR(client.ConnectUnix(so.unix_socket_path));
  for (std::int64_t slot = 0; slot < 5; ++slot) {
    RAVEN_ASSIGN_OR_RETURN(ServerResponse resp,
                           client.Query(f->MakeRequest(slot, 0).sql));
    RAVEN_RETURN_IF_ERROR(raven::server::ResponseStatus(resp));
  }
  times->warmup_s = warm.ElapsedSeconds();
  times->total_s = total.ElapsedSeconds();
  return f;
}

// ---------------------------------------------------------------------------
// Client side.

/// What one response taught us.
struct Sample {
  std::string key;      ///< reference key
  std::string replay;   ///< statement text for the replay
  bool ok = false;
  bool hit = false;
  double latency_ms = 0.0;    ///< from send (closed) or due time (open)
  double roundtrip_us = 0.0;  ///< send to receive
  double statement_us = 0.0;  ///< server-side statement time
  double queue_wait_us = 0.0;
  double lag_ms = 0.0;        ///< open loop: send time minus due time
  /// Seconds into the phase: answer time (closed loop) or due time (open).
  double at_s = 0.0;
  std::int64_t base_rows = 0;
};

class Connection {
 public:
  Status Open(const std::string& socket) {
    RAVEN_RETURN_IF_ERROR(client_.ConnectUnix(socket));
    for (const auto& [name, sql] :
         {std::pair<std::string, std::string>{"point",
                                              ServedFixture::PointSql("?")},
          {"hot", ServedFixture::HotSql("?")}}) {
      RAVEN_ASSIGN_OR_RETURN(ServerResponse resp,
                             client_.Query("PREPARE " + name + " AS " + sql));
      RAVEN_RETURN_IF_ERROR(raven::server::ResponseStatus(resp));
    }
    return Status::OK();
  }

  /// Sends `r`, checks the answer against the references live during the
  /// call, and fills everything but latency_ms and lag_ms.
  Sample Send(ServedFixture* f, const Request& r,
              SpanLog* log, Report* report) {
    Sample s;
    s.key = r.key;
    s.replay = r.sql;
    s.base_rows = r.base_rows;
    ModelSwaps* swaps = r.model == "los"     ? &f->los_swaps
                        : r.model == "delay" ? &f->delay_swaps
                                             : nullptr;
    const std::int64_t first =
        swaps != nullptr ? swaps->finished.load(std::memory_order_acquire)
                         : 0;
    const double t0 = log != nullptr ? log->NowUs() : 0.0;
    Timer timer;
    Result<ServerResponse> resp = r.prepared.empty()
                                      ? client_.Query(r.sql)
                                      : client_.ExecutePrepared(r.prepared,
                                                                r.params);
    s.roundtrip_us = timer.ElapsedMicros();
    const std::int64_t last =
        swaps != nullptr ? swaps->started.load(std::memory_order_acquire) : 0;
    std::string why;
    if (!resp.ok()) {
      why = resp.status().ToString();
    } else if (resp->kind != ServerResponseKind::kTable) {
      why = resp->kind == ServerResponseKind::kBusy ? "busy: " + resp->message
                                                    : resp->message;
    } else {
      s.hit = resp->plan_cache_hit;
      s.statement_us = resp->total_millis * 1000.0;
      s.queue_wait_us = resp->queue_wait_micros;
      const std::string bytes = TableBytes(resp->table);
      for (std::int64_t v = first; v <= std::min(last, first + 1); ++v) {
        if (bytes == f->refs.at(RefKey(r.key, r.model, v))) s.ok = true;
      }
      if (!s.ok) why = "result differs from reference";
    }
    report->Count(r.key.substr(0, r.key.find(':')), s.ok, why);
    if (log != nullptr && resp.ok()) {
      const std::int64_t stmt = log->NextStatement();
      const double t1 = t0 + s.roundtrip_us;
      const double stmt_us = std::min(s.statement_us, s.roundtrip_us);
      const double end = t1 - (s.roundtrip_us - stmt_us) / 2.0;
      const std::int64_t root =
          log->Add({0, -1, stmt, "server.roundtrip", t0, t1, false});
      const std::int64_t st = log->Add(
          {0, root, stmt, "server.statement", end - stmt_us, end, true});
      if (s.queue_wait_us > 0.0) {
        const double q = std::min(s.queue_wait_us, stmt_us);
        log->Add({0, st, stmt, "server.admission_wait", end - stmt_us,
                  end - stmt_us + q, true});
      }
    }
    return s;
  }

 private:
  raven::server::ServerClient client_;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  std::vector<double> available;  ///< per window: 1 - hypervisor steal
  std::int64_t scheduled = 0;  ///< open loop: arrivals in the schedule
};

/// Closed loop: each connection sends its next statement as soon as the
/// previous one answers. Statement choice is seeded per connection.
PhaseResult RunCapacity(ServedFixture* f, std::vector<Connection>* conns,
                        std::uint64_t seed, double seconds, SpanLog* log,
                        Report* report) {
  std::vector<std::vector<Sample>> per(conns->size());
  const StealSampler steal;
  Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      raven::Rng rng(seed * 1000003 + c);
      while (wall.ElapsedSeconds() < seconds) {
        const auto slot = static_cast<std::int64_t>(
            rng.NextUint(static_cast<std::uint64_t>(f->mix_size())));
        const Request r = f->MakeRequest(slot, rng.NextU64());
        Sample s = (*conns)[c].Send(f, r, log, report);
        s.latency_ms = s.roundtrip_us / 1000.0;
        s.at_s = wall.ElapsedSeconds();
        per[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult out;
  out.wall_s = wall.ElapsedSeconds();
  out.available = steal.Available(out.wall_s, kWindows);
  for (auto& v : per) {
    for (auto& s : v) out.samples.push_back(std::move(s));
  }
  return out;
}

/// Open loop over a seeded Poisson schedule. A connection takes the next
/// arrival when it is free, waits for its due time, and the latency runs
/// from the due time, so time spent waiting for a busy connection counts.
/// Arrivals still unsent at twice the phase length are counted as failed.
PhaseResult RunOpenLoop(ServedFixture* f, std::vector<Connection>* conns,
                        std::uint64_t seed, double rate, double seconds,
                        SpanLog* log, Report* report) {
  const std::vector<Arrival> schedule =
      MakeSchedule(seed, rate, seconds, f->mix_size());
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Sample>> per(conns->size());
  const StealSampler steal;
  const auto start = Clock::now();
  const auto give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(2.0 * seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= schedule.size()) return;
        const Arrival& a = schedule[i];
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(a.due_s));
        if (Clock::now() > give_up) {
          // A backlog this deep means the server cannot keep up; the
          // arrival counts as a failed request rather than stretching the
          // run without bound.
          report->Count("open_loop_backlog", false,
                        "not sent: generator backlog past the phase");
          continue;
        }
        std::this_thread::sleep_until(due);
        const Request r = f->MakeRequest(a.statement, a.draw);
        const auto sent = Clock::now();
        Sample s = (*conns)[c].Send(f, r, log, report);
        const auto done = Clock::now();
        s.lag_ms =
            std::chrono::duration<double, std::milli>(sent - due).count();
        s.latency_ms =
            std::chrono::duration<double, std::milli>(done - due).count();
        s.at_s = a.due_s;
        per[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult out;
  out.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  out.scheduled = static_cast<std::int64_t>(schedule.size());
  out.available = steal.Available(seconds, kWindows);
  for (auto& v : per) {
    for (auto& s : v) out.samples.push_back(std::move(s));
  }
  return out;
}

/// Swaps both models between their two versions on a seeded schedule until
/// `stop` is set.
void SwapModels(ServedFixture* f, std::uint64_t seed, std::atomic<bool>* stop,
                Report* report) {
  raven::Rng rng(seed * 7 + 3);
  while (!stop->load()) {
    const double gap = -std::log(1.0 - rng.NextDouble()) * kSwapMeanSeconds;
    const auto until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(gap));
    while (!stop->load() && Clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (stop->load()) return;
    for (auto [name, swaps] :
         {std::pair<const char*, ModelSwaps*>{"los", &f->los_swaps},
          {"delay", &f->delay_swaps}}) {
      const std::int64_t v = swaps->started.fetch_add(1) + 1;
      const bool is_los = std::string(name) == "los";
      Status s = f->ctx->UpdateModel(
          name,
          is_los ? raven::data::HospitalTreeScript() : FlightMlpScript(),
          is_los ? f->los[v % 2] : f->delay[v % 2]);
      swaps->finished.fetch_add(1, std::memory_order_release);
      report->Count("model_swap", s.ok(), s.ToString());
    }
  }
}

/// Runs SwapModels on its own thread from construction until Stop() or
/// destruction, so the thread is joined on every exit path.
class Swapper {
 public:
  Swapper(ServedFixture* f, std::uint64_t seed, Report* report)
      : thread_([this, f, seed, report] {
          SwapModels(f, seed, &stop_, report);
        }) {}
  ~Swapper() { Stop(); }

  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after stop_ exists
};

/// The frontend/optimizer/runtime numbers of a served run: every distinct
/// statement text is replayed once through Analyze/Optimize/GenerateSql/
/// Execute at the server's dop, weighted by how often the run sent it
/// (execution) and how often it missed the plan cache (planning).
void Replay(ServedFixture* f, const std::vector<Sample>& samples,
            Report* report) {
  struct Weights {
    double sent = 0.0;
    double missed = 0.0;
  };
  std::map<std::string, Weights> texts;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    texts[s.replay].sent += 1.0;
    if (!s.hit) texts[s.replay].missed += 1.0;
  }
  raven::RavenContext& ctx = *f->ctx;
  ctx.optimizer_options().target_parallelism = 1;
  raven::runtime::ExecutionOptions exec_options;
  exec_options.parallelism = 1;
  LayerTotals totals;
  for (const auto& [sql, w] : texts) {
    Timer t;
    auto plan = ctx.analyzer().Analyze(sql);
    const double analyze = t.ElapsedMicros();
    if (!plan.ok()) continue;
    t.Reset();
    raven::optimizer::OptimizationReport optimization;
    if (!ctx.cross_optimizer().Optimize(&*plan, &optimization).ok()) continue;
    const double optimize = t.ElapsedMicros();
    t.Reset();
    const std::string generated = raven::runtime::GenerateSql(*plan->root());
    const double codegen = t.ElapsedMicros();
    t.Reset();
    raven::runtime::ExecutionStats exec;
    if (!ctx.executor().Execute(*plan, exec_options, &exec).ok()) continue;
    const double execute = t.ElapsedMicros();
    totals.Add(w.sent, w.missed, optimization, analyze, optimize, codegen,
               execute, exec);
  }
  totals.Fill(report);
}

void ReportServerLayers(const std::vector<Sample>& samples, Report* report) {
  std::vector<double> roundtrip, queue_wait;
  double hits = 0, statement = 0, wire = 0, hit_us = 0, miss_us = 0;
  std::int64_t ok = 0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    ++ok;
    roundtrip.push_back(s.roundtrip_us);
    queue_wait.push_back(s.queue_wait_us);
    statement += s.statement_us;
    wire += s.roundtrip_us - s.statement_us;
    (s.hit ? hit_us : miss_us) += s.statement_us;
    hits += s.hit ? 1 : 0;
  }
  if (ok == 0) return;
  const double n = static_cast<double>(ok);
  report->Set("server.plan_cache_hit_frac", hits / n, "fraction", ok);
  report->Set("server.hit_statement_us", hits > 0 ? hit_us / hits : 0.0, "us",
              static_cast<std::int64_t>(hits));
  report->Set("server.miss_statement_us",
              n > hits ? miss_us / (n - hits) : 0.0, "us",
              static_cast<std::int64_t>(n - hits));
  report->Set("server.roundtrip_us.p50", Percentile(roundtrip, 0.5), "us", ok);
  report->Set("server.roundtrip_us.p99", Percentile(roundtrip, 0.99), "us",
              ok);
  report->Set("server.statement_us", statement / n, "us", ok);
  report->Set("server.wire_us", wire / n, "us", ok);
  report->Set("server.queue_wait_us.p50", Percentile(queue_wait, 0.5), "us",
              ok);
  report->Set("server.queue_wait_us.p99", Percentile(queue_wait, 0.99), "us",
              ok);
}

}  // namespace

Status RunServed(const Options& options, bool churn, Report* report) {
  std::unique_ptr<ServedFixture> f;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < std::max(1, options.setups); ++i) {
    f.reset();
    SetupTimes times;
    RAVEN_ASSIGN_OR_RETURN(f, MakeServed(options, churn, &times));
    setups.push_back(times);
  }
  ReportSetup(setups, report);
  report->Note("reference_hash", ReferencesHash(f->refs));

  std::vector<Connection> conns(kClients);
  for (auto& c : conns) {
    RAVEN_RETURN_IF_ERROR(c.Open(f->server->unix_socket_path()));
  }
  std::optional<Swapper> swapper;
  if (churn) swapper.emplace(f.get(), options.seed, report);
  const double rate = churn ? kChurnRate : kReadsRate;

  if (!options.trace) {
    const PhaseResult cap = RunCapacity(f.get(), &conns, options.seed,
                                        options.seconds / 2, nullptr, report);
    const PhaseResult open =
        RunOpenLoop(f.get(), &conns, options.seed, rate, options.seconds / 2,
                    nullptr, report);
    if (swapper) swapper->Stop();
    std::vector<Completion> done;
    std::vector<Timed> cap_timed;
    for (const Sample& s : cap.samples) {
      if (s.ok) done.push_back({s.at_s, static_cast<double>(s.base_rows)});
      cap_timed.push_back({s.at_s, s.latency_ms});
    }
    const auto n_cap = static_cast<std::int64_t>(cap.samples.size());
    ReportRates(done, cap.wall_s, cap.available, n_cap, report);
    // The headline median comes from the closed loop, where every CPU stays
    // busy. In the open loop a large share of each statement's latency is
    // thread wake-ups on idle vCPUs, which a shared host slowed by up to a
    // third from one minute to the next.
    report->Set("latency_p50_ms",
                WindowedPercentile(cap_timed, cap.wall_s, kWindows, 0.5,
                                   kLatencyQuantile, cap.available),
                "ms", n_cap);
    std::vector<double> latencies;
    std::int64_t within = 0;
    std::map<std::string, std::vector<double>> by_statement;
    for (const Sample& s : open.samples) {
      latencies.push_back(s.latency_ms);
      within += s.ok && s.latency_ms <= kSloMillis ? 1 : 0;
      by_statement[s.key.substr(0, s.key.find(':'))].push_back(s.latency_ms);
    }
    const auto n_open = static_cast<std::int64_t>(latencies.size());
    report->Set("open_latency_p50_ms", Percentile(latencies, 0.5), "ms",
                n_open);
    for (const auto& [key, v] : by_statement) {
      report->Set("open_latency_p50_ms." + key, Percentile(v, 0.5), "ms",
                  static_cast<std::int64_t>(v.size()));
    }
    if (SamplesBeyond(latencies, 0.99) >= 10) {
      report->Set("latency_p99_ms", Percentile(latencies, 0.99), "ms", n_open);
    }
    report->Set("slo_attain_frac",
                open.scheduled > 0
                    ? static_cast<double>(within) / open.scheduled
                    : 0.0,
                "fraction", open.scheduled);
    report->Note("open_loop_rate", std::to_string(rate));
    report->Note("slo_ms", std::to_string(kSloMillis));
    return Status::OK();
  }

  // Traced run: untraced capacity (overhead baseline), traced capacity,
  // traced open loop; then the replay for the planning/execution layers.
  ZeroLayerMetrics(report);
  raven::server::QueryServer& server = *f->server;
  const PhaseResult plain = RunCapacity(f.get(), &conns, options.seed,
                                        options.seconds / 4, nullptr, report);
  const auto cache_before = server.plan_cache().stats();
  const auto admission_before = server.admission().stats();
  const auto batcher_before = server.batcher().stats();
  const auto sessions_before = f->ctx->session_cache().stats();
  SpanLog log;
  const PhaseResult traced = RunCapacity(f.get(), &conns, options.seed + 1,
                                         options.seconds / 4, &log, report);
  const PhaseResult open =
      RunOpenLoop(f.get(), &conns, options.seed, rate, options.seconds / 2,
                  &log, report);
  if (swapper) swapper->Stop();
  const auto cache_after = server.plan_cache().stats();
  const auto admission_after = server.admission().stats();
  const auto batcher_after = server.batcher().stats();
  const auto sessions_after = f->ctx->session_cache().stats();

  std::vector<Sample> all = traced.samples;
  all.insert(all.end(), open.samples.begin(), open.samples.end());
  ReportServerLayers(all, report);
  report->Set("server.plan_cache_invalidations",
              static_cast<double>(cache_after.invalidations -
                                  cache_before.invalidations),
              "count");
  report->Set("server.plan_cache_evictions",
              static_cast<double>(cache_after.evictions -
                                  cache_before.evictions),
              "count");
  report->Set("server.admission_shed",
              static_cast<double>(admission_after.shed - admission_before.shed),
              "count");
  report->Set("server.admission_timeouts",
              static_cast<double>(admission_after.timeouts -
                                  admission_before.timeouts),
              "count");
  const auto flushed =
      batcher_after.batches_flushed - batcher_before.batches_flushed;
  report->Set("server.batch_rows",
              flushed > 0 ? static_cast<double>(batcher_after.rows_flushed -
                                                batcher_before.rows_flushed) /
                                static_cast<double>(flushed)
                          : 0.0,
              "rows", flushed);
  std::vector<double> lag;
  for (const Sample& s : open.samples) lag.push_back(s.lag_ms);
  report->Set("bench.sched_lag_ms", Percentile(lag, 0.99), "ms",
              static_cast<std::int64_t>(lag.size()));

  Replay(f.get(), all, report);
  ReportSessionCache(sessions_before, sessions_after, report);

  std::int64_t plain_ok = 0, traced_ok = 0;
  for (const Sample& s : plain.samples) plain_ok += s.ok ? 1 : 0;
  for (const Sample& s : traced.samples) traced_ok += s.ok ? 1 : 0;
  FinishTrace(options, log, plain_ok / plain.wall_s, traced_ok / traced.wall_s,
              report);
  return Status::OK();
}

}  // namespace perfbench
