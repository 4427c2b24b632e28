// End-to-end benchmark of ReStore's serving path. Starts the epoll
// HttpServer in-process over the ten Table 1 tenants (H1-H5, M1-M5) and
// drives one workload from a single load-generator process:
//
//   hot-read       the Table 1 mix over warmed, unbounded completion caches
//   cold-complete  the same mix with EngineConfig::enable_cache = false
//   live-ingest    hot-read's mix plus a fixed-rate stream of ingest batches
//                  re-appending held-out tuples, under the drift-triggered
//                  refresh policy serve_housing ships
//
// Queries are sent open-loop at a fixed offered rate and timed from their
// intended send time; a closed-loop phase then measures max_qps. Every
// answer is checked. The last stdout line is one JSON result object; with
// --trace 1 it carries the per-layer metrics and the spans are written to
// .bench_out/. See README.md for the metric definitions.
//
//   restore_perfbench --workload hot-read --seed 1 --seconds 10 --trace 0

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/sql_parser.h"
#include "http_client.h"
#include "mix.h"
#include "server/server.h"
#include "stats/histogram.h"
#include "stats/stat_test.h"

namespace restore {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Fixed configuration (recorded in README.md) ---------------------------

constexpr uint64_t kDataSeed = 42;      // datagen seed: the data is fixed
constexpr size_t kPoolWidth = 1;        // RESTORE_NUM_THREADS equivalent
constexpr size_t kConnections = 4;      // generator threads == connections
constexpr size_t kVariants = 8;         // distinct instances per template
constexpr size_t kIngestBatchRows = 3;  // held-out tuples per ingest
constexpr char kReplayTenant[] = "h3";  // in-process appends (traced)
constexpr size_t kSetupRepeats = 3;     // set-ups per untraced run
constexpr double kOpenShare = 0.7;      // of --seconds; the rest is closed
constexpr double kMaxGenLagMs = 20.0;   // generator lag p99 that voids a run
constexpr double kReconTolerance = 0.10;
constexpr double kMonitorPeriodS = 0.05;
constexpr size_t kOrderLength = 1 << 18;  // precomputed request order
constexpr size_t kWindowSamples = 1000;    // queries per latency window, at least

struct WorkloadSpec {
  const char* name;
  bool cache;
  size_t cache_budget_bytes;  // 0: unbounded
  double query_rate;   // offered queries/s of the open-loop phase
  double ingest_rate;  // offered ingest batches/s (0: none)
  bool drift_refresh;  // serve_housing's drift-triggered RefreshPolicy
  std::vector<std::string> ingest_tenants;
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"hot-read", true, 0, 4000.0, 0.0, false, {}},
      {"cold-complete", false, 0, 200.0, 0.0, false, {}},
      {"live-ingest", true, 64 << 20, 4000.0, 30.0, true, {"h1", "h2"}},
  };
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

EngineConfig BenchEngine(const WorkloadSpec& spec) {
  // serve_housing's engine configuration.
  EngineConfig config;
  config.model.epochs = 6;
  config.model.hidden_dim = 24;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.model.min_train_steps = 150;
  config.max_candidates = 2;
  config.enable_cache = spec.cache;
  config.cache_budget_bytes = spec.cache_budget_bytes;
  return config;
}

RefreshPolicy BenchRefresh(bool drift) {
  RefreshPolicy refresh;  // default: background refresh disabled
  if (drift) {
    refresh.trigger = RefreshPolicy::Trigger::kDrift;
    refresh.drift_ks_threshold = 0.1;
    refresh.drift_psi_threshold = 0.25;
    refresh.max_concurrent_retrains = 1;
  }
  return refresh;
}

server::ServerConfig BenchServer() {
  server::ServerConfig config;
  config.port = 0;
  config.event_threads = 1;
  config.query_threads = 4;
  config.max_inflight_queries = 64;
  config.admission_queue_depth = 0;  // shed mode
  return config;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Percentile `p` of an open-loop phase's latencies, taken per window and
/// then the median over windows: consecutive windows of at least
/// kWindowSamples queries and one second each. A host stall that hits a
/// minority of the windows does not decide the figure.
double WindowedPercentile(std::vector<std::pair<double, double>> timed,
                          double rate, double p) {
  if (timed.empty()) return 0.0;
  std::sort(timed.begin(), timed.end());
  const size_t per_window = std::max(kWindowSamples, static_cast<size_t>(rate));
  const size_t windows = std::max<size_t>(1, timed.size() / per_window);
  const size_t size = timed.size() / windows;
  std::vector<double> per_window_values;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> latencies;
    const size_t end = w + 1 == windows ? timed.size() : (w + 1) * size;
    for (size_t i = w * size; i < end; ++i) {
      latencies.push_back(timed[i].second);
    }
    per_window_values.push_back(Percentile(std::move(latencies), p));
  }
  return Percentile(std::move(per_window_values), 0.5);
}

/// Completed queries per second of a closed-loop phase: the median over its
/// whole seconds (the whole phase when it is shorter than two seconds).
double WindowedRate(const std::vector<double>& completed_at, double seconds) {
  const size_t windows = static_cast<size_t>(seconds);
  if (windows < 2) return static_cast<double>(completed_at.size()) / seconds;
  std::vector<double> counts(windows, 0.0);
  for (double t : completed_at) {
    if (t < static_cast<double>(windows)) counts[static_cast<size_t>(t)] += 1;
  }
  return Percentile(std::move(counts), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---- Response checking -----------------------------------------------------

/// The per-query ExecStats the server appends to every /v1/query response.
struct Tail {
  double parse_s = 0, plan_s = 0, selection_s = 0, sample_s = 0,
         aggregate_s = 0;
  double tuples = 0, hits = 0, misses = 0;
  double StageSum() const {
    return parse_s + plan_s + selection_s + sample_s + aggregate_s;
  }
};

bool TailField(const std::string& body, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = body.rfind(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(body.c_str() + pos + needle.size(), nullptr);
  return true;
}

/// Splits a query response into its rows text and row count and parses the
/// stats tail. False when the body is not a well-formed query response.
bool ParseQueryBody(const std::string& body, std::string* rows,
                    double* row_count, Tail* tail) {
  const size_t begin = body.find("\"rows\":[");
  const size_t end = body.rfind("],\"row_count\":");
  if (begin == std::string::npos || end == std::string::npos ||
      end < begin + 8) {
    return false;
  }
  *rows = body.substr(begin + 8, end - begin - 8);
  return TailField(body, "row_count", row_count) &&
         TailField(body, "parse_seconds", &tail->parse_s) &&
         TailField(body, "plan_seconds", &tail->plan_s) &&
         TailField(body, "selection_seconds", &tail->selection_s) &&
         TailField(body, "sample_seconds", &tail->sample_s) &&
         TailField(body, "aggregate_seconds", &tail->aggregate_s) &&
         TailField(body, "tuples_completed", &tail->tuples) &&
         TailField(body, "cache_hits", &tail->hits) &&
         TailField(body, "cache_misses", &tail->misses);
}

/// Row count of a rows text: its top-level '[' ... ']' groups.
size_t CountRows(const std::string& rows) {
  size_t count = 0;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    const char c = rows[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      if (depth++ == 0) ++count;
    } else if (c == ']') {
      --depth;
    }
  }
  return count;
}

/// Entries of the string array `"<key>":[...]` in `body` (names hold no
/// commas or brackets); SIZE_MAX when absent.
size_t ArrayLength(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":[";
  const size_t begin = body.find(needle);
  if (begin == std::string::npos) return SIZE_MAX;
  const size_t open = begin + needle.size();
  const size_t close = body.find(']', open);
  if (close == std::string::npos) return SIZE_MAX;
  if (close == open) return 0;
  return 1 + std::count(body.begin() + open, body.begin() + close, ',');
}

/// Frozen data (hot-read, cold-complete): the answer must equal the pinned
/// one bit for bit. Moving epochs (live-ingest): the pinned schema, and
/// well-formed rows whose count matches the reported row_count.
bool CheckQuery(const HttpResponse& r, const MixQuery& q, bool exact,
                Tail* tail) {
  if (r.status != 200) return false;
  std::string rows;
  double row_count = -1;
  if (!ParseQueryBody(r.body, &rows, &row_count, tail)) return false;
  if (exact) {
    return rows == q.pinned_rows &&
           row_count == static_cast<double>(q.pinned_row_count);
  }
  return ArrayLength(r.body, "key_columns") == q.num_key_columns &&
         ArrayLength(r.body, "value_columns") == q.num_value_columns &&
         CountRows(rows) == static_cast<size_t>(row_count);
}

// ---- Spans -----------------------------------------------------------------

/// One traced interval. Spans of one request share `trace`; `parent` is the
/// span that caused it (0 for roots). `derived` spans are the server's stats
/// tail: durations reported by the program, laid out from the parent start.
struct Span {
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  bool derived = false;
};

/// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  uint64_t NewTrace() { return next_trace_.fetch_add(1) + 1; }
  uint64_t Add(uint64_t trace, uint64_t parent, const char* name,
               Clock::time_point start, Clock::time_point end) {
    return AddUs(trace, parent, name, Us(start), Us(end), false);
  }
  uint64_t AddUs(uint64_t trace, uint64_t parent, const char* name,
                 double start_us, double end_us, bool derived) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back({trace, id, parent, name, start_us, end_us, derived});
    return id;
  }
  /// Adds the stats-tail stages of a query as children of `parent`.
  void AddTail(uint64_t trace, uint64_t parent, double start_us,
               const Tail& t) {
    const std::pair<const char*, double> stages[] = {
        {"exec.parse", t.parse_s},
        {"exec.plan", t.plan_s},
        {"restore.selection", t.selection_s},
        {"restore.sample", t.sample_s},
        {"exec.aggregate", t.aggregate_s}};
    double at = start_us;
    for (const auto& [name, seconds] : stages) {
      AddUs(trace, parent, name, at, at + seconds * 1e6, true);
      at += seconds * 1e6;
    }
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"trace\":%llu,\"id\":%llu,\"parent\":%llu,"
                    "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                    "\"derived\":%s}%s\n",
                    static_cast<unsigned long long>(s.trace),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.name,
                    s.start_us, s.end_us, s.derived ? "true" : "false",
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_trace_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Load generation -------------------------------------------------------

/// One request as the generator saw it.
struct Sample {
  bool ingest = false;
  bool ok = false;
  double late_ms = 0;     // send - intended (open loop)
  double gen_lag_ms = 0;  // send - max(intended, connection free)
  double latency_ms = 0;  // done - intended (open) / done - send (closed)
  double rtt_ms = 0;      // done - send
  double at_s = 0;  // intended (open) or actual (closed) send, into phase
  size_t bytes = 0;
  Tail tail;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double seconds = 0;
};

/// The load generator: one thread per connection, shared across phases.
class Generator {
 public:
  Generator(const std::vector<MixQuery>* mix, std::vector<IngestBatch> ingest,
            bool exact, uint64_t seed, SpanLog* spans)
      : mix_(mix),
        ingest_(std::move(ingest)),
        exact_(exact),
        spans_(spans),
        origin_(Clock::now()) {
    // Seeded permutations of the mix, back to back: every window of
    // mix->size() requests holds each distinct query once, so a short phase
    // sees the same composition on every seed.
    Rng rng(seed);
    std::vector<uint32_t> perm(mix->size());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    while (order_.size() < kOrderLength) {
      rng.Shuffle(perm);
      order_.insert(order_.end(), perm.begin(), perm.end());
    }
  }

  bool Connect(uint16_t port, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      conns_.push_back(std::make_unique<HttpConnection>());
      if (!conns_.back()->Connect(port)) return false;
    }
    return true;
  }

  /// Open loop: queries at `query_rate`/s and ingests at `ingest_rate`/s,
  /// each timed from its intended send time. A request that finds every
  /// connection busy waits here and still counts from that time.
  PhaseResult OpenLoop(double seconds, double query_rate, double ingest_rate,
                       bool traced, const std::function<void()>& monitor) {
    struct Event {
      double t;
      bool ingest;
    };
    std::vector<Event> events;
    const size_t nq = static_cast<size_t>(seconds * query_rate);
    const size_t ni = static_cast<size_t>(seconds * ingest_rate);
    for (size_t k = 0; k < nq; ++k) events.push_back({k / query_rate, false});
    for (size_t k = 0; k < ni; ++k) {
      events.push_back({(k + 0.5) / ingest_rate, true});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });

    std::atomic<size_t> next{0};
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    return RunThreads(monitor, [&](HttpConnection& conn,
                                   std::vector<Sample>* out) {
      HttpResponse response;
      while (true) {
        const size_t e = next.fetch_add(1);
        if (e >= events.size()) break;
        const Clock::time_point free_at = Clock::now();
        const Clock::time_point intended =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(events[e].t));
        if (free_at < intended) std::this_thread::sleep_until(intended);
        const Clock::time_point send = Clock::now();
        Sample s = Send(conn, events[e].ingest, &response);
        const Clock::time_point done = Clock::now();
        s.late_ms = Seconds(send - intended) * 1e3;
        s.gen_lag_ms = Seconds(send - std::max(intended, free_at)) * 1e3;
        s.latency_ms = Seconds(done - intended) * 1e3;
        s.rtt_ms = Seconds(done - send) * 1e3;
        s.at_s = events[e].t;
        if (traced) TraceRequest(s, send, done);
        out->push_back(s);
      }
    });
  }

  /// Closed loop: every connection keeps one request in flight; the ingest
  /// stream (if any) keeps its fixed rate by taking turns on the
  /// connections when a batch is due.
  PhaseResult ClosedLoop(double seconds, double ingest_rate,
                         const std::function<void()>& monitor) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<uint64_t> ingests_sent{0};
    return RunThreads(monitor, [&](HttpConnection& conn,
                                   std::vector<Sample>* out) {
      HttpResponse response;
      while (Clock::now() < end) {
        bool ingest = false;
        if (ingest_rate > 0) {
          uint64_t sent = ingests_sent.load();
          const double due = Seconds(Clock::now() - start) * ingest_rate;
          ingest = static_cast<double>(sent) < due &&
                   ingests_sent.compare_exchange_strong(sent, sent + 1);
        }
        const Clock::time_point send = Clock::now();
        Sample s = Send(conn, ingest, &response);
        const Clock::time_point done = Clock::now();
        s.latency_ms = s.rtt_ms = Seconds(done - send) * 1e3;
        s.at_s = Seconds(send - start);
        out->push_back(s);
      }
    });
  }

  /// Ack times (seconds since the generator started) of `tenant`'s ingests.
  std::vector<double> AcksOf(size_t tenant) const {
    std::lock_guard<std::mutex> lock(ack_mu_);
    auto it = acks_.find(tenant);
    return it == acks_.end() ? std::vector<double>() : it->second;
  }
  double Now() const { return Seconds(Clock::now() - origin_); }
  size_t ingests_sent() const { return ingest_next_.load(); }
  bool ingest_exhausted() const { return ingest_exhausted_.load(); }

 private:
  /// Runs `body` on one thread per connection while the calling thread runs
  /// `monitor` every kMonitorPeriodS; joins every thread before returning.
  PhaseResult RunThreads(
      const std::function<void()>& monitor,
      const std::function<void(HttpConnection&, std::vector<Sample>*)>& body) {
    const Clock::time_point start = Clock::now();
    std::vector<std::vector<Sample>> per_conn(conns_.size());
    std::atomic<size_t> running{conns_.size()};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns_.size(); ++c) {
      threads.emplace_back([&, c] {
        body(*conns_[c], &per_conn[c]);
        running.fetch_sub(1);
      });
    }
    while (running.load() > 0) {
      if (monitor) monitor();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kMonitorPeriodS));
    }
    for (auto& t : threads) t.join();
    PhaseResult result;
    result.seconds = Seconds(Clock::now() - start);
    for (auto& v : per_conn) {
      result.samples.insert(result.samples.end(), v.begin(), v.end());
    }
    return result;
  }

  Sample Send(HttpConnection& conn, bool ingest, HttpResponse* response) {
    Sample s;
    s.ingest = ingest;
    if (ingest) {
      const size_t b = ingest_next_.fetch_add(1);
      if (b >= ingest_.size()) {
        ingest_exhausted_.store(true);
        return s;
      }
      s.ok = conn.RoundTrip(ingest_[b].request, response) &&
             response->status == 200;
      if (s.ok) {
        std::lock_guard<std::mutex> lock(ack_mu_);
        acks_[ingest_[b].tenant].push_back(Now());
      }
    } else {
      const uint64_t k = query_next_.fetch_add(1);
      const MixQuery& q = (*mix_)[order_[k % order_.size()]];
      s.ok = conn.RoundTrip(q.request, response) &&
             CheckQuery(*response, q, exact_, &s.tail);
      if (!s.ok) {
        std::fprintf(stderr, "perfbench: query failed (status %d): %s\n",
                     response->status, q.sql.c_str());
      }
    }
    s.bytes = response->wire_bytes;
    return s;
  }

  void TraceRequest(const Sample& s, Clock::time_point send,
                    Clock::time_point done) {
    const uint64_t trace = spans_->NewTrace();
    const uint64_t root = spans_->Add(
        trace, 0, s.ingest ? "server.http_ingest" : "server.http_query", send,
        done);
    if (!s.ingest && s.ok) {
      spans_->AddTail(trace, root, spans_->Us(send), s.tail);
    }
  }

  const std::vector<MixQuery>* mix_;
  const std::vector<IngestBatch> ingest_;
  const bool exact_;
  SpanLog* spans_;
  const Clock::time_point origin_;
  std::vector<std::unique_ptr<HttpConnection>> conns_;
  std::vector<uint32_t> order_;  // request k sends mix[order_[k % size]]
  std::atomic<uint64_t> query_next_{0};
  std::atomic<size_t> ingest_next_{0};
  std::atomic<bool> ingest_exhausted_{false};
  mutable std::mutex ack_mu_;
  std::map<size_t, std::vector<double>> acks_;
};

/// Measures refresh lag: from the ingest ack that made a path due (its drift
/// crossed the policy's thresholds) until its new generation is visible in
/// Db::Freshness(). Polled from the main thread every kMonitorPeriodS.
class RefreshMonitor {
 public:
  RefreshMonitor(const std::vector<std::unique_ptr<Tenant>>* tenants,
                 std::vector<size_t> watched, const RefreshPolicy& policy,
                 const Generator* gen)
      : tenants_(tenants),
        watched_(std::move(watched)),
        policy_(policy),
        gen_(gen) {}

  void Poll() {
    const double now = gen_->Now();
    for (size_t t : watched_) {
      for (const ModelInfo& info : (*tenants_)[t]->db->Freshness()) {
        std::string key = std::to_string(t);
        for (const auto& table : info.path) key += "|" + table;
        auto [it, fresh] = paths_.try_emplace(key);
        State& st = it->second;
        if (fresh) st.generation = info.generation;
        const bool due = info.refreshing || info.generation > st.generation ||
                         (info.drift_available &&
                          (info.drift_ks >= policy_.drift_ks_threshold ||
                           info.drift_psi >= policy_.drift_psi_threshold));
        if (!st.pending && due) {
          st.pending = true;
          st.due_ack = FirstAckAfter(t, last_poll_);
        }
        if (st.pending && info.generation > st.generation) {
          lags_.push_back(now - st.due_ack);
          st.generation = info.generation;
          st.pending = false;
        }
      }
    }
    last_poll_ = now;
  }

  const std::vector<double>& lags() const { return lags_; }

 private:
  struct State {
    uint64_t generation = 0;
    bool pending = false;
    double due_ack = 0;
  };

  /// The first ack after `since`, else the last one before it.
  double FirstAckAfter(size_t tenant, double since) const {
    const std::vector<double> acks = gen_->AcksOf(tenant);
    for (double a : acks) {
      if (a > since) return a;
    }
    return acks.empty() ? since : acks.back();
  }

  const std::vector<std::unique_ptr<Tenant>>* tenants_;
  const std::vector<size_t> watched_;
  const RefreshPolicy policy_;
  const Generator* gen_;
  std::map<std::string, State> paths_;
  std::vector<double> lags_;
  double last_poll_ = 0;
};

// ---- In-process layer probes (traced run) ----------------------------------

struct LayerProbes {
  std::vector<double> recon_ratio;   // stage sum / Session::Execute span
  std::vector<double> parse_sql_us;  // timed ParseSql per generated query
  std::vector<double> complete_ms;   // Db::CompleteViaPath per table
  double synth_rows = 0, synth_seconds = 0;
  std::vector<double> append_ms;
  std::vector<double> score_drift_ms;
};

/// Serial in-process replay of every distinct query: the span around
/// Session::Execute against the stats-tail stage sum; then ParseSql alone.
Status ProbeReconciliation(const std::vector<std::unique_ptr<Tenant>>& tenants,
                           const std::vector<MixQuery>& mix, SpanLog* spans,
                           LayerProbes* probes) {
  for (const MixQuery& q : mix) {
    Session session = tenants[q.tenant]->db->CreateSession();
    const Clock::time_point t0 = Clock::now();
    auto rs = session.Execute(q.sql);
    const Clock::time_point t1 = Clock::now();
    if (!rs.ok()) return rs.status();
    const ExecStats& s = rs->stats();
    Tail tail;
    tail.parse_s = s.parse_seconds;
    tail.plan_s = s.plan_seconds;
    tail.selection_s = s.selection_seconds;
    tail.sample_s = s.sample_seconds;
    tail.aggregate_s = s.aggregate_seconds;
    const uint64_t trace = spans->NewTrace();
    const uint64_t root = spans->Add(trace, 0, "session.execute", t0, t1);
    spans->AddTail(trace, root, spans->Us(t0), tail);
    probes->recon_ratio.push_back(tail.StageSum() / Seconds(t1 - t0));
  }
  constexpr int kParseReps = 20;
  for (const MixQuery& q : mix) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kParseReps; ++i) {
      if (!ParseSql(q.sql).ok()) return Status::Internal("unparsable " + q.sql);
    }
    const Clock::time_point t1 = Clock::now();
    spans->Add(spans->NewTrace(), 0, "exec.parse_sql", t0, t1);
    probes->parse_sql_us.push_back(Seconds(t1 - t0) * 1e6 / kParseReps);
  }
  return Status::OK();
}

/// Completion and sampling of every served model, called directly.
Status ProbeCompletion(const std::vector<std::unique_ptr<Tenant>>& tenants,
                       uint64_t seed, SpanLog* spans, LayerProbes* probes) {
  constexpr size_t kEvidenceRows = 256;
  for (const auto& tenant : tenants) {
    Db& db = *tenant->db;
    for (const std::string& table : IncompleteTables(*tenant)) {
      auto path = db.SelectedPathFor(table);
      if (!path.ok()) return path.status();
      const uint64_t trace = spans->NewTrace();
      Clock::time_point t0 = Clock::now();
      auto completed = db.CompleteViaPath(*path);
      Clock::time_point t1 = Clock::now();
      if (!completed.ok()) return completed.status();
      spans->Add(trace, 0, "restore.complete_via_path", t0, t1);
      probes->complete_ms.push_back(Seconds(t1 - t0) * 1e3);
      std::fprintf(stderr, "perfbench size: %s completed %s: %zu rows\n",
                   tenant->name.c_str(), table.c_str(),
                   completed->joined.NumRows());

      auto model = db.ModelForPath(*path);
      if (!model.ok()) return model.status();
      auto data = db.data();
      auto root = data->GetTable((*path)[0]);
      if (!root.ok()) return root.status();
      Table joined = **root;
      joined.QualifyColumnNames((*path)[0]);
      std::vector<size_t> rows;
      for (size_t r = 0; r < std::min(kEvidenceRows, joined.NumRows()); ++r) {
        rows.push_back(r);
      }
      if (rows.empty()) continue;
      auto codes = (*model)->EncodeEvidencePrefix(*data, joined, 0, rows);
      if (!codes.ok()) return codes.status();
      Rng rng(seed);
      t0 = Clock::now();
      if ((*model)->HopIsFanOut(0)) {
        auto tfs =
            (*model)->SampleTupleFactors(*data, joined, &*codes, rows, 0, rng);
        if (!tfs.ok()) return tfs.status();
      }
      auto synth =
          (*model)->SynthesizeHop(*data, joined, &*codes, rows, 0, rng);
      t1 = Clock::now();
      if (!synth.ok()) return synth.status();
      spans->Add(trace, 0, "nn.synthesize_hop", t0, t1);
      probes->synth_rows += static_cast<double>(rows.size());
      probes->synth_seconds += Seconds(t1 - t0);
    }
  }
  return Status::OK();
}

/// Db::Append of unsent held-out batches, and ScoreDrift of the appended
/// tenant's selected paths against set-up references once per append.
Status ProbeIngest(
    const std::vector<std::unique_ptr<Tenant>>& tenants,
    const std::vector<IngestBatch>& batches,
    const std::map<size_t, std::vector<std::vector<ColumnSummary>>>& refs,
    SpanLog* spans, LayerProbes* probes) {
  constexpr size_t kAppends = 24;
  for (size_t b = 0; b < std::min(kAppends, batches.size()); ++b) {
    const IngestBatch& batch = batches[b];
    Db& db = *tenants[batch.tenant]->db;
    const uint64_t trace = spans->NewTrace();
    Clock::time_point t0 = Clock::now();
    Status s = db.Append(batch.table, batch.rows);
    Clock::time_point t1 = Clock::now();
    if (!s.ok()) return s;
    spans->Add(trace, 0, "restore.append", t0, t1);
    probes->append_ms.push_back(Seconds(t1 - t0) * 1e3);
    auto it = refs.find(batch.tenant);
    if (it == refs.end()) continue;
    auto data = db.data();
    for (const auto& ref : it->second) {
      t0 = Clock::now();
      const DriftScore score = ScoreDrift(ref, *data);
      t1 = Clock::now();
      if (!score.available) return Status::Internal("no drift reference");
      spans->Add(trace, 0, "stats.score_drift", t0, t1);
      probes->score_drift_ms.push_back(Seconds(t1 - t0) * 1e3);
    }
  }
  return Status::OK();
}

// ---- Result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out" && has_value) {
      args->out_dir = argv[++i];
    } else if (a == "--smoke") {
      args->smoke = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  return 1;
}

bool Contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Fail("unknown workload " + args.workload);
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  if (kConnections > nproc || kPoolWidth > nproc) {
    return Fail("refusing to run more generator threads or pool width than "
                "the " + std::to_string(nproc) + " CPUs");
  }
  const size_t conns = kConnections;
  ThreadPool::SetGlobalWidth(kPoolWidth);
  // 1 ns timer slack: open-loop sends wake on time, not up to 50 us late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const DataScale scale =
      args.smoke ? DataScale{0.1, 0.05} : DataScale{0.5, 0.3};
  const double rate_scale = args.smoke ? 0.25 : 1.0;
  const double query_rate = spec->query_rate * rate_scale;
  const double ingest_rate = spec->ingest_rate * rate_scale;
  const RefreshPolicy refresh = BenchRefresh(spec->drift_refresh);
  const DbOptions options = DbOptions()
                                .WithEngine(BenchEngine(*spec))
                                .WithRefreshPolicy(refresh);

  // Set-up: data generation, Db::Open, training every model the mix needs
  // and warm-up. Repeated in untraced runs; setup_s is the median.
  std::vector<double> setup_seconds;
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<MixQuery> mix;
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  for (size_t rep = 0; rep < repeats; ++rep) {
    tenants.clear();
    const Clock::time_point t0 = Clock::now();
    auto built = BuildTenants(kDataSeed, scale, options);
    if (!built.ok()) return Fail(built.status().ToString());
    tenants = std::move(*built);
    const Clock::time_point t1 = Clock::now();
    if (mix.empty()) {
      auto generated = GenerateMix(tenants, args.seed, kVariants);
      if (!generated.ok()) return Fail(generated.status().ToString());
      mix = std::move(*generated);
    }
    const Clock::time_point t2 = Clock::now();
    if (Status s = WarmAndPin(tenants, &mix); !s.ok()) {
      return Fail(s.ToString());
    }
    setup_seconds.push_back(Seconds(t1 - t0) + Seconds(Clock::now() - t2));
  }

  for (const auto& tenant : tenants) {
    std::string line = "perfbench size: " + tenant->name;
    for (const std::string& table : tenant->incomplete->TableNames()) {
      line += " " + table + "=" +
              std::to_string((*tenant->incomplete->GetTable(table))->NumRows());
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }

  // Held-out batches: the workload's ingest tenants are streamed over HTTP;
  // the traced run additionally replays appends in-process into H3, which
  // no workload streams to.
  std::map<size_t, std::vector<IngestBatch>> streamed_by_tenant;
  std::vector<IngestBatch> replayed;
  std::vector<size_t> watched;
  std::map<size_t, std::vector<std::vector<ColumnSummary>>> drift_refs;
  for (size_t t = 0; t < tenants.size(); ++t) {
    const bool streams = Contains(spec->ingest_tenants, tenants[t]->name);
    const bool replays = args.trace && tenants[t]->name == kReplayTenant;
    if (!streams && !replays) continue;
    auto batches = HeldOutBatches(*tenants[t], t, kIngestBatchRows, args.seed);
    if (!batches.ok()) return Fail(batches.status().ToString());
    if (streams) {
      watched.push_back(t);
      streamed_by_tenant[t] = std::move(*batches);
      continue;
    }
    replayed = std::move(*batches);
    // Drift references of the served paths, built at set-up.
    for (const std::string& table : IncompleteTables(*tenants[t])) {
      auto path = tenants[t]->db->SelectedPathFor(table);
      if (!path.ok()) return Fail(path.status().ToString());
      drift_refs[t].push_back(SummarizeTables(*tenants[t]->db->data(), *path));
    }
  }
  // The stream alternates between its tenants, each tenant's batches in
  // order.
  std::vector<IngestBatch> streamed;
  for (size_t k = 0, added = 1; added > 0; ++k) {
    added = 0;
    for (auto& [tenant, list] : streamed_by_tenant) {
      if (k >= list.size()) continue;
      streamed.push_back(std::move(list[k]));
      ++added;
    }
  }

  server::TenantRegistry registry;
  for (const auto& tenant : tenants) {
    if (Status s = registry.Add(tenant->name, tenant->db); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  server::HttpServer http(&registry, BenchServer());
  if (Status s = http.Start(); !s.ok()) return Fail(s.ToString());

  SpanLog spans(Clock::now());
  const bool exact = spec->ingest_rate == 0;
  Generator gen(&mix, streamed, exact, args.seed, &spans);
  if (!gen.Connect(http.port(), conns)) {
    http.Stop();
    return Fail("cannot connect to the server");
  }
  RefreshMonitor refresh_monitor(&tenants, watched, refresh, &gen);
  std::function<void()> monitor;
  if (!watched.empty()) monitor = [&] { refresh_monitor.Poll(); };

  const double open_s = args.seconds * kOpenShare;
  const double closed_s = args.seconds - open_s;
  const server::HttpServerStats before = http.stats();
  PhaseResult untraced, traced, closed;
  if (args.trace) {
    untraced =
        gen.OpenLoop(open_s / 2, query_rate, ingest_rate, false, monitor);
    traced = gen.OpenLoop(open_s / 2, query_rate, ingest_rate, true, monitor);
  } else {
    untraced = gen.OpenLoop(open_s, query_rate, ingest_rate, false, monitor);
  }
  closed = gen.ClosedLoop(closed_s, ingest_rate, monitor);
  const server::HttpServerStats after = http.stats();
  http.Stop();

  // ---- Accounting over every request of every phase ------------------------
  uint64_t attempted = 0, failed = 0;
  for (const PhaseResult* phase : {&untraced, &traced, &closed}) {
    for (const Sample& s : phase->samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
  }
  const PhaseResult& open = args.trace ? traced : untraced;
  std::vector<double> query_lat, ingest_lat, late, gen_lag;
  std::vector<std::pair<double, double>> timed_lat;  // (intended, latency)
  for (const PhaseResult* phase : {&untraced, &traced}) {
    for (const Sample& s : phase->samples) {
      late.push_back(s.late_ms);
      gen_lag.push_back(s.gen_lag_ms);
    }
  }
  for (const Sample& s : open.samples) {
    (s.ingest ? ingest_lat : query_lat).push_back(s.latency_ms);
    if (!s.ingest) timed_lat.emplace_back(s.at_s, s.latency_ms);
  }
  const double query_p50 = WindowedPercentile(timed_lat, query_rate, 0.5);
  const double query_p99 = WindowedPercentile(timed_lat, query_rate, 0.99);
  std::vector<double> completed_at;
  for (const Sample& s : closed.samples) {
    if (!s.ingest && s.ok) completed_at.push_back(s.at_s + s.rtt_ms / 1e3);
    if (s.ingest) ingest_lat.push_back(s.latency_ms);
  }
  // Judged only on a p99 with enough samples behind it: in a smoke run one
  // scheduling hiccup would be the whole tail.
  const double gen_lag_p99 = Percentile(gen_lag, 0.99);
  const bool gen_valid =
      gen_lag.size() < kWindowSamples || gen_lag_p99 <= kMaxGenLagMs;
  bool correct = failed == 0 && gen_valid && !gen.ingest_exhausted();
  if (!gen_valid) {
    std::fprintf(stderr,
                 "perfbench: run invalid: generator lag p99 %.3f ms > %.1f ms "
                 "(the generator, not the server, fell behind)\n",
                 gen_lag_p99, kMaxGenLagMs);
  }
  if (gen.ingest_exhausted()) {
    std::fprintf(stderr, "perfbench: held-out tuples exhausted\n");
  }
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu requests failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
  if (query_lat.size() < 1000 && !args.smoke && !args.trace) {
    std::fprintf(stderr,
                 "perfbench: only %zu open-loop queries; p99 needs >= 1000\n",
                 query_lat.size());
    correct = false;
  }

  double rel_error = 0;
  for (const MixQuery& q : mix) rel_error += q.rel_error;
  rel_error /= static_cast<double>(mix.size());

  // Run record: what was measured, on what (stderr, one JSON line).
  size_t cache_bytes = 0;
  for (const auto& tenant : tenants) cache_bytes += tenant->db->cache().bytes();
  std::fprintf(stderr,
               "perfbench record: {\"workload\":\"%s\",\"seed\":%llu,"
               "\"tenants\":%zu,\"distinct_queries\":%zu,"
               "\"housing_scale\":%g,\"movies_scale\":%g,"
               "\"query_rate\":%g,\"ingest_rate\":%g,\"connections\":%zu,"
               "\"pool_width\":%zu,\"cache_bytes\":%zu,\"cache_budget\":%zu,"
               "\"open_queries\":%zu,\"ingests\":%zu,"
               "\"query_p99_whole_ms\":%g,\"query_max_ms\":%g,\"setup_s\":[",
               spec->name, static_cast<unsigned long long>(args.seed),
               tenants.size(), mix.size(), scale.housing, scale.movies,
               query_rate, ingest_rate, conns, ThreadPool::GlobalWidth(),
               cache_bytes, spec->cache_budget_bytes, query_lat.size(), gen.ingests_sent(),
               Percentile(query_lat, 0.99), Percentile(query_lat, 1.0));
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    std::fprintf(stderr, "%s%.4f", i > 0 ? "," : "", setup_seconds[i]);
  }
  std::fprintf(stderr, "]}\n");

  if (!args.trace) {
    PrintResult(correct, attempted, failed,
                {{"setup_s", Percentile(setup_seconds, 0.5), "s"},
                 {"query_p50_ms", query_p50, "ms"},
                 {"query_p99_ms", query_p99, "ms"},
                 {"max_qps", WindowedRate(completed_at, closed.seconds),
                  "1/s"},
                 {"rel_error", rel_error, "ratio"},
                 {"peak_rss_mb", PeakRssMb(), "MiB"}});
    return 0;
  }

  // ---- Traced run: in-process layer probes ---------------------------------
  LayerProbes probes;
  if (Status s = ProbeReconciliation(tenants, mix, &spans, &probes); !s.ok()) {
    return Fail(s.ToString());
  }
  if (Status s = ProbeCompletion(tenants, args.seed, &spans, &probes);
      !s.ok()) {
    return Fail(s.ToString());
  }
  // Cache and model counters before the append replay moves the epochs.
  double cache_evictions = 0, train_s = 0, models_trained = 0;
  double arena_leases = 0, arena_dropped = 0;
  for (const auto& tenant : tenants) {
    Db& db = *tenant->db;
    cache_evictions += static_cast<double>(db.cache().evictions());
    train_s += db.total_train_seconds();
    models_trained += static_cast<double>(db.models_trained());
    for (const std::string& table : IncompleteTables(*tenant)) {
      auto path = db.SelectedPathFor(table);
      if (!path.ok()) continue;
      auto model = db.ModelForPath(*path);
      if (!model.ok()) continue;
      const InferenceScratchPool& pool = (*model)->scratch_pool();
      arena_leases += static_cast<double>(pool.total_leases());
      arena_dropped += static_cast<double>(pool.dropped());
    }
  }
  if (Status s = ProbeIngest(tenants, replayed, drift_refs, &spans, &probes);
      !s.ok()) {
    return Fail(s.ToString());
  }
  double refreshes = 0, refresh_failures = 0, retired = 0, epoch = 0;
  for (const auto& tenant : tenants) {
    const Db::Stats st = tenant->db->stats();
    refreshes += static_cast<double>(st.models_refreshed);
    refresh_failures += static_cast<double>(st.refresh_failures);
    retired += static_cast<double>(st.generations_retired);
    epoch += static_cast<double>(st.epoch);
  }

  // Traced HTTP queries: the server's self time and the stage tails.
  std::vector<double> self_ms, aggregate_ms, sample_ms, selection_ms, parse_us,
      plan_us, tuples;
  double bytes = 0, hits = 0, misses = 0, sample_total = 0, tuple_total = 0;
  for (const PhaseResult* phase : {&traced, &closed}) {
    for (const Sample& s : phase->samples) {
      if (s.ingest || !s.ok) continue;
      self_ms.push_back(s.rtt_ms - s.tail.StageSum() * 1e3);
      aggregate_ms.push_back(s.tail.aggregate_s * 1e3);
      sample_ms.push_back(s.tail.sample_s * 1e3);
      selection_ms.push_back(s.tail.selection_s * 1e3);
      parse_us.push_back(s.tail.parse_s * 1e6);
      plan_us.push_back(s.tail.plan_s * 1e6);
      tuples.push_back(s.tail.tuples);
      bytes += static_cast<double>(s.bytes);
      hits += s.tail.hits;
      misses += s.tail.misses;
      sample_total += s.tail.sample_s;
      tuple_total += s.tail.tuples;
    }
  }
  std::vector<double> untraced_lat;
  for (const Sample& s : untraced.samples) {
    if (!s.ingest) untraced_lat.push_back(s.latency_ms);
  }
  // The gate is off at smoke scale, where a query's fixed cost (result
  // building, stats folding) outweighs its stages.
  const double recon = Percentile(probes.recon_ratio, 0.5);
  if (std::fabs(recon - 1.0) > kReconTolerance && !args.smoke) {
    std::fprintf(stderr,
                 "perfbench: reconciliation failed: median stage sum is %.3f "
                 "of the Session::Execute span\n",
                 recon);
    correct = false;
  }

  const std::string span_path = args.out_dir + "/spans-" + spec->name +
                                "-seed" + std::to_string(args.seed) + ".json";
  if (!spans.Write(span_path)) return Fail("cannot write " + span_path);
  std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", spans.size(),
               span_path.c_str());

  const double n = self_ms.empty() ? 1.0 : static_cast<double>(self_ms.size());
  PrintResult(
      correct, attempted, failed,
      {{"server.self_ms.p50", Percentile(self_ms, 0.5), "ms"},
       {"server.self_ms.p99", Percentile(self_ms, 0.99), "ms"},
       {"server.shed",
        static_cast<double>(
            (after.queries_shed_global + after.queries_shed_tenant) -
            (before.queries_shed_global + before.queries_shed_tenant)),
        "count"},
       {"server.admission_queued",
        static_cast<double>(after.admission_queued - before.admission_queued),
        "count"},
       {"server.response_bytes", bytes / n, "bytes"},
       {"exec.parse_us", Mean(parse_us), "us"},
       {"exec.plan_us", Mean(plan_us), "us"},
       {"exec.parse_sql_us", Mean(probes.parse_sql_us), "us"},
       {"exec.aggregate_ms.p50", Percentile(aggregate_ms, 0.5), "ms"},
       {"exec.aggregate_ms.p99", Percentile(aggregate_ms, 0.99), "ms"},
       {"restore.selection_ms", Mean(selection_ms), "ms"},
       {"restore.sample_ms.p50", Percentile(sample_ms, 0.5), "ms"},
       {"restore.sample_ms.p99", Percentile(sample_ms, 0.99), "ms"},
       {"restore.tuples_completed", Mean(tuples), "count"},
       {"restore.tuples_per_s",
        sample_total > 0 ? tuple_total / sample_total : 0.0, "1/s"},
       {"restore.complete_ms", Mean(probes.complete_ms), "ms"},
       {"restore.cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
       {"restore.cache_hits", hits, "count"},
       {"restore.cache_misses", misses, "count"},
       {"restore.cache_bytes", static_cast<double>(cache_bytes), "bytes"},
       {"restore.cache_evictions", cache_evictions, "count"},
       {"restore.train_s", train_s, "s"},
       {"restore.models_trained", models_trained, "count"},
       {"restore.append_ms.p50", Percentile(probes.append_ms, 0.5), "ms"},
       {"restore.append_ms.p99", Percentile(probes.append_ms, 0.99), "ms"},
       {"restore.refreshes", refreshes, "count"},
       {"restore.refresh_failures", refresh_failures, "count"},
       {"restore.generations_retired", retired, "count"},
       {"restore.epoch", epoch, "count"},
       {"nn.synth_rows_per_s",
        probes.synth_seconds > 0 ? probes.synth_rows / probes.synth_seconds
                                 : 0.0,
        "1/s"},
       {"nn.arena_leases", arena_leases, "count"},
       {"nn.arena_drop_ratio",
        arena_leases > 0 ? arena_dropped / arena_leases : 0.0, "ratio"},
       {"stats.score_drift_ms", Mean(probes.score_drift_ms), "ms"},
       {"gen.late_ms.p99", Percentile(late, 0.99), "ms"},
       {"gen.lag_ms.p99", gen_lag_p99, "ms"},
       {"gen.threads", static_cast<double>(conns), "count"},
       {"gen.connections", static_cast<double>(conns), "count"},
       {"gen.valid", gen_valid ? 1.0 : 0.0, "bool"},
       {"ingest_p50_ms", Percentile(ingest_lat, 0.5), "ms"},
       {"ingest_p99_ms", Percentile(ingest_lat, 0.99), "ms"},
       {"refresh_lag_s", Percentile(refresh_monitor.lags(), 0.5), "s"},
       {"failed_frac",
        attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
        "ratio"},
       {"recon.stage_ratio", recon, "ratio"},
       {"trace.overhead_ms", query_p50 - Percentile(untraced_lat, 0.5), "ms"},
       {"trace.spans", static_cast<double>(spans.size()), "count"}});
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace restore

int main(int argc, char** argv) {
  restore::perfbench::Args args;
  if (!restore::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <hot-read|cold-complete|live-ingest> "
                 "--seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  return restore::perfbench::Run(args);
}
