#include "server/server.h"

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "restore/stats_prometheus.h"
#include "server/http.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace restore {
namespace server {

struct HttpServer::LoopConnections {
  std::unordered_map<Connection*, std::shared_ptr<Connection>> map;
};

#ifdef __linux__

namespace {

/// listen(2) backlog of the acceptor socket.
constexpr int kListenBacklog = 511;

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    default:
      return 500;
  }
}

std::string ErrorBody(const std::string& code, const std::string& message) {
  return "{\"error\":{\"code\":\"" + JsonEscape(code) + "\",\"message\":\"" +
         JsonEscape(message) + "\"}}";
}

std::string ErrorResponse(const Status& status, bool keep_alive) {
  const int http_status = HttpStatusFor(status);
  std::vector<std::pair<std::string, std::string>> headers;
  if (http_status == 503) {
    // Overload and open breakers are transient by construction (bounded
    // queue wait, bounded breaker window): tell well-behaved clients when
    // to come back instead of letting them hammer the shed path.
    headers.emplace_back("Retry-After", "1");
  }
  return BuildResponse(http_status, "application/json",
                       ErrorBody(StatusCodeName(status.code()),
                                 status.message()),
                       keep_alive, headers);
}

void AppendJsonStringArray(std::string* out,
                           const std::vector<std::string>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    *out += '"' + JsonEscape(values[i]) + '"';
  }
  *out += ']';
}

/// Maps one positional JSON row onto the table's column types. Strict: a
/// kInt64 column takes only integral numbers, kDouble only numbers,
/// kCategorical only strings; null is accepted everywhere.
Status JsonRowToValues(const JsonValue& row,
                       const std::vector<Column>& columns, size_t row_index,
                       std::vector<Value>* out) {
  if (row.kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(
        "row " + std::to_string(row_index) + " is not a JSON array");
  }
  if (row.array.size() != columns.size()) {
    return Status::InvalidArgument(
        "row " + std::to_string(row_index) + " has " +
        std::to_string(row.array.size()) + " values, expected " +
        std::to_string(columns.size()));
  }
  out->clear();
  out->reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    const JsonValue& cell = row.array[c];
    const auto cell_error = [&](const char* expected) {
      return Status::InvalidArgument(
          "row " + std::to_string(row_index) + ", column '" +
          columns[c].name() + "': expected " + expected);
    };
    if (cell.kind == JsonValue::Kind::kNull) {
      out->push_back(Value::Null());
      continue;
    }
    switch (columns[c].type()) {
      case ColumnType::kCategorical:
        if (cell.kind != JsonValue::Kind::kString) {
          return cell_error("a string (categorical column)");
        }
        out->push_back(Value::Categorical(cell.string_value));
        break;
      case ColumnType::kDouble:
        if (cell.kind != JsonValue::Kind::kNumber) {
          return cell_error("a number (double column)");
        }
        out->push_back(Value::Double(cell.number));
        break;
      case ColumnType::kInt64: {
        if (cell.kind != JsonValue::Kind::kNumber) {
          return cell_error("an integer (int64 column)");
        }
        // Integer literals re-parse the original token with strtoll: the
        // parsed double has already rounded integers above 2^53, so checking
        // integrality on it would silently store a perturbed value.
        const std::string& text = cell.number_text;
        if (text.find_first_of(".eE") == std::string::npos) {
          errno = 0;
          char* end = nullptr;
          const long long v = std::strtoll(text.c_str(), &end, 10);
          if (errno == ERANGE || end != text.c_str() + text.size()) {
            return cell_error("an integer in int64 range (int64 column)");
          }
          out->push_back(Value::Int64(v));
        } else {
          // Fraction/exponent form: accept only values a double represents
          // exactly as an in-range integer (range-check BEFORE the int64
          // cast, which is undefined for out-of-range doubles).
          const double v = cell.number;
          if (v < -9.2233720368547758e18 || v >= 9.2233720368547758e18 ||
              v != static_cast<double>(static_cast<int64_t>(v))) {
            return cell_error("an integer (int64 column)");
          }
          out->push_back(Value::Int64(static_cast<int64_t>(v)));
        }
        break;
      }
    }
  }
  return Status::OK();
}

/// One Db::Freshness() entry as a JSON object.
std::string ModelInfoJson(const ModelInfo& info) {
  std::string out = "{\"path\":";
  AppendJsonStringArray(&out, info.path);
  out += ",\"generation\":" + std::to_string(info.generation);
  out += ",\"trained_rows\":" + std::to_string(info.trained_rows);
  out += ",\"current_rows\":" + std::to_string(info.current_rows);
  out += ",\"staleness_rows\":" + std::to_string(info.staleness_rows);
  out += ",\"train_seconds\":" + JsonNumber(info.train_seconds);
  out += info.refreshing ? ",\"refreshing\":true" : ",\"refreshing\":false";
  out += info.loaded_from_disk ? ",\"loaded_from_disk\":true"
                               : ",\"loaded_from_disk\":false";
  out += info.drift_available ? ",\"drift_available\":true"
                              : ",\"drift_available\":false";
  out += ",\"drift_ks\":" + JsonNumber(info.drift_ks);
  out += ",\"drift_psi\":" + JsonNumber(info.drift_psi);
  out += ",\"drift_column\":\"" + JsonEscape(info.drift_column) + "\"";
  out += info.breaker_open ? ",\"breaker_open\":true"
                           : ",\"breaker_open\":false";
  out += ",\"consecutive_failures\":" +
         std::to_string(info.consecutive_failures) + "}";
  return out;
}

/// The streamed 200 response of a query: chunk 1 carries the schema and
/// opens the row array, every ResultSet batch becomes one chunk of row
/// tuples, and the final chunk closes the array and appends the per-query
/// ExecStats — so a client renders rows as chunks arrive and still gets the
/// accounting that only exists once the query finished.
std::string QueryResponse(const std::string& tenant, ResultSet& rs,
                          bool keep_alive) {
  std::string out = BuildChunkedResponseHead(200, "application/json",
                                             keep_alive);
  std::string head = "{\"tenant\":\"" + JsonEscape(tenant) +
                     "\",\"key_columns\":";
  AppendJsonStringArray(&head, rs.key_columns());
  head += ",\"value_columns\":";
  AppendJsonStringArray(&head, rs.value_columns());
  head += ",\"rows\":[";
  out += EncodeChunk(head);

  rs.Rewind();
  ResultBatch batch;
  bool first_row = true;
  while (rs.NextBatch(&batch)) {
    std::string chunk;
    for (size_t r = 0; r < batch.rows; ++r) {
      if (!first_row) chunk += ',';
      first_row = false;
      chunk += '[';
      for (size_t c = 0; c < rs.num_key_columns(); ++c) {
        if (c > 0) chunk += ',';
        chunk += '"' + JsonEscape(batch.key(r, c)) + '"';
      }
      for (size_t c = 0; c < rs.num_value_columns(); ++c) {
        if (c > 0 || rs.num_key_columns() > 0) chunk += ',';
        chunk += JsonNumber(batch.value(r, c));
      }
      chunk += ']';
    }
    out += EncodeChunk(chunk);
  }

  const ExecStats& s = rs.stats();
  std::string tail = "],\"row_count\":" + std::to_string(rs.num_rows());
  tail += ",\"stats\":{";
  tail += "\"parse_seconds\":" + JsonNumber(s.parse_seconds);
  tail += ",\"plan_seconds\":" + JsonNumber(s.plan_seconds);
  tail += ",\"selection_seconds\":" + JsonNumber(s.selection_seconds);
  tail += ",\"sample_seconds\":" + JsonNumber(s.sample_seconds);
  tail += ",\"aggregate_seconds\":" + JsonNumber(s.aggregate_seconds);
  tail += ",\"tuples_completed\":" + std::to_string(s.tuples_completed);
  tail += ",\"models_consulted\":" + std::to_string(s.models_consulted);
  tail += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  tail += ",\"cache_misses\":" + std::to_string(s.cache_misses);
  tail += "}}";
  out += EncodeChunk(tail);
  out += FinalChunk();
  return out;
}

}  // namespace

// ---- Connection -------------------------------------------------------------

struct HttpServer::Connection
    : public EventLoop::Handler,
      public std::enable_shared_from_this<HttpServer::Connection> {
  enum class State { kReading, kProcessing, kWriting, kClosed };

  HttpServer* server;
  EventLoop* loop;
  size_t loop_index;
  int fd;
  HttpRequestParser parser;
  std::string out;
  State state = State::kReading;
  uint32_t watched = 0;  // currently registered epoll mask (0 = none)
  bool peer_gone = false;
  bool close_after_response = false;
  bool current_keep_alive = true;
  /// Token of the in-flight query while kProcessing; RequestCancel on it is
  /// the disconnect -> cancellation bridge. Written on the loop thread at
  /// dispatch (before the worker job is queued), only signalled afterwards.
  CancellationToken inflight_cancel;

  Connection(HttpServer* server, EventLoop* loop, size_t loop_index, int fd)
      : server(server),
        loop(loop),
        loop_index(loop_index),
        fd(fd) {}

  // All methods below run on the connection's loop thread.

  void OnEvent(uint32_t events) override {
    auto self = shared_from_this();
    if (state == State::kClosed) return;
    if (events & EPOLLERR) {
      Abort();
      return;
    }
    if (state == State::kProcessing) {
      // Only EPOLLRDHUP is registered while a query is in flight: any event
      // here means the client is gone.
      PeerGoneMidQuery();
      return;
    }
    if ((events & EPOLLOUT) && state == State::kWriting) HandleWritable();
    if (state == State::kReading &&
        (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP))) {
      HandleReadable();
    }
  }

  void UpdateEvents(uint32_t mask) {
    if (mask == watched) return;
    if (watched == 0) {
      (void)loop->Add(fd, mask, this);
    } else if (mask == 0) {
      loop->Del(fd);
    } else {
      (void)loop->Mod(fd, mask, this);
    }
    watched = mask;
  }

  void HandleReadable() {
    char buf[16 * 1024];
    while (state == State::kReading) {
      if (FaultInjection::Enabled() &&
          !FaultInjection::Fire("server.read").ok()) {
        Abort();  // injected socket-level read failure
        return;
      }
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        const auto parse_state =
            parser.Feed(buf, static_cast<size_t>(n));
        if (parse_state == HttpRequestParser::State::kComplete) {
          server->Dispatch(shared_from_this());
          return;  // reading resumes after the response flushed
        }
        if (parse_state == HttpRequestParser::State::kError) {
          RespondParseError();
          return;
        }
        continue;
      }
      if (n == 0) {
        Abort();  // clean EOF between requests
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      Abort();
      return;
    }
  }

  void RespondParseError() {
    server->bad_requests_.fetch_add(1, std::memory_order_relaxed);
    SendResponse(
        BuildResponse(parser.error_status(), "application/json",
                      ErrorBody("BadRequest", parser.error_reason()),
                      /*keep_alive=*/false),
        /*keep_alive=*/false);
  }

  /// Queues `bytes` as the response of the current request and starts
  /// flushing. `keep_alive` decides the connection's fate afterwards.
  void SendResponse(std::string bytes, bool keep_alive) {
    out += bytes;
    close_after_response = !keep_alive;
    state = State::kWriting;
    HandleWritable();
  }

  void HandleWritable() {
    while (!out.empty()) {
      if (FaultInjection::Enabled() &&
          !FaultInjection::Fire("server.write").ok()) {
        Abort();  // injected socket-level write failure
        return;
      }
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        UpdateEvents(EPOLLOUT);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      Abort();
      return;
    }
    // Response fully flushed.
    if (close_after_response) {
      Abort();
      return;
    }
    state = State::kReading;
    UpdateEvents(EPOLLIN | EPOLLRDHUP);
    // A pipelined next request may already be buffered in the parser.
    const auto parse_state = parser.Reset();
    if (parse_state == HttpRequestParser::State::kComplete) {
      server->Dispatch(shared_from_this());
    } else if (parse_state == HttpRequestParser::State::kError) {
      RespondParseError();
    }
  }

  void PeerGoneMidQuery() {
    peer_gone = true;
    if (inflight_cancel.can_cancel()) {
      inflight_cancel.RequestCancel();
      server->disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
    }
    // Stop watching; the fd stays open until the worker's completion
    // arrives so the number cannot be reused under the in-flight query.
    UpdateEvents(0);
  }

  /// Worker completion (posted to the loop): the query finished and its
  /// response bytes are ready.
  void CompleteRequest(std::string bytes, bool keep_alive) {
    if (state == State::kClosed) return;
    if (peer_gone) {
      Abort();
      return;
    }
    state = State::kWriting;  // so SendResponse's write path applies
    SendResponse(std::move(bytes), keep_alive);
  }

  /// Closes the connection now (abort or orderly after-close); drops any
  /// unflushed bytes.
  void Abort() {
    if (state == State::kClosed) return;
    UpdateEvents(0);
    ::close(fd);
    state = State::kClosed;
    server->connections_active_.fetch_sub(1, std::memory_order_relaxed);
    server->ForgetConnection(loop_index, this);
  }
};

// ---- Acceptor ---------------------------------------------------------------

class HttpServer::Acceptor : public EventLoop::Handler {
 public:
  explicit Acceptor(HttpServer* server) : server_(server) {}

  void OnEvent(uint32_t events) override {
    if ((events & EPOLLIN) == 0) return;
    while (true) {
      const int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (drained) or the listen fd went away during Stop
      }
      if (FaultInjection::Enabled() &&
          !FaultInjection::Fire("server.accept").ok()) {
        // Injected accept failure: the client sees a reset, the server
        // keeps accepting — exactly how a transient accept error degrades.
        ::close(fd);
        server_->connections_shed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (server_->connections_active_.load(std::memory_order_relaxed) >=
          server_->config_.max_connections) {
        ::close(fd);
        server_->connections_shed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      server_->connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      server_->connections_active_.fetch_add(1, std::memory_order_relaxed);
      server_->AdoptConnection(fd);
    }
  }

 private:
  HttpServer* server_;
};

// ---- WorkerPool -------------------------------------------------------------

/// Dedicated query-execution threads. Session::Execute blocks (sampling,
/// possibly first-touch training), so queries must never run on an event
/// thread; and the shared NN ThreadPool may be width 1 (zero workers, tasks
/// run inline on the submitter), which would block the event loop too.
class HttpServer::WorkerPool {
 public:
  explicit WorkerPool(size_t num_threads) {
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~WorkerPool() { Stop(); }

  void Submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Finishes every queued job, then joins. Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  void Loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopped_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
};

// ---- HttpServer -------------------------------------------------------------

HttpServer::HttpServer(const TenantRegistry* tenants, ServerConfig config)
    : tenants_(tenants),
      config_(std::move(config)),
      query_admission_(config_.max_inflight_queries,
                       config_.admission_queue_depth) {
  if (config_.event_threads == 0) config_.event_threads = 1;
  if (config_.query_threads == 0) config_.query_threads = 1;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_) return Status::FailedPrecondition("server already running");
  if (tenants_ == nullptr || tenants_->size() == 0) {
    return Status::InvalidArgument("no tenants registered");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind/listen on " + config_.bind_address + ":" +
                            std::to_string(config_.port) + ": " + err);
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);

  loops_.clear();
  conns_.clear();
  for (size_t i = 0; i < config_.event_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    conns_.push_back(std::make_unique<LoopConnections>());
    Status s = loops_.back()->Init();
    if (!s.ok()) {
      loops_.clear();
      conns_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
  }

  acceptor_ = std::make_unique<Acceptor>(this);
  Status s = loops_[0]->Add(listen_fd_, EPOLLIN, acceptor_.get());
  if (!s.ok()) {
    loops_.clear();
    conns_.clear();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  workers_ = std::make_unique<WorkerPool>(config_.query_threads);
  for (auto& loop : loops_) loop->Start();
  running_ = true;
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_) return;

  // 1. Stop accepting: unregister and close the listen socket on the
  //    acceptor's own loop thread so no accept runs concurrently.
  {
    std::promise<void> done;
    EventLoop* loop0 = loops_[0].get();
    const int fd = listen_fd_;
    loop0->Post([this, loop0, fd, &done] {
      loop0->Del(fd);
      ::close(fd);
      listen_fd_ = -1;
      done.set_value();
    });
    done.get_future().wait();
  }

  // 2. Let every admitted query finish; their completions are posted to the
  //    loops in order, ahead of the teardown below.
  workers_->Stop();

  // 3. Flush/close all connections on their own threads, then stop loops.
  for (size_t i = 0; i < loops_.size(); ++i) {
    EventLoop* loop = loops_[i].get();
    LoopConnections* conns = conns_[i].get();
    loop->Post([conns] {
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(conns->map.size());
      for (auto& [ptr, sp] : conns->map) snapshot.push_back(sp);
      for (auto& conn : snapshot) conn->Abort();
    });
    loop->Stop();
  }
  loops_.clear();
  conns_.clear();
  acceptor_.reset();
  workers_.reset();
  running_ = false;
}

void HttpServer::AdoptConnection(int fd) {
  const size_t index =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  EventLoop* loop = loops_[index].get();
  LoopConnections* conns = conns_[index].get();
  loop->Post([this, loop, conns, index, fd] {
    auto conn = std::make_shared<Connection>(this, loop, index, fd);
    conns->map.emplace(conn.get(), conn);
    conn->UpdateEvents(EPOLLIN | EPOLLRDHUP);
  });
}

void HttpServer::ForgetConnection(size_t loop_index, Connection* conn) {
  conns_[loop_index]->map.erase(conn);
}

void HttpServer::Dispatch(std::shared_ptr<Connection> conn) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  const HttpRequest& req = conn->parser.request();
  const std::string path = req.Path();
  const bool keep_alive = req.KeepAlive();
  conn->current_keep_alive = keep_alive;

  if (path == "/healthz") {
    // Still 200 while degraded — the process is alive and answering (stale
    // generations keep serving); the body names what is limping so probes
    // and smoke tests can tell "healthy" from "degraded but up". The
    // healthy body stays exactly "ok\n".
    std::string reasons;
    const auto add_reason = [&reasons](const std::string& r) {
      if (!reasons.empty()) reasons += ", ";
      reasons += r;
    };
    for (const auto& tenant : tenants_->tenants()) {
      const std::shared_ptr<Db>& db = tenant->db();
      if (db->breakers_open() > 0) {
        add_reason("breakers_open(" + tenant->name() + ")");
      }
      if (db->refresh_failure_streak() > 0) {
        add_reason("refresh_failures(" + tenant->name() + ")");
      }
      if (db->save_failure_streak() > 0) {
        add_reason("save_failures(" + tenant->name() + ")");
      }
    }
    if (config_.admission_queue_depth > 0 &&
        query_admission_.queued_now() >= config_.admission_queue_depth) {
      add_reason("admission_queue_saturated");
    }
    const std::string body =
        reasons.empty() ? "ok\n" : "degraded: " + reasons + "\n";
    conn->SendResponse(BuildResponse(200, "text/plain", body, keep_alive),
                       keep_alive);
    return;
  }
  if (path == "/metrics") {
    conn->SendResponse(
        BuildResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                      RenderMetrics(), keep_alive),
        keep_alive);
    return;
  }

  const std::string models_prefix = "/v1/models";
  if (path.compare(0, models_prefix.size(), models_prefix) == 0 &&
      (path.size() == models_prefix.size() ||
       path[models_prefix.size()] == '/')) {
    if (req.method != "GET") {
      conn->SendResponse(
          BuildResponse(405, "application/json",
                        ErrorBody("MethodNotAllowed", "use GET"), keep_alive),
          keep_alive);
      return;
    }
    std::string tenant_name;
    if (path.size() > models_prefix.size() + 1) {
      tenant_name = path.substr(models_prefix.size() + 1);
    }
    if (tenant_name.find('/') != std::string::npos) {
      conn->SendResponse(
          BuildResponse(404, "application/json",
                        ErrorBody("NotFound", "no such route: " + path),
                        keep_alive),
          keep_alive);
      return;
    }
    int status = 200;
    const std::string body = RenderModels(tenant_name, &status);
    conn->SendResponse(
        BuildResponse(status, "application/json", body, keep_alive),
        keep_alive);
    return;
  }

  const std::string ingest_prefix = "/v1/ingest/";
  if (path.compare(0, ingest_prefix.size(), ingest_prefix) == 0) {
    if (req.method != "POST") {
      conn->SendResponse(
          BuildResponse(405, "application/json",
                        ErrorBody("MethodNotAllowed",
                                  "use POST with a JSON array of row arrays "
                                  "as the body"),
                        keep_alive),
          keep_alive);
      return;
    }
    // One trailing segment addresses a table of the default tenant, two are
    // <tenant>/<table> — mirroring /v1/query's tenant addressing.
    const std::string rest = path.substr(ingest_prefix.size());
    std::string tenant_name;
    std::string table = rest;
    const size_t slash = rest.find('/');
    if (slash != std::string::npos) {
      tenant_name = rest.substr(0, slash);
      table = rest.substr(slash + 1);
    }
    if (table.empty() || table.find('/') != std::string::npos) {
      conn->SendResponse(
          BuildResponse(404, "application/json",
                        ErrorBody("NotFound", "no such route: " + path),
                        keep_alive),
          keep_alive);
      return;
    }

    // Ingestion shares the query admission bounds: it occupies a worker and
    // serializes on the writer lock, so unbounded ingest bursts would starve
    // queries exactly like unbounded queries would.
    Slots slots;
    std::shared_ptr<Tenant> tenant = Admit(conn, tenant_name, &slots);
    if (tenant == nullptr) return;

    // No cancellation bridge for ingestion: once admitted, an append either
    // fully publishes or fully fails — a disconnect must not abort it
    // halfway through intent.
    conn->inflight_cancel = CancellationToken();
    conn->state = Connection::State::kProcessing;
    conn->UpdateEvents(EPOLLRDHUP);
    SubmitIngest(std::move(conn), std::move(tenant), std::move(table),
                 req.body, std::move(slots));
    return;
  }

  const std::string query_prefix = "/v1/query";
  if (path.compare(0, query_prefix.size(), query_prefix) == 0 &&
      (path.size() == query_prefix.size() ||
       path[query_prefix.size()] == '/')) {
    if (req.method != "POST") {
      conn->SendResponse(
          BuildResponse(405, "application/json",
                        ErrorBody("MethodNotAllowed",
                                  "use POST with the SQL text as the body"),
                        keep_alive),
          keep_alive);
      return;
    }
    std::string tenant_name;
    if (path.size() > query_prefix.size() + 1) {
      tenant_name = path.substr(query_prefix.size() + 1);
      if (tenant_name.find('/') != std::string::npos) {
        conn->SendResponse(
            BuildResponse(404, "application/json",
                          ErrorBody("NotFound", "no such route: " + path),
                          keep_alive),
            keep_alive);
        return;
      }
    }

    // Per-request timeout header -> QueryOptions.deadline. The deadline
    // starts ticking here, at admission.
    auto deadline = std::chrono::steady_clock::time_point::max();
    if (const std::string* header = req.FindHeader("X-Deadline-Ms")) {
      char* end = nullptr;
      const long long ms = std::strtoll(header->c_str(), &end, 10);
      if (end == header->c_str() || *end != '\0' || ms < 0) {
        conn->SendResponse(
            BuildResponse(400, "application/json",
                          ErrorBody("BadRequest",
                                    "malformed X-Deadline-Ms header"),
                          keep_alive),
            keep_alive);
        return;
      }
      deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    }

    Slots slots;
    std::shared_ptr<Tenant> tenant = Admit(conn, tenant_name, &slots);
    if (tenant == nullptr) return;

    conn->inflight_cancel = CancellationToken::Cancellable();
    conn->state = Connection::State::kProcessing;
    conn->UpdateEvents(EPOLLRDHUP);
    SubmitQuery(std::move(conn), std::move(tenant), req.body,
                std::move(slots), deadline);
    return;
  }

  conn->SendResponse(
      BuildResponse(404, "application/json",
                    ErrorBody("NotFound", "no such route: " + path),
                    keep_alive),
      keep_alive);
}

std::shared_ptr<Tenant> HttpServer::Admit(
    const std::shared_ptr<Connection>& conn, const std::string& tenant_name,
    Slots* slots) {
  // Admission control: server-wide bound first, then the tenant quota.
  // Shedding answers 503 from the event thread — no Session, no worker.
  // Queue mode defers admission to the worker instead (AcquireQueued
  // parks there with a bounded wait; event threads must never block), so
  // both slots stay empty here and AdmitQueued fills them.
  const bool keep_alive = conn->current_keep_alive;
  const bool queue_mode = config_.admission_queue_depth > 0;
  if (!queue_mode) {
    if (!query_admission_.TryAcquire()) {
      conn->SendResponse(
          ErrorResponse(Status::ResourceExhausted(
                            "server query capacity exhausted"),
                        keep_alive),
          keep_alive);
      return nullptr;
    }
    slots->global = AdmissionSlot(&query_admission_);
  }
  std::shared_ptr<Tenant> tenant = tenants_->Resolve(tenant_name);
  if (tenant == nullptr) {
    conn->SendResponse(
        BuildResponse(404, "application/json",
                      ErrorBody("NotFound",
                                "unknown tenant: '" + tenant_name + "'"),
                      keep_alive),
        keep_alive);
    return nullptr;
  }
  if (!queue_mode) {
    if (!tenant->admission().TryAcquire()) {
      tenant_shed_.fetch_add(1, std::memory_order_relaxed);
      conn->SendResponse(
          ErrorResponse(Status::ResourceExhausted(
                            "tenant '" + tenant->name() +
                            "' query quota exhausted"),
                        keep_alive),
          keep_alive);
      return nullptr;
    }
    slots->tenant = AdmissionSlot(&tenant->admission());
  }
  return tenant;
}

bool HttpServer::AdmitQueued(const std::shared_ptr<Connection>& conn,
                             Tenant* tenant, Slots* slots, bool keep_alive) {
  // Queue-mode admission happens HERE, on the worker: the request parks
  // in the controller's FIFO for up to the configured wait, so bursts
  // absorb instead of 503ing, while the event threads stay non-blocking.
  if (config_.admission_queue_depth == 0 || slots->global.held()) {
    return true;
  }
  Status denied = Status::OK();
  const AdmissionController::Outcome outcome =
      query_admission_.AcquireQueued(
          std::chrono::milliseconds(config_.admission_queue_wait_ms));
  if (outcome == AdmissionController::Outcome::kAdmitted) {
    slots->global = AdmissionSlot(&query_admission_);
    if (tenant->admission().TryAcquire()) {
      slots->tenant = AdmissionSlot(&tenant->admission());
    } else {
      tenant_shed_.fetch_add(1, std::memory_order_relaxed);
      slots->global.Release();
      denied = Status::ResourceExhausted(
          "tenant '" + tenant->name() + "' query quota exhausted");
    }
  } else {
    denied = Status::Unavailable(
        outcome == AdmissionController::Outcome::kTimedOut
            ? "admission queue wait exceeded; retry later"
            : "admission queue full; retry later");
  }
  if (denied.ok()) return true;
  Respond(conn, slots, ErrorResponse(denied, keep_alive), keep_alive);
  return false;
}

void HttpServer::Respond(const std::shared_ptr<Connection>& conn,
                         Slots* slots, std::string response,
                         bool keep_alive) {
  // Admission frees up before the completion is posted, even if the loop
  // is busy.
  slots->global.Release();
  slots->tenant.Release();
  auto bytes = std::make_shared<std::string>(std::move(response));
  conn->loop->Post([conn, bytes, keep_alive] {
    conn->CompleteRequest(std::move(*bytes), keep_alive);
  });
}

void HttpServer::SubmitQuery(std::shared_ptr<Connection> conn,
                             std::shared_ptr<Tenant> tenant, std::string sql,
                             Slots slots,
                             std::chrono::steady_clock::time_point deadline) {
  // std::function must be copyable; the move-only admission slots ride in a
  // shared holder (released by Respond right after execution).
  auto held = std::make_shared<Slots>(std::move(slots));
  const bool keep_alive = conn->current_keep_alive;

  workers_->Submit([this, conn, tenant, sql = std::move(sql), held,
                    deadline, keep_alive] {
    if (!AdmitQueued(conn, tenant.get(), held.get(), keep_alive)) return;
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = test_pre_query_hook_;
    }
    if (hook) hook();

    QueryOptions options;
    options.cancel = conn->inflight_cancel;
    options.deadline = deadline;

    Session session = tenant->db()->CreateSession();
    Result<ResultSet> result = session.Execute(sql, options);
    Respond(conn, held.get(),
            result.ok() ? QueryResponse(tenant->name(), *result, keep_alive)
                        : ErrorResponse(result.status(), keep_alive),
            keep_alive);
  });
}

void HttpServer::SubmitIngest(std::shared_ptr<Connection> conn,
                              std::shared_ptr<Tenant> tenant,
                              std::string table, std::string body,
                              Slots slots) {
  auto held = std::make_shared<Slots>(std::move(slots));
  const bool keep_alive = conn->current_keep_alive;

  workers_->Submit([this, conn, tenant, table = std::move(table),
                    body = std::move(body), held, keep_alive] {
    // Ingest shares the query bounds, so it also shares the queue.
    if (!AdmitQueued(conn, tenant.get(), held.get(), keep_alive)) return;
    std::string response = [&]() -> std::string {
      JsonValue doc;
      std::string parse_error;
      if (!ParseJson(body, &doc, &parse_error)) {
        return BuildResponse(400, "application/json",
                             ErrorBody("BadRequest", parse_error),
                             keep_alive);
      }
      if (doc.kind != JsonValue::Kind::kArray) {
        return BuildResponse(
            400, "application/json",
            ErrorBody("BadRequest",
                      "ingest body must be a JSON array of row arrays"),
            keep_alive);
      }
      const std::shared_ptr<Db>& db = tenant->db();
      // Row typing comes from the CURRENT snapshot's schema (Append never
      // changes a schema, so any later snapshot agrees).
      const std::shared_ptr<const Database> snapshot = db->data();
      Result<const Table*> base = snapshot->GetTable(table);
      if (!base.ok()) return ErrorResponse(base.status(), keep_alive);
      const std::vector<Column>& columns = (*base)->columns();
      std::vector<std::vector<Value>> rows;
      rows.reserve(doc.array.size());
      for (size_t r = 0; r < doc.array.size(); ++r) {
        std::vector<Value> values;
        Status s = JsonRowToValues(doc.array[r], columns, r, &values);
        if (!s.ok()) return ErrorResponse(s, keep_alive);
        rows.push_back(std::move(values));
      }
      Status s = db->Append(table, rows);
      if (!s.ok()) return ErrorResponse(s, keep_alive);
      const std::string ok_body =
          "{\"tenant\":\"" + JsonEscape(tenant->name()) + "\",\"table\":\"" +
          JsonEscape(table) +
          "\",\"appended\":" + std::to_string(rows.size()) +
          ",\"epoch\":" + std::to_string(db->epoch()) + "}";
      return BuildResponse(200, "application/json", ok_body, keep_alive);
    }();
    Respond(conn, held.get(), std::move(response), keep_alive);
  });
}

std::string HttpServer::RenderModels(const std::string& tenant_name,
                                     int* http_status) const {
  std::vector<std::shared_ptr<Tenant>> targets;
  if (tenant_name.empty()) {
    targets = tenants_->tenants();
  } else {
    std::shared_ptr<Tenant> tenant = tenants_->Resolve(tenant_name);
    if (tenant == nullptr) {
      *http_status = 404;
      return ErrorBody("NotFound", "unknown tenant: '" + tenant_name + "'");
    }
    targets.push_back(std::move(tenant));
  }
  *http_status = 200;
  std::string out = "{\"tenants\":[";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i > 0) out += ',';
    const std::shared_ptr<Db>& db = targets[i]->db();
    out += "{\"tenant\":\"" + JsonEscape(targets[i]->name()) + "\"";
    out += ",\"epoch\":" + std::to_string(db->epoch());
    out += ",\"models\":[";
    const std::vector<ModelInfo> models = db->Freshness();
    for (size_t m = 0; m < models.size(); ++m) {
      if (m > 0) out += ',';
      out += ModelInfoJson(models[m]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.queries_admitted = query_admission_.admitted_total();
  s.queries_shed_global = query_admission_.shed_total();
  s.queries_shed_tenant = tenant_shed_.load(std::memory_order_relaxed);
  s.queries_inflight = query_admission_.inflight();
  s.disconnect_cancels = disconnect_cancels_.load(std::memory_order_relaxed);
  s.admission_queued = query_admission_.queued_total();
  s.admission_queue_timeouts = query_admission_.queue_timeouts();
  return s;
}

std::string HttpServer::RenderMetrics() const {
  const HttpServerStats s = stats();
  PrometheusRenderer out;
  out.Counter("restore_server_connections_accepted_total",
              "Connections accepted.", "",
              static_cast<double>(s.connections_accepted));
  out.Counter("restore_server_connections_shed_total",
              "Connections closed at accept because max_connections was "
              "reached.",
              "", static_cast<double>(s.connections_shed));
  out.Gauge("restore_server_connections_active", "Open connections.", "",
            static_cast<double>(s.connections_active));
  out.Counter("restore_server_requests_total", "HTTP requests routed.", "",
              static_cast<double>(s.requests_total));
  out.Counter("restore_server_bad_requests_total",
              "Malformed HTTP requests rejected.", "",
              static_cast<double>(s.bad_requests));
  out.Counter("restore_server_queries_admitted_total",
              "Queries admitted past the server-wide bound.", "",
              static_cast<double>(s.queries_admitted));
  out.Counter("restore_server_queries_shed_total",
              "Queries shed with 503 by admission control.",
              PrometheusLabel("scope", "global"),
              static_cast<double>(s.queries_shed_global));
  out.Counter("restore_server_queries_shed_total",
              "Queries shed with 503 by admission control.",
              PrometheusLabel("scope", "tenant"),
              static_cast<double>(s.queries_shed_tenant));
  out.Gauge("restore_server_queries_inflight", "Queries executing now.", "",
            static_cast<double>(s.queries_inflight));
  out.Counter("restore_server_disconnect_cancels_total",
              "In-flight queries cancelled because their client "
              "disconnected.",
              "", static_cast<double>(s.disconnect_cancels));
  out.Counter("restore_server_admission_queued_total",
              "Requests that parked in the admission queue.", "",
              static_cast<double>(s.admission_queued));
  out.Counter("restore_server_admission_queue_timeouts_total",
              "Queued requests shed because no slot freed within the wait "
              "budget.",
              "", static_cast<double>(s.admission_queue_timeouts));
  out.Gauge("restore_server_admission_queued_now",
            "Requests parked in the admission queue right now.", "",
            static_cast<double>(query_admission_.queued_now()));

  for (const auto& tenant : tenants_->tenants()) {
    const std::string label = PrometheusLabel("tenant", tenant->name());
    out.Counter("restore_server_tenant_queries_shed_total",
                "Queries shed by the tenant quota.", label,
                static_cast<double>(tenant->admission().shed_total()));
    out.AddDbStats(label, tenant->db()->stats());
    out.AddDbFreshness(label, tenant->db()->Freshness());
  }
  return out.Render();
}

void HttpServer::set_test_pre_query_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  test_pre_query_hook_ = std::move(hook);
}

#else  // !__linux__

struct HttpServer::Connection {};
class HttpServer::Acceptor {};
class HttpServer::WorkerPool {};

HttpServer::HttpServer(const TenantRegistry* tenants, ServerConfig config)
    : tenants_(tenants), config_(std::move(config)), query_admission_(0) {}
HttpServer::~HttpServer() {}
Status HttpServer::Start() {
  return Status::Unimplemented("the epoll server requires Linux");
}
void HttpServer::Stop() {}
HttpServerStats HttpServer::stats() const { return HttpServerStats(); }
std::string HttpServer::RenderMetrics() const { return ""; }
void HttpServer::set_test_pre_query_hook(std::function<void()>) {}
void HttpServer::AdoptConnection(int) {}
void HttpServer::Dispatch(std::shared_ptr<Connection>) {}
std::shared_ptr<Tenant> HttpServer::Admit(const std::shared_ptr<Connection>&,
                                          const std::string&, Slots*) {
  return nullptr;
}
bool HttpServer::AdmitQueued(const std::shared_ptr<Connection>&, Tenant*,
                             Slots*, bool) {
  return false;
}
void HttpServer::Respond(const std::shared_ptr<Connection>&, Slots*,
                         std::string, bool) {}
void HttpServer::SubmitQuery(std::shared_ptr<Connection>,
                             std::shared_ptr<Tenant>, std::string, Slots,
                             std::chrono::steady_clock::time_point) {}
void HttpServer::SubmitIngest(std::shared_ptr<Connection>,
                              std::shared_ptr<Tenant>, std::string,
                              std::string, Slots) {}
std::string HttpServer::RenderModels(const std::string&, int*) const {
  return "";
}
void HttpServer::ForgetConnection(size_t, Connection*) {}

#endif  // __linux__

}  // namespace server
}  // namespace restore
