#ifndef RESTORE_SERVER_SERVER_H_
#define RESTORE_SERVER_SERVER_H_

// The network service layer in front of restore::Db: a non-blocking epoll
// HTTP/1.1 server (single acceptor + N event threads + a bounded query
// worker pool) exposing
//
//   POST /v1/query[/<tenant>]   SQL body -> chunked JSON rows, one HTTP
//                               chunk per ResultSet::NextBatch() batch
//   POST /v1/ingest[/<tenant>]/<table>
//                               JSON array of positional row arrays ->
//                               Db::Append; answers {"appended":N,...}
//   GET  /v1/models[/<tenant>]  per-path model freshness (Db::Freshness())
//                               as JSON, one entry per serving model
//   GET  /metrics               Db::stats() of every tenant + server
//                               counters, Prometheus text format
//   GET  /healthz               liveness probe
//
// Request headers:
//   X-Deadline-Ms: <n>          maps to QueryOptions.deadline; an expired
//                               deadline answers 504
//
// Lifecycle mapping: a client disconnect while its query is in flight
// triggers CancellationToken::RequestCancel, so the engine stops sampling
// for a reader that is gone. Admission control bounds in-flight queries
// globally and per tenant; excess load is shed with 503 before a Session
// is ever created.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/tenant_registry.h"

namespace restore {
namespace server {

struct ServerConfig {
  /// Listen address/port. Port 0 binds an ephemeral port (see
  /// HttpServer::port() after Start), which tests and benches use.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 8080;

  /// Event (epoll) threads; connections are assigned round-robin. The
  /// acceptor shares the first loop.
  size_t event_threads = 1;

  /// Worker threads executing queries (Session::Execute blocks, so it must
  /// never run on an event thread).
  size_t query_threads = 4;

  /// Server-wide bound on queries in flight; exceeding it sheds with 503.
  size_t max_inflight_queries = 64;

  /// Queue-mode admission: when > 0, a request over max_inflight_queries
  /// parks in a bounded FIFO (this deep) instead of shedding immediately,
  /// and is shed with 503 + Retry-After only when the queue is full or no
  /// slot frees within admission_queue_wait_ms. 0 keeps pure shed mode.
  /// Queue mode needs query_threads > the number of workers a test (or
  /// workload) can block, since waiters park on a worker thread.
  size_t admission_queue_depth = 0;
  uint64_t admission_queue_wait_ms = 100;

  /// Bound on open connections; beyond it, accepted sockets are closed
  /// immediately (counted in stats().connections_shed).
  size_t max_connections = 4096;
};

/// Monotonic server-level counters, all readable while serving.
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;  // over max_connections
  uint64_t connections_active = 0;
  uint64_t requests_total = 0;        // parsed HTTP requests routed
  uint64_t bad_requests = 0;          // parse errors answered 4xx/5xx
  uint64_t queries_admitted = 0;
  uint64_t queries_shed_global = 0;   // 503: server-wide bound
  uint64_t queries_shed_tenant = 0;   // 503: tenant quota
  uint64_t queries_inflight = 0;
  uint64_t disconnect_cancels = 0;    // client gone -> RequestCancel
  uint64_t admission_queued = 0;        // requests that parked in the queue
  uint64_t admission_queue_timeouts = 0;  // parked, then shed on timeout
};

class HttpServer {
 public:
  /// The registry must outlive the server; tenants must be fully added
  /// before Start.
  HttpServer(const TenantRegistry* tenants, ServerConfig config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the event + worker threads. Fails without
  /// side effects (no threads) on bind/listen errors.
  Status Start();

  /// Graceful shutdown: stops accepting, lets in-flight queries finish,
  /// flushes their responses, closes every connection, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (resolves port 0 after Start).
  uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  HttpServerStats stats() const;

  /// The /metrics payload: server counters plus every tenant's Db::stats(),
  /// rendered as Prometheus text format.
  std::string RenderMetrics() const;

  /// Test hook: runs on the query worker right before a query executes,
  /// with the admission slots held. Lets tests deterministically hold a
  /// query in flight (admission overflow, disconnect-cancellation).
  void set_test_pre_query_hook(std::function<void()> hook);

 private:
  struct Connection;
  class Acceptor;
  class WorkerPool;
  /// Per-loop ownership map of the connections assigned to that loop;
  /// touched only from the loop's own thread.
  struct LoopConnections;

  friend struct Connection;
  friend class Acceptor;

  /// The server-wide and tenant admission slots one request holds.
  struct Slots {
    AdmissionSlot global;
    AdmissionSlot tenant;
  };

  void AdoptConnection(int fd);
  void ForgetConnection(size_t loop_index, Connection* conn);
  /// Routes one parsed request on the connection's loop thread.
  void Dispatch(std::shared_ptr<Connection> conn);
  /// Event-thread admission of a query or an ingest: resolves the tenant
  /// and, outside queue mode, takes both slots. Answers the request itself
  /// (503 shed, 404 unknown tenant) and returns nullptr when it refuses.
  std::shared_ptr<Tenant> Admit(const std::shared_ptr<Connection>& conn,
                                const std::string& tenant_name, Slots* slots);
  /// Worker-side queue-mode admission: parks for the server-wide slot, then
  /// takes the tenant slot. Answers the request itself and returns false
  /// when it refuses. A no-op outside queue mode.
  bool AdmitQueued(const std::shared_ptr<Connection>& conn, Tenant* tenant,
                   Slots* slots, bool keep_alive);
  /// Releases `slots`, then posts `response` to the connection's loop.
  void Respond(const std::shared_ptr<Connection>& conn, Slots* slots,
               std::string response, bool keep_alive);
  void SubmitQuery(std::shared_ptr<Connection> conn,
                   std::shared_ptr<Tenant> tenant, std::string sql,
                   Slots slots,
                   std::chrono::steady_clock::time_point deadline);
  /// Parses the JSON row payload and runs Db::Append on a query worker
  /// (ingestion blocks on the writer lock, so it never runs on an event
  /// thread). Shares the query admission bounds.
  void SubmitIngest(std::shared_ptr<Connection> conn,
                    std::shared_ptr<Tenant> tenant, std::string table,
                    std::string body, Slots slots);
  /// The /v1/models payload: every tenant's (or one tenant's) Db::Freshness
  /// rendered as JSON. Cheap enough for the event thread.
  std::string RenderModels(const std::string& tenant_name,
                           int* http_status) const;

  const TenantRegistry* tenants_;
  ServerConfig config_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  bool running_ = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::unique_ptr<LoopConnections>> conns_;
  std::unique_ptr<Acceptor> acceptor_;
  std::unique_ptr<WorkerPool> workers_;
  AdmissionController query_admission_;
  std::atomic<size_t> next_loop_{0};

  // Counters not already owned by an AdmissionController.
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> tenant_shed_{0};
  std::atomic<uint64_t> disconnect_cancels_{0};

  std::mutex hook_mu_;
  std::function<void()> test_pre_query_hook_;
};

}  // namespace server
}  // namespace restore

#endif  // RESTORE_SERVER_SERVER_H_
