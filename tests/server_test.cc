// End-to-end tests of the epoll HTTP server over real loopback sockets:
// routing, chunked query streaming, keep-alive, admission shedding (503),
// deadline mapping (504), disconnect-triggered cancellation, multi-tenancy,
// and the /metrics exposition.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "datagen/setups.h"
#include "restore/db.h"
#include "server/http.h"
#include "server/server.h"

namespace restore {
namespace server {
namespace {

// ---- Shared fixture Db ------------------------------------------------------

EngineConfig FastConfig() {
  EngineConfig config;
  config.model.epochs = 6;
  config.model.hidden_dim = 24;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.model.min_train_steps = 150;
  config.max_candidates = 2;
  return config;
}

std::shared_ptr<Db> OpenHousing(uint64_t seed,
                                RefreshPolicy policy = RefreshPolicy()) {
  auto complete = BuildCompleteDatabase("housing", seed, 0.25);
  EXPECT_TRUE(complete.ok());
  auto setup = SetupByName("H1");
  EXPECT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, seed + 1);
  EXPECT_TRUE(incomplete.ok());
  // The database must outlive the Db; keep it alive via a static pool.
  static std::vector<std::unique_ptr<Database>> databases;
  databases.push_back(std::make_unique<Database>(std::move(*incomplete)));
  auto db = Db::Open(databases.back().get(), AnnotationFor(*setup),
                     DbOptions().WithEngine(FastConfig()).WithRefreshPolicy(
                         policy));
  EXPECT_TRUE(db.ok()) << db.status();
  return *db;
}

/// One process-wide Db shared by the tests (opening is cheap, but the
/// underlying data generation is not worth repeating per test).
std::shared_ptr<Db> SharedDb() {
  static std::shared_ptr<Db> db = OpenHousing(9001);
  return db;
}

/// neighborhood is COMPLETE under H1, so this query takes the classical
/// path: no model training, fast and deterministic.
const char kCompleteTableSql[] =
    "SELECT COUNT(*) FROM neighborhood GROUP BY state;";

// ---- Minimal blocking HTTP client ------------------------------------------

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string RequestText(const std::string& method, const std::string& target,
                        const std::string& body,
                        const std::vector<std::string>& extra_headers = {}) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: localhost\r\n";
  for (const std::string& h : extra_headers) out += h + "\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

struct ClientResponse {
  int status = 0;
  std::string headers;  // raw header block
  std::string body;     // chunked bodies are de-chunked
  bool chunked = false;

  bool HasHeader(const std::string& needle) const {
    return headers.find(needle) != std::string::npos;
  }
};

/// Reads exactly one HTTP response (Content-Length or chunked framing) off
/// the socket. Returns false on EOF/error before a complete response.
/// `carry` (optional) holds surplus bytes of pipelined responses between
/// calls.
bool ReadResponse(int fd, ClientResponse* out, std::string* carry = nullptr) {
  std::string buf = carry != nullptr ? *carry : std::string();
  char tmp[4096];
  size_t head_end = std::string::npos;
  while (true) {
    head_end = buf.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf.append(tmp, static_cast<size_t>(n));
  }
  out->headers = buf.substr(0, head_end + 4);
  std::string rest = buf.substr(head_end + 4);
  if (out->headers.compare(0, 9, "HTTP/1.1 ") != 0) return false;
  out->status = std::atoi(out->headers.c_str() + 9);

  auto NeedMore = [&](void) -> bool {
    const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    rest.append(tmp, static_cast<size_t>(n));
    return true;
  };

  if (out->HasHeader("Transfer-Encoding: chunked")) {
    out->chunked = true;
    out->body.clear();
    size_t pos = 0;
    while (true) {
      size_t line_end;
      while ((line_end = rest.find("\r\n", pos)) == std::string::npos) {
        if (!NeedMore()) return false;
      }
      const size_t size =
          std::strtoul(rest.substr(pos, line_end - pos).c_str(), nullptr, 16);
      pos = line_end + 2;
      if (size == 0) {
        while (rest.size() < pos + 2) {
          if (!NeedMore()) return false;
        }
        if (carry != nullptr) *carry = rest.substr(pos + 2);
        return true;  // final chunk + trailing CRLF
      }
      while (rest.size() < pos + size + 2) {
        if (!NeedMore()) return false;
      }
      out->body += rest.substr(pos, size);
      pos += size + 2;
    }
  }

  size_t content_length = 0;
  const size_t cl = out->headers.find("Content-Length: ");
  if (cl != std::string::npos) {
    content_length = std::strtoul(out->headers.c_str() + cl + 16, nullptr, 10);
  }
  while (rest.size() < content_length) {
    if (!NeedMore()) return false;
  }
  out->body = rest.substr(0, content_length);
  if (carry != nullptr) *carry = rest.substr(content_length);
  return true;
}

ClientResponse RoundTrip(int fd, const std::string& request) {
  ClientResponse response;
  EXPECT_TRUE(SendAll(fd, request));
  EXPECT_TRUE(ReadResponse(fd, &response));
  return response;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// A gate the test_pre_query_hook blocks on, so tests hold queries in
/// flight deterministically.
class HookGate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  int entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }
  bool WaitForEntered(int n, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return entered_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

/// Starts a server on an ephemeral port over the shared Db.
struct TestServer {
  TenantRegistry tenants;
  std::unique_ptr<HttpServer> http;

  explicit TestServer(ServerConfig config = ServerConfig(),
                      TenantOptions default_quota = TenantOptions()) {
    EXPECT_TRUE(tenants.Add("h1", SharedDb(), default_quota).ok());
    config.port = 0;
    http = std::make_unique<HttpServer>(&tenants, config);
    Status s = http->Start();
    EXPECT_TRUE(s.ok()) << s;
  }
  ~TestServer() { http->Stop(); }
  uint16_t port() const { return http->port(); }
};

// ---- Tests ------------------------------------------------------------------

TEST(HttpServerTest, HealthzAndUnknownRoute) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  auto health = RoundTrip(fd, RequestText("GET", "/healthz", ""));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // Keep-alive: the same connection serves the next request.
  auto missing = RoundTrip(fd, RequestText("GET", "/nope", ""));
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("NotFound"), std::string::npos);

  auto wrong_method = RoundTrip(fd, RequestText("GET", "/v1/query", ""));
  EXPECT_EQ(wrong_method.status, 405);
  ::close(fd);

  const HttpServerStats stats = server.http->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_total, 3u);
}

TEST(HttpServerTest, QueryStreamsChunkedJsonRows) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  auto response =
      RoundTrip(fd, RequestText("POST", "/v1/query", kCompleteTableSql));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked) << response.headers;
  EXPECT_NE(response.body.find("\"key_columns\":[\"state\"]"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"value_columns\":[\"COUNT(*)\"]"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"rows\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"row_count\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"stats\":{"), std::string::npos);
  EXPECT_EQ(response.body.find("\"row_count\":0"), std::string::npos)
      << "expected a non-empty group-by result";

  // Keep-alive across a query response: run it again on the same socket.
  // Data (everything before the per-query stats) is identical.
  auto again =
      RoundTrip(fd, RequestText("POST", "/v1/query/h1", kCompleteTableSql));
  EXPECT_EQ(again.status, 200);
  EXPECT_EQ(again.body.substr(0, again.body.find("\"stats\"")),
            response.body.substr(0, response.body.find("\"stats\"")));
  ::close(fd);
}

TEST(HttpServerTest, ParseErrorAnswers400) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  auto response = RoundTrip(fd, RequestText("POST", "/v1/query", "nonsense"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("ParseError"), std::string::npos)
      << response.body;
  ::close(fd);
}

TEST(HttpServerTest, MalformedHttpAnswers400AndCloses) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  ClientResponse response;
  ASSERT_TRUE(SendAll(fd, "this is not http\r\n\r\n"));
  ASSERT_TRUE(ReadResponse(fd, &response));
  EXPECT_EQ(response.status, 400);
  EXPECT_TRUE(response.HasHeader("Connection: close"));
  // Server closes: the next read returns EOF.
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0);
  ::close(fd);
  EXPECT_TRUE(WaitFor([&] { return server.http->stats().bad_requests == 1; }));
}

TEST(HttpRequestParserTest, OversizedHeadAnswers431AndBodyAnswers413) {
  using State = HttpRequestParser::State;
  HttpRequestParser head;
  const std::string big(HttpRequestParser::kMaxHeadBytes + 1, 'a');
  EXPECT_EQ(head.Feed(big.data(), big.size()), State::kError);
  EXPECT_EQ(head.error_status(), 431);

  const auto with_length = [](size_t n) {
    return "POST /v1/query HTTP/1.1\r\nContent-Length: " + std::to_string(n) +
           "\r\n\r\n";
  };
  HttpRequestParser body;
  const std::string over = with_length(HttpRequestParser::kMaxBodyBytes + 1);
  EXPECT_EQ(body.Feed(over.data(), over.size()), State::kError);
  EXPECT_EQ(body.error_status(), 413);

  // A body of exactly the limit is accepted and awaits its bytes.
  HttpRequestParser at_limit;
  const std::string ok = with_length(HttpRequestParser::kMaxBodyBytes);
  EXPECT_EQ(at_limit.Feed(ok.data(), ok.size()), State::kNeedMore);
}

TEST(HttpServerTest, ExpiredDeadlineAnswers504) {
  TestServer server;
  const uint64_t expired_before =
      SharedDb()->stats().queries_deadline_exceeded;
  const int fd = ConnectTo(server.port());
  auto response = RoundTrip(fd, RequestText("POST", "/v1/query",
                                            kCompleteTableSql,
                                            {"X-Deadline-Ms: 0"}));
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("DeadlineExceeded"), std::string::npos)
      << response.body;
  // The expiry is recorded in the Db's own accounting.
  EXPECT_GT(SharedDb()->stats().queries_deadline_exceeded, expired_before);

  auto bad = RoundTrip(fd, RequestText("POST", "/v1/query", kCompleteTableSql,
                                       {"X-Deadline-Ms: soon"}));
  EXPECT_EQ(bad.status, 400);
  ::close(fd);
}

TEST(HttpServerTest, UnknownTenantAnswers404) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  auto response =
      RoundTrip(fd, RequestText("POST", "/v1/query/nope", kCompleteTableSql));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("unknown tenant"), std::string::npos);
  ::close(fd);
}

TEST(HttpServerTest, AdmissionOverflowSheds503WithoutSession) {
  ServerConfig config;
  config.max_inflight_queries = 2;
  config.query_threads = 2;
  TestServer server(config);
  auto gate = std::make_shared<HookGate>();
  server.http->set_test_pre_query_hook([gate] { gate->Block(); });

  const Db::Stats db_before = SharedDb()->stats();
  const uint64_t db_queries_before =
      db_before.queries_ok + db_before.queries_cancelled +
      db_before.queries_deadline_exceeded + db_before.queries_failed;

  // Fill both in-flight slots; the hook holds them on the workers.
  const int fd1 = ConnectTo(server.port());
  const int fd2 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd1, RequestText("POST", "/v1/query",
                                       kCompleteTableSql)));
  ASSERT_TRUE(SendAll(fd2, RequestText("POST", "/v1/query",
                                       kCompleteTableSql)));
  ASSERT_TRUE(gate->WaitForEntered(2));

  // The third query is shed with 503 straight from the event thread: no
  // Session is created, no Db query is recorded, and the response arrives
  // while the other two queries are still blocked.
  const int fd3 = ConnectTo(server.port());
  auto shed = RoundTrip(fd3, RequestText("POST", "/v1/query",
                                         kCompleteTableSql));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("ResourceExhausted"), std::string::npos);
  EXPECT_EQ(server.http->stats().queries_shed_global, 1u);
  EXPECT_EQ(server.http->stats().queries_inflight, 2u);
  {
    const Db::Stats now = SharedDb()->stats();
    EXPECT_EQ(now.queries_ok + now.queries_cancelled +
                  now.queries_deadline_exceeded + now.queries_failed,
              db_queries_before)
        << "a shed query must never reach the Db";
  }

  // Shedding keeps the connection alive.
  auto health = RoundTrip(fd3, RequestText("GET", "/healthz", ""));
  EXPECT_EQ(health.status, 200);

  gate->Open();
  ClientResponse r1, r2;
  EXPECT_TRUE(ReadResponse(fd1, &r1));
  EXPECT_TRUE(ReadResponse(fd2, &r2));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r2.status, 200);
  EXPECT_TRUE(WaitFor(
      [&] { return server.http->stats().queries_inflight == 0; }));
  ::close(fd1);
  ::close(fd2);
  ::close(fd3);
}

TEST(HttpServerTest, TenantQuotaShedsIndependently) {
  ServerConfig config;
  config.max_inflight_queries = 8;
  config.query_threads = 2;
  TenantOptions quota;
  quota.max_inflight_queries = 1;
  TestServer server(config, quota);
  auto gate = std::make_shared<HookGate>();
  server.http->set_test_pre_query_hook([gate] { gate->Block(); });

  const int fd1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd1, RequestText("POST", "/v1/query/h1",
                                       kCompleteTableSql)));
  ASSERT_TRUE(gate->WaitForEntered(1));

  const int fd2 = ConnectTo(server.port());
  auto shed = RoundTrip(fd2, RequestText("POST", "/v1/query/h1",
                                         kCompleteTableSql));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("quota"), std::string::npos) << shed.body;
  EXPECT_EQ(server.http->stats().queries_shed_tenant, 1u);
  EXPECT_EQ(server.http->stats().queries_shed_global, 0u);

  gate->Open();
  ClientResponse r1;
  EXPECT_TRUE(ReadResponse(fd1, &r1));
  EXPECT_EQ(r1.status, 200);
  ::close(fd1);
  ::close(fd2);
}

TEST(HttpServerTest, ClientDisconnectCancelsInflightQuery) {
  ServerConfig config;
  config.query_threads = 1;
  TestServer server(config);
  auto gate = std::make_shared<HookGate>();
  server.http->set_test_pre_query_hook([gate] { gate->Block(); });

  const uint64_t cancelled_before = SharedDb()->stats().queries_cancelled;

  const int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd, RequestText("POST", "/v1/query",
                                      kCompleteTableSql)));
  ASSERT_TRUE(gate->WaitForEntered(1));

  // Client walks away mid-query: the event loop sees the hangup and
  // requests cancellation of the in-flight token.
  ::close(fd);
  EXPECT_TRUE(WaitFor(
      [&] { return server.http->stats().disconnect_cancels == 1; }));

  // Release the worker; the engine observes the cancelled token and the Db
  // records the cancellation.
  gate->Open();
  EXPECT_TRUE(WaitFor([&] {
    return SharedDb()->stats().queries_cancelled > cancelled_before;
  }));
  EXPECT_TRUE(WaitFor(
      [&] { return server.http->stats().queries_inflight == 0; }));
}

TEST(HttpServerTest, MetricsExposesServerAndTenantFamilies) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  // One query first so the counters are non-trivial.
  auto query =
      RoundTrip(fd, RequestText("POST", "/v1/query", kCompleteTableSql));
  EXPECT_EQ(query.status, 200);

  auto metrics = RoundTrip(fd, RequestText("GET", "/metrics", ""));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_TRUE(metrics.HasHeader("text/plain; version=0.0.4"))
      << metrics.headers;
  const std::string& text = metrics.body;
  EXPECT_NE(text.find("# TYPE restore_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE restore_server_connections_active gauge"),
            std::string::npos);
  EXPECT_NE(text.find("restore_server_queries_admitted_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("restore_queries_total{tenant=\"h1\",outcome=\"ok\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("restore_server_queries_shed_total{scope=\"global\"} 0\n"),
      std::string::npos);
  // Single HELP per family even with per-scope/per-tenant label sets.
  const std::string help = "# HELP restore_server_queries_shed_total";
  EXPECT_EQ(text.find(help), text.rfind(help));
  ::close(fd);
}

TEST(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  TestServer server;
  const int fd = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd, RequestText("GET", "/healthz", "") +
                              RequestText("GET", "/healthz", "") +
                              RequestText("GET", "/nope", "")));
  ClientResponse r1, r2, r3;
  std::string carry;
  ASSERT_TRUE(ReadResponse(fd, &r1, &carry));
  ASSERT_TRUE(ReadResponse(fd, &r2, &carry));
  ASSERT_TRUE(ReadResponse(fd, &r3, &carry));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r2.status, 200);
  EXPECT_EQ(r3.status, 404);
  ::close(fd);
}

TEST(HttpServerTest, ManyConcurrentKeepAliveConnections) {
  ServerConfig config;
  config.event_threads = 2;
  TestServer server(config);
  constexpr int kConnections = 128;
  std::vector<int> fds;
  fds.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) fds.push_back(ConnectTo(server.port()));
  // Every connection stays open while each serves requests in turn.
  for (int round = 0; round < 2; ++round) {
    for (int fd : fds) {
      auto response = RoundTrip(fd, RequestText("GET", "/healthz", ""));
      ASSERT_EQ(response.status, 200);
    }
  }
  const HttpServerStats stats = server.http->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kConnections));
  EXPECT_EQ(stats.connections_active, static_cast<uint64_t>(kConnections));
  EXPECT_EQ(stats.requests_total, static_cast<uint64_t>(2 * kConnections));
  for (int fd : fds) ::close(fd);
}

TEST(HttpServerTest, ConnectionCapSheds) {
  ServerConfig config;
  config.max_connections = 2;
  TestServer server(config);
  const int fd1 = ConnectTo(server.port());
  const int fd2 = ConnectTo(server.port());
  EXPECT_EQ(RoundTrip(fd1, RequestText("GET", "/healthz", "")).status, 200);
  EXPECT_EQ(RoundTrip(fd2, RequestText("GET", "/healthz", "")).status, 200);

  // Over the cap: the server accepts and immediately closes.
  const int fd3 = ConnectTo(server.port());
  char c;
  EXPECT_EQ(::recv(fd3, &c, 1, 0), 0);
  EXPECT_TRUE(
      WaitFor([&] { return server.http->stats().connections_shed == 1; }));
  ::close(fd1);
  ::close(fd2);
  ::close(fd3);
}

TEST(HttpServerTest, SetGlobalWidthWhileServing) {
  // Satellite of the serving layer: resizing the shared NN pool while a
  // server is live (its query workers may hold a reference from Global())
  // must be safe and observable through Width().
  TestServer server;
  const int fd = ConnectTo(server.port());
  EXPECT_EQ(RoundTrip(fd, RequestText("POST", "/v1/query",
                                      kCompleteTableSql)).status,
            200);
  ThreadPool::SetGlobalWidth(2);
  EXPECT_EQ(ThreadPool::GlobalWidth(), 2u);
  EXPECT_EQ(ThreadPool::Global().Width(), 2u);
  EXPECT_EQ(RoundTrip(fd, RequestText("POST", "/v1/query",
                                      kCompleteTableSql)).status,
            200);
  ThreadPool::SetGlobalWidth(0);  // restore the environment default
  EXPECT_EQ(RoundTrip(fd, RequestText("GET", "/healthz", "")).status, 200);
  ::close(fd);
}

TEST(HttpServerTest, IngestAppendsRowsVisibleToQueries) {
  TestServer server;
  const int fd = ConnectTo(server.port());

  // neighborhood is COMPLETE under H1, so the re-query below takes the
  // classical path and must reflect the appended rows exactly. The state
  // "zz" does not exist in the generated data.
  const std::string rows =
      "[[909000,\"zz\",1.5,\"urban\",null],"
      "[909001,\"zz\",2.5,\"rural\",null],"
      "[909002,\"zz\",3.5,\"urban\",null]]";
  auto ingest =
      RoundTrip(fd, RequestText("POST", "/v1/ingest/h1/neighborhood", rows));
  EXPECT_EQ(ingest.status, 200) << ingest.body;
  EXPECT_NE(ingest.body.find("\"appended\":3"), std::string::npos)
      << ingest.body;
  EXPECT_NE(ingest.body.find("\"epoch\":"), std::string::npos);

  auto query =
      RoundTrip(fd, RequestText("POST", "/v1/query", kCompleteTableSql));
  EXPECT_EQ(query.status, 200);
  EXPECT_NE(query.body.find("\"zz\""), std::string::npos) << query.body;
  ::close(fd);
}

TEST(HttpServerTest, IngestStoresLargeInt64LiteralsExactly) {
  TestServer server;
  const int fd = ConnectTo(server.port());

  // Both ids are exactly representable as int64 but NOT as double: a parse
  // that narrows through strtod would silently store 9007199254740992 and
  // 1234567890123456790, and an integrality check on the already-rounded
  // double cannot notice.
  const int64_t kBig1 = 9007199254740993LL;  // 2^53 + 1
  const int64_t kBig2 = 1234567890123456789LL;
  auto ingest = RoundTrip(
      fd, RequestText("POST", "/v1/ingest/h1/neighborhood",
                      "[[9007199254740993,\"zy\",1.5,\"urban\",null],"
                      "[1234567890123456789,\"zy\",2.5,\"rural\",null]]"));
  EXPECT_EQ(ingest.status, 200) << ingest.body;

  const std::shared_ptr<const Database> data = SharedDb()->data();
  const Table* table = *data->GetTable("neighborhood");
  const Column* id = *table->GetColumn("id");
  const size_t rows = table->NumRows();
  ASSERT_GE(rows, 2u);
  EXPECT_EQ(id->GetInt64(rows - 2), kBig1);
  EXPECT_EQ(id->GetInt64(rows - 1), kBig2);

  // One past int64 max: rejected outright, never wrapped or saturated.
  auto overflow = RoundTrip(
      fd, RequestText("POST", "/v1/ingest/h1/neighborhood",
                      "[[9223372036854775808,\"zy\",1.5,\"urban\",null]]"));
  EXPECT_EQ(overflow.status, 400) << overflow.body;
  EXPECT_NE(overflow.body.find("int64 range"), std::string::npos)
      << overflow.body;
  ::close(fd);
}

TEST(HttpServerTest, IngestRejectsBadPayloadsWithoutPublishing) {
  TestServer server;
  const int fd = ConnectTo(server.port());

  // Malformed JSON.
  auto bad_json = RoundTrip(
      fd, RequestText("POST", "/v1/ingest/h1/neighborhood", "[[1,"));
  EXPECT_EQ(bad_json.status, 400) << bad_json.body;
  // Objects are rejected: rows are positional arrays.
  auto object = RoundTrip(
      fd, RequestText("POST", "/v1/ingest/h1/neighborhood", "{\"id\": 1}"));
  EXPECT_EQ(object.status, 400);
  // Top level must be an array.
  auto scalar =
      RoundTrip(fd, RequestText("POST", "/v1/ingest/h1/neighborhood", "42"));
  EXPECT_EQ(scalar.status, 400);
  // Type mismatch: categorical column fed a number.
  auto typed = RoundTrip(
      fd, RequestText("POST", "/v1/ingest/h1/neighborhood",
                      "[[909100,7,1.5,\"urban\",null]]"));
  EXPECT_EQ(typed.status, 400);
  EXPECT_NE(typed.body.find("column 'state'"), std::string::npos)
      << typed.body;

  // Routing errors.
  EXPECT_EQ(RoundTrip(fd, RequestText("POST", "/v1/ingest/h1/no_such_table",
                                      "[[1]]"))
                .status,
            404);
  EXPECT_EQ(RoundTrip(fd, RequestText("POST", "/v1/ingest/nobody/neighborhood",
                                      "[[1]]"))
                .status,
            404);
  EXPECT_EQ(RoundTrip(fd, RequestText("GET", "/v1/ingest/h1/neighborhood", ""))
                .status,
            405);
  ::close(fd);
}

TEST(HttpServerTest, IngestSharesQueryAdmissionBounds) {
  // With `held` hooked queries filling a bound, an ingest is shed from the
  // event thread with 503 naming that bound, and publishes nothing.
  const auto expect_shed = [](ServerConfig config, TenantOptions quota,
                              int held, const std::string& reason) {
    config.query_threads = 2;
    TestServer server(config, quota);
    auto gate = std::make_shared<HookGate>();
    server.http->set_test_pre_query_hook([gate] { gate->Block(); });
    std::vector<int> fds;
    for (int i = 0; i < held; ++i) {
      fds.push_back(ConnectTo(server.port()));
      ASSERT_TRUE(SendAll(fds.back(), RequestText("POST", "/v1/query/h1",
                                                  kCompleteTableSql)));
    }
    ASSERT_TRUE(gate->WaitForEntered(held));
    const uint64_t epoch_before = SharedDb()->epoch();
    const int fd = ConnectTo(server.port());
    auto shed = RoundTrip(fd, RequestText("POST", "/v1/ingest/h1/neighborhood",
                                          "[[909200,\"zx\",1.5,\"urban\","
                                          "null]]"));
    EXPECT_EQ(shed.status, 503) << shed.body;
    EXPECT_NE(shed.body.find("ResourceExhausted"), std::string::npos);
    EXPECT_NE(shed.body.find(reason), std::string::npos) << shed.body;
    EXPECT_EQ(SharedDb()->epoch(), epoch_before);

    gate->Open();
    for (const int held_fd : fds) {
      ClientResponse r;
      EXPECT_TRUE(ReadResponse(held_fd, &r));
      EXPECT_EQ(r.status, 200);
      ::close(held_fd);
    }
    ::close(fd);
  };
  ServerConfig two_slots;
  two_slots.max_inflight_queries = 2;
  expect_shed(two_slots, TenantOptions(), 2, "server query capacity");
  ServerConfig roomy;
  roomy.max_inflight_queries = 8;
  TenantOptions one_slot;
  one_slot.max_inflight_queries = 1;
  expect_shed(roomy, one_slot, 1, "quota");
}

TEST(HttpServerTest, QueueModeParksIngestUntilSlotFrees) {
  ServerConfig config;
  config.max_inflight_queries = 1;
  config.admission_queue_depth = 4;
  config.admission_queue_wait_ms = 5000;
  config.query_threads = 2;
  TestServer server(config);
  auto gate = std::make_shared<HookGate>();
  server.http->set_test_pre_query_hook([gate] { gate->Block(); });

  const int fd1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd1, RequestText("POST", "/v1/query",
                                       kCompleteTableSql)));
  ASSERT_TRUE(gate->WaitForEntered(1));

  // The ingest parks in the admission FIFO behind the held query and
  // publishes nothing until it is admitted.
  const uint64_t epoch_before = SharedDb()->epoch();
  const int fd2 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd2, RequestText("POST", "/v1/ingest/h1/neighborhood",
                                       "[[909300,\"zx\",1.5,\"urban\","
                                       "null]]")));
  ASSERT_TRUE(WaitFor(
      [&] { return server.http->stats().admission_queued >= 1; }));
  EXPECT_EQ(SharedDb()->epoch(), epoch_before);

  gate->Open();
  ClientResponse r1, r2;
  EXPECT_TRUE(ReadResponse(fd1, &r1));
  EXPECT_TRUE(ReadResponse(fd2, &r2));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r2.status, 200) << r2.body;
  EXPECT_NE(r2.body.find("\"appended\":1"), std::string::npos) << r2.body;
  EXPECT_EQ(SharedDb()->epoch(), epoch_before + 1);
  EXPECT_EQ(server.http->stats().admission_queue_timeouts, 0u);
  ::close(fd1);
  ::close(fd2);
}

TEST(HttpServerTest, ModelsEndpointRendersFreshness) {
  TestServer server;
  const int fd = ConnectTo(server.port());

  auto all = RoundTrip(fd, RequestText("GET", "/v1/models", ""));
  EXPECT_EQ(all.status, 200);
  EXPECT_TRUE(all.HasHeader("application/json")) << all.headers;
  EXPECT_NE(all.body.find("\"tenants\""), std::string::npos) << all.body;
  EXPECT_NE(all.body.find("\"tenant\":\"h1\""), std::string::npos);
  EXPECT_NE(all.body.find("\"epoch\":"), std::string::npos);

  auto one = RoundTrip(fd, RequestText("GET", "/v1/models/h1", ""));
  EXPECT_EQ(one.status, 200);
  EXPECT_NE(one.body.find("\"models\""), std::string::npos) << one.body;

  EXPECT_EQ(RoundTrip(fd, RequestText("GET", "/v1/models/nobody", "")).status,
            404);
  EXPECT_EQ(RoundTrip(fd, RequestText("POST", "/v1/models", "x")).status, 405);
  ::close(fd);
}

TEST(HttpServerTest, QueueModeAdmitsQueuedRequestWhenSlotFrees) {
  ServerConfig config;
  config.max_inflight_queries = 1;
  config.admission_queue_depth = 4;
  config.admission_queue_wait_ms = 5000;
  config.query_threads = 2;
  TestServer server(config);
  auto gate = std::make_shared<HookGate>();
  server.http->set_test_pre_query_hook([gate] { gate->Block(); });

  // Fill the single slot; the hook holds the query on a worker.
  const int fd1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd1, RequestText("POST", "/v1/query",
                                       kCompleteTableSql)));
  ASSERT_TRUE(gate->WaitForEntered(1));

  // The second query parks in the admission FIFO instead of being shed.
  const int fd2 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd2, RequestText("POST", "/v1/query",
                                       kCompleteTableSql)));
  ASSERT_TRUE(WaitFor(
      [&] { return server.http->stats().admission_queued >= 1; }));
  EXPECT_EQ(server.http->stats().queries_shed_global, 0u);

  // Releasing the first query hands its slot to the queued waiter.
  gate->Open();
  ClientResponse r1, r2;
  EXPECT_TRUE(ReadResponse(fd1, &r1));
  EXPECT_TRUE(ReadResponse(fd2, &r2));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r2.status, 200);
  EXPECT_EQ(server.http->stats().admission_queue_timeouts, 0u);
  EXPECT_TRUE(WaitFor(
      [&] { return server.http->stats().queries_inflight == 0; }));
  ::close(fd1);
  ::close(fd2);
}

TEST(HttpServerTest, QueueModeTimeoutAnswers503WithRetryAfter) {
  ServerConfig config;
  config.max_inflight_queries = 1;
  config.admission_queue_depth = 2;
  config.admission_queue_wait_ms = 100;
  config.query_threads = 2;
  TestServer server(config);
  auto gate = std::make_shared<HookGate>();
  server.http->set_test_pre_query_hook([gate] { gate->Block(); });

  const int fd1 = ConnectTo(server.port());
  ASSERT_TRUE(SendAll(fd1, RequestText("POST", "/v1/query",
                                       kCompleteTableSql)));
  ASSERT_TRUE(gate->WaitForEntered(1));

  // The queued request outlives its bounded wait: deterministic 503 with a
  // Retry-After hint, while the in-flight query is untouched.
  const int fd2 = ConnectTo(server.port());
  auto timed_out = RoundTrip(fd2, RequestText("POST", "/v1/query",
                                              kCompleteTableSql));
  EXPECT_EQ(timed_out.status, 503);
  EXPECT_TRUE(timed_out.HasHeader("Retry-After: 1")) << timed_out.headers;
  EXPECT_NE(timed_out.body.find("admission queue wait exceeded"),
            std::string::npos)
      << timed_out.body;
  EXPECT_EQ(server.http->stats().admission_queue_timeouts, 1u);
  EXPECT_GE(server.http->stats().admission_queued, 1u);

  gate->Open();
  ClientResponse r1;
  EXPECT_TRUE(ReadResponse(fd1, &r1));
  EXPECT_EQ(r1.status, 200);
  ::close(fd1);
  ::close(fd2);
}

TEST(HttpServerTest, OpenBreakerAnswers503WithRetryAfterAndDegradedHealthz) {
  // Dedicated Db: the injected training failure must not poison the shared
  // fixture's model cache for later tests.
  FaultInjection::Instance().Reset();
  RefreshPolicy policy;
  policy.breaker_failure_threshold = 1;
  policy.breaker_open_ms = 60000;  // stays open for the whole test
  TenantRegistry tenants;
  ASSERT_TRUE(tenants.Add("h1", OpenHousing(9100, policy)).ok());
  ServerConfig config;
  config.port = 0;
  HttpServer http(&tenants, config);
  ASSERT_TRUE(http.Start().ok());
  const int fd = ConnectTo(http.port());
  // apartment is incomplete under H1, so this query needs a model.
  const std::string model_sql =
      "SELECT COUNT(*) FROM apartment GROUP BY room_type;";

  // First query: one candidate's training aborts on the injected fault, so
  // path selection fails -> 500, and the failure trips that path's breaker.
  FaultInjection::Instance().Arm("train.path", FaultPolicy::FailFirst(1));
  auto failed = RoundTrip(fd, RequestText("POST", "/v1/query", model_sql));
  EXPECT_EQ(failed.status, 500) << failed.body;
  const uint64_t attempts = FaultInjection::Instance().hits("train.path");
  EXPECT_GE(attempts, 1u);

  // Second query: selection retries (failures are never cached there), hits
  // the open breaker, and the Db fails fast with kUnavailable -> 503 +
  // Retry-After — without a single new training attempt.
  auto unavailable = RoundTrip(fd, RequestText("POST", "/v1/query",
                                               model_sql));
  EXPECT_EQ(unavailable.status, 503) << unavailable.body;
  EXPECT_TRUE(unavailable.HasHeader("Retry-After: 1")) << unavailable.headers;
  EXPECT_NE(unavailable.body.find("circuit breaker"), std::string::npos)
      << unavailable.body;
  EXPECT_EQ(FaultInjection::Instance().hits("train.path"), attempts);

  // /healthz degrades (still HTTP 200: the process is up and serving).
  auto health = RoundTrip(fd, RequestText("GET", "/healthz", ""));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("degraded"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("breakers_open(h1)"), std::string::npos)
      << health.body;

  ::close(fd);
  http.Stop();
  FaultInjection::Instance().Reset();
}

TEST(HttpServerTest, StartFailsCleanlyOnBadAddress) {
  TenantRegistry tenants;
  EXPECT_TRUE(tenants.Add("h1", SharedDb()).ok());
  ServerConfig config;
  config.bind_address = "999.999.0.1";
  HttpServer http(&tenants, config);
  Status s = http.Start();
  EXPECT_FALSE(s.ok());
  http.Stop();  // no-op: Start failed without side effects
}

}  // namespace
}  // namespace server
}  // namespace restore
