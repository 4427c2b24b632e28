#ifndef RESTORE_PERFBENCH_HTTP_CLIENT_H_
#define RESTORE_PERFBENCH_HTTP_CLIENT_H_

// Minimal blocking HTTP/1.1 keep-alive client for the load generator: one
// request in flight per connection, Content-Length or chunked responses.

#include <cstddef>
#include <cstdint>
#include <string>

namespace restore {
namespace perfbench {

/// A raw HTTP/1.1 POST request with `body` as its payload.
std::string PostRequest(const std::string& path, const std::string& body);

struct HttpResponse {
  int status = 0;       // 0 on transport error
  std::string body;     // de-chunked payload
  size_t wire_bytes = 0;  // bytes read off the socket for this response
};

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY.
  bool Connect(uint16_t port);
  /// Sends `request` and reads one full response into `*out`. False (and
  /// out->status == 0) on any transport or framing error.
  bool RoundTrip(const std::string& request, HttpResponse* out);

 private:
  bool ReadResponse(HttpResponse* out);
  /// Appends at least one more received chunk of bytes to buf_.
  bool Fill(HttpResponse* out);

  int fd_ = -1;
  std::string buf_;  // received, not yet consumed bytes
};

}  // namespace perfbench
}  // namespace restore

#endif  // RESTORE_PERFBENCH_HTTP_CLIENT_H_
