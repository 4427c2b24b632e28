#ifndef RESTORE_SERVER_HTTP_H_
#define RESTORE_SERVER_HTTP_H_

// Minimal HTTP/1.1 for the serving layer: an incremental request parser fed
// raw socket bytes (keep-alive and pipelining safe — leftover bytes after
// one message start the next), and response/chunk encoders. Only what the
// server needs: request line + headers + Content-Length bodies in, status
// line + headers + identity or chunked bodies out.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace restore {
namespace server {

/// One parsed request. Header names are matched case-insensitively via
/// FindHeader; values are returned with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // origin-form target, e.g. "/v1/query/housing?x=1"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(const std::string& name) const;

  /// Target path without the query string ("/v1/query/housing").
  std::string Path() const;

  /// Connection persistence per RFC 7230: HTTP/1.1 defaults to keep-alive
  /// unless "Connection: close"; HTTP/1.0 requires an explicit keep-alive.
  bool KeepAlive() const;
};

/// Incremental HTTP/1.1 request parser. Feed it raw bytes as they arrive;
/// it consumes exactly one message per Feed()==kComplete and leaves any
/// pipelined surplus buffered for the next cycle (call Reset() between
/// messages, which keeps the surplus).
class HttpRequestParser {
 public:
  enum class State {
    kNeedMore,   // message incomplete, feed more bytes
    kComplete,   // request() is fully parsed
    kError,      // malformed or over limit; error_status()/error_reason()
  };

  /// A head past kMaxHeadBytes fails with 431, a declared body past
  /// kMaxBodyBytes with 413.
  static constexpr size_t kMaxHeadBytes = 16 * 1024;
  static constexpr size_t kMaxBodyBytes = 1 << 20;

  /// Appends `n` bytes and advances the parse. Idempotent at terminal
  /// states (kComplete/kError stay put until Reset).
  State Feed(const char* data, size_t n);

  /// Re-arms the parser for the next message on the same connection,
  /// preserving already-buffered pipelined bytes (which are parsed
  /// immediately; check the return state).
  State Reset();

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }

  /// HTTP status code to answer a kError parse with (400, 431, 413, 501).
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

 private:
  State Fail(int status, std::string reason);
  State Advance();
  State ParseHead(size_t head_end);

  std::string buffer_;
  HttpRequest request_;
  State state_ = State::kNeedMore;
  bool head_done_ = false;
  size_t body_remaining_ = 0;
  int error_status_ = 400;
  std::string error_reason_;
};

/// Serializes a full response with Content-Length framing. `headers` are
/// extra headers beyond Content-Length/Connection; `keep_alive` renders the
/// Connection header.
std::string BuildResponse(
    int status, const std::string& content_type, const std::string& body,
    bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& headers = {});

/// The head of a chunked response (Transfer-Encoding: chunked); follow with
/// EncodeChunk() per payload and FinalChunk() to terminate.
std::string BuildChunkedResponseHead(
    int status, const std::string& content_type, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& headers = {});
std::string EncodeChunk(const std::string& payload);
std::string FinalChunk();

/// Reason phrase of the status codes the server emits ("OK", "Bad Request",
/// ...; "Unknown" otherwise).
const char* StatusReason(int status);

/// Escapes a string for embedding in a JSON document (quotes not included).
std::string JsonEscape(const std::string& s);

/// Renders a double as a JSON value (null for NaN/infinities, which JSON
/// cannot represent).
std::string JsonNumber(double value);

/// Minimal parsed JSON value for request bodies. Exactly what the ingest
/// route needs: null/bool/number/string/array. Objects are rejected by the
/// parser — no route takes them, and row payloads stay positional.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  /// Raw token of a kNumber, verbatim from the document. Int64 columns
  /// re-parse it so integers above 2^53 are not silently rounded through
  /// the double.
  std::string number_text;
  std::string string_value;
  std::vector<JsonValue> array;
};

/// Parses one complete JSON document (trailing non-whitespace bytes are an
/// error). Returns false with a human-readable `*error` on malformed input.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace server
}  // namespace restore

#endif  // RESTORE_SERVER_HTTP_H_
