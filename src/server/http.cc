#include "server/http.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace restore {
namespace server {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

std::string HttpRequest::Path() const {
  const size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

bool HttpRequest::KeepAlive() const {
  const std::string* connection = FindHeader("Connection");
  if (version == "HTTP/1.0") {
    return connection != nullptr && EqualsIgnoreCase(*connection, "keep-alive");
  }
  return connection == nullptr || !EqualsIgnoreCase(*connection, "close");
}

HttpRequestParser::State HttpRequestParser::Fail(int status,
                                                 std::string reason) {
  error_status_ = status;
  error_reason_ = std::move(reason);
  state_ = State::kError;
  return state_;
}

HttpRequestParser::State HttpRequestParser::Feed(const char* data, size_t n) {
  if (state_ != State::kNeedMore) return state_;
  buffer_.append(data, n);
  return Advance();
}

HttpRequestParser::State HttpRequestParser::Reset() {
  request_ = HttpRequest();
  head_done_ = false;
  body_remaining_ = 0;
  error_status_ = 400;
  error_reason_.clear();
  state_ = State::kNeedMore;
  // A pipelined next request may already be buffered in full.
  return Advance();
}

HttpRequestParser::State HttpRequestParser::Advance() {
  if (!head_done_) {
    const size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > kMaxHeadBytes) {
        return Fail(431, "request head too large");
      }
      return state_;
    }
    if (head_end > kMaxHeadBytes) {
      return Fail(431, "request head too large");
    }
    if (ParseHead(head_end) == State::kError) return state_;
    buffer_.erase(0, head_end + 4);
    head_done_ = true;
  }
  if (body_remaining_ > 0) {
    const size_t take =
        buffer_.size() < body_remaining_ ? buffer_.size() : body_remaining_;
    request_.body.append(buffer_, 0, take);
    buffer_.erase(0, take);
    body_remaining_ -= take;
    if (body_remaining_ > 0) return state_;
  }
  state_ = State::kComplete;
  return state_;
}

HttpRequestParser::State HttpRequestParser::ParseHead(size_t head_end) {
  const std::string head = buffer_.substr(0, head_end);
  size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);

  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Fail(400, "malformed request line");
  }
  request_.method = request_line.substr(0, sp1);
  request_.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  request_.version = request_line.substr(sp2 + 1);
  if (request_.method.empty() || request_.target.empty() ||
      request_.target[0] != '/' ||
      (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0")) {
    return Fail(400, "malformed request line");
  }

  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string line = head.substr(pos, next - pos);
    pos = next + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Fail(400, "malformed header line");
    }
    request_.headers.emplace_back(Trim(line.substr(0, colon)),
                                  Trim(line.substr(colon + 1)));
  }

  if (request_.FindHeader("Transfer-Encoding") != nullptr) {
    return Fail(501, "chunked request bodies are not supported");
  }
  if (const std::string* cl = request_.FindHeader("Content-Length")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(cl->c_str(), &end, 10);
    if (end == cl->c_str() || *end != '\0') {
      return Fail(400, "malformed Content-Length");
    }
    if (v > kMaxBodyBytes) return Fail(413, "request body too large");
    body_remaining_ = static_cast<size_t>(v);
  }
  return state_;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

namespace {

std::string BuildHead(
    int status, const std::string& content_type, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    StatusReason(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  return out;
}

}  // namespace

std::string BuildResponse(
    int status, const std::string& content_type, const std::string& body,
    bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string out = BuildHead(status, content_type, keep_alive, headers);
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

std::string BuildChunkedResponseHead(
    int status, const std::string& content_type, bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string out = BuildHead(status, content_type, keep_alive, headers);
  out += "Transfer-Encoding: chunked\r\n\r\n";
  return out;
}

std::string EncodeChunk(const std::string& payload) {
  if (payload.empty()) return "";  // an empty chunk would terminate the body
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", payload.size());
  return size_line + payload + "\r\n";
}

std::string FinalChunk() { return "0\r\n\r\n"; }

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

/// Recursive-descent JSON reader over [p, end). Depth-capped so a hostile
/// body of a few KB of '[' cannot blow the stack.
class JsonReader {
 public:
  JsonReader(const char* p, const char* end) : p_(p), end_(end) {}

  bool Parse(JsonValue* out, std::string* error) {
    if (!ParseValue(out, 0, error)) return false;
    SkipWhitespace();
    if (p_ != end_) {
      *error = "trailing bytes after JSON document";
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWhitespace() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Literal(const char* word, size_t n, std::string* error) {
    if (static_cast<size_t>(end_ - p_) < n ||
        std::string(p_, n) != std::string(word, n)) {
      *error = "malformed JSON literal";
      return false;
    }
    p_ += n;
    return true;
  }

  bool ParseString(std::string* out, std::string* error) {
    ++p_;  // opening quote
    out->clear();
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return true;
      }
      if (c == '\\') {
        ++p_;
        if (p_ == end_) break;
        switch (*p_) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (end_ - p_ < 5) {
              *error = "truncated \\u escape";
              return false;
            }
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = p_[i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                *error = "malformed \\u escape";
                return false;
              }
            }
            p_ += 4;
            // UTF-8 encode the code point (surrogate pairs are passed
            // through as-is; categorical values are opaque byte strings).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xc0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              *out += static_cast<char>(0xe0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              *out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            *error = "unknown escape in JSON string";
            return false;
        }
        ++p_;
        continue;
      }
      *out += static_cast<char>(c);
      ++p_;
    }
    *error = "unterminated JSON string";
    return false;
  }

  bool ParseValue(JsonValue* out, int depth, std::string* error) {
    if (depth > kMaxDepth) {
      *error = "JSON nesting too deep";
      return false;
    }
    SkipWhitespace();
    if (p_ == end_) {
      *error = "unexpected end of JSON document";
      return false;
    }
    const char c = *p_;
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null", 4, error);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      return Literal("true", 4, error);
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      return Literal("false", 5, error);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value, error);
    }
    if (c == '[') {
      out->kind = JsonValue::Kind::kArray;
      out->array.clear();
      ++p_;
      SkipWhitespace();
      if (p_ != end_ && *p_ == ']') {
        ++p_;
        return true;
      }
      while (true) {
        out->array.emplace_back();
        if (!ParseValue(&out->array.back(), depth + 1, error)) return false;
        SkipWhitespace();
        if (p_ == end_) {
          *error = "unterminated JSON array";
          return false;
        }
        if (*p_ == ',') {
          ++p_;
          continue;
        }
        if (*p_ == ']') {
          ++p_;
          return true;
        }
        *error = "expected ',' or ']' in JSON array";
        return false;
      }
    }
    if (c == '{') {
      *error = "JSON objects are not accepted here (rows are positional "
               "arrays)";
      return false;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* num_end = nullptr;
      // The buffer is not NUL-terminated at end_; strtod stops at the first
      // non-number byte anyway, and the bounds check below rejects overruns.
      const double v = std::strtod(p_, &num_end);
      if (num_end == p_ || num_end > end_) {
        *error = "malformed JSON number";
        return false;
      }
      out->kind = JsonValue::Kind::kNumber;
      out->number = v;
      out->number_text.assign(p_, static_cast<size_t>(num_end - p_));
      p_ = num_end;
      return true;
    }
    *error = "unexpected byte in JSON document";
    return false;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  // Ensure NUL termination for the strtod above (std::string guarantees
  // data()[size()] == '\0' since C++11, so this is purely documentation).
  JsonReader reader(text.data(), text.data() + text.size());
  std::string local_error;
  if (error == nullptr) error = &local_error;
  return reader.Parse(out, error);
}

}  // namespace server
}  // namespace restore
