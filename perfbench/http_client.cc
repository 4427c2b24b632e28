#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace restore {
namespace perfbench {

std::string PostRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

bool HttpConnection::RoundTrip(const std::string& request, HttpResponse* out) {
  out->status = 0;
  out->body.clear();
  out->wire_bytes = 0;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  if (!ReadResponse(out)) {
    out->status = 0;
    return false;
  }
  return true;
}

bool HttpConnection::Fill(HttpResponse* out) {
  char tmp[16384];
  const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
  if (n <= 0) return false;
  buf_.append(tmp, static_cast<size_t>(n));
  out->wire_bytes += static_cast<size_t>(n);
  return true;
}

bool HttpConnection::ReadResponse(HttpResponse* out) {
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(out)) return false;
  }
  if (buf_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
  const int status = std::atoi(buf_.c_str() + 9);
  const std::string head = buf_.substr(0, head_end + 4);
  size_t pos = head_end + 4;

  if (head.find("Transfer-Encoding: chunked") != std::string::npos) {
    while (true) {
      size_t line_end;
      while ((line_end = buf_.find("\r\n", pos)) == std::string::npos) {
        if (!Fill(out)) return false;
      }
      const size_t size =
          std::strtoul(buf_.substr(pos, line_end - pos).c_str(), nullptr, 16);
      pos = line_end + 2;
      while (buf_.size() < pos + size + 2) {
        if (!Fill(out)) return false;
      }
      out->body.append(buf_, pos, size);
      pos += size + 2;
      if (size == 0) break;
    }
  } else {
    size_t content_length = 0;
    const size_t cl = head.find("Content-Length: ");
    if (cl != std::string::npos) {
      content_length = std::strtoul(head.c_str() + cl + 16, nullptr, 10);
    }
    while (buf_.size() < pos + content_length) {
      if (!Fill(out)) return false;
    }
    out->body.assign(buf_, pos, content_length);
    pos += content_length;
  }
  buf_.erase(0, pos);
  out->status = status;
  return true;
}

}  // namespace perfbench
}  // namespace restore
