#ifndef RESTORE_SERVER_EVENT_LOOP_H_
#define RESTORE_SERVER_EVENT_LOOP_H_

// A single-threaded epoll event loop (level-triggered). Each loop owns one
// epoll instance, one dispatch thread, and the connections assigned to it;
// all per-connection state is therefore mutated from exactly one thread.
// Other threads talk to a loop only through Post(), which enqueues a task
// and wakes the loop via an eventfd.
//
// Linux-only (epoll); the server subsystem is compiled on every platform
// but Init() fails cleanly where epoll is unavailable.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace restore {
namespace server {

class EventLoop {
 public:
  /// Receives readiness events for one registered fd. The handler must stay
  /// alive until its fd is Del()ed (handlers that destroy themselves inside
  /// OnEvent must keep *this alive for the duration of the call, e.g. via a
  /// shared_from_this guard).
  class Handler {
   public:
    virtual ~Handler() = default;
    /// `events` is the epoll event bitmask (EPOLLIN, EPOLLOUT, ...).
    virtual void OnEvent(uint32_t events) = 0;
  };

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd.
  Status Init();

  /// Spawns the dispatch thread. Init() must have succeeded.
  void Start();

  /// Asks the dispatch thread to exit (after draining posted tasks) and
  /// joins it. Idempotent.
  void Stop();

  /// Runs `fn` on the loop thread, in post order, interleaved with event
  /// dispatch. Thread-safe; wakes the loop. Tasks posted after Stop() began
  /// may run during the final drain or not at all.
  void Post(std::function<void()> fn);

  Status Add(int fd, uint32_t events, Handler* handler);
  Status Mod(int fd, uint32_t events, Handler* handler);
  void Del(int fd);

 private:
  void Run();
  void Wake();
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace server
}  // namespace restore

#endif  // RESTORE_SERVER_EVENT_LOOP_H_
