#ifndef RESTORE_COMMON_TIMER_H_
#define RESTORE_COMMON_TIMER_H_

#include <chrono>

namespace restore {

/// Wall-clock stopwatch used by the training/completion timing experiments
/// (Figures 11 and 12).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace restore

#endif  // RESTORE_COMMON_TIMER_H_
