// Wall-clock timing for the experiment harness.
//
// The paper reports wall-clock milliseconds; we expose nanoseconds and
// convert at the reporting layer.
#pragma once

#include <chrono>
#include <cstdint>

namespace fbf::util {

/// Steady-clock stopwatch.  Construction starts it; `restart` re-arms it.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void restart() noexcept { start_ = clock::now(); }

  [[nodiscard]] std::int64_t elapsed_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

  [[nodiscard]] double elapsed_ms() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace fbf::util
