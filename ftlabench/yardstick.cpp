#include "yardstick.hpp"

#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/timer.hpp"

namespace ftla::bench {
namespace {

constexpr int kOrder = 192;  ///< compute: matrix order (3 × 288 KiB)
constexpr int kProducts = 2;
constexpr std::size_t kSweepDoubles = std::size_t{1} << 20;  ///< memory: 8 MiB
constexpr int kSweeps = 4;
constexpr int kHandoffs = 200;  ///< handoff: round trips

}  // namespace

Yardstick::Yardstick()
    : a_(kOrder * kOrder, 1.0),
      b_(kOrder * kOrder, 0.5),
      c_(kOrder * kOrder, 0.0),
      sweep_(kSweepDoubles, 1.0) {}

double Yardstick::run() {
  WallTimer t;
  compute();
  memory();
  handoff();
  return t.seconds();
}

/// c += a·b kProducts times, all kOrder × kOrder and column-major.
void Yardstick::compute() {
  for (int r = 0; r < kProducts; ++r) {
    for (int j = 0; j < kOrder; ++j) {
      for (int p = 0; p < kOrder; ++p) {
        const double bpj = b_[p + j * kOrder];
        const double* ap = a_.data() + p * kOrder;
        double* cj = c_.data() + j * kOrder;
        for (int i = 0; i < kOrder; ++i) cj[i] += ap[i] * bpj;
      }
    }
  }
}

void Yardstick::memory() {
  double s = 0.0;
  for (int r = 0; r < kSweeps; ++r) {
    for (double x : sweep_) s += x;
  }
  sink_ += s;
}

void Yardstick::handoff() {
  std::mutex mu;
  std::condition_variable cv;
  bool theirs = false;  // whose turn: the other thread's when true
  std::thread other([&] {
    for (int i = 0; i < kHandoffs; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return theirs; });
      theirs = false;
      cv.notify_all();
    }
  });
  for (int i = 0; i < kHandoffs; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    theirs = true;
    cv.notify_all();
    cv.wait(lock, [&] { return !theirs; });
  }
  other.join();
}

}  // namespace ftla::bench
