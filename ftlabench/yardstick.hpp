#pragma once

/// \file yardstick.hpp
/// A fixed reference computation that measures how fast the host is
/// right now, so that times taken minutes apart can be compared.
///
/// The benchmark runs on a few cores of a shared host whose speed drifts
/// for minutes at a time: one-minute medians of the same n=1024
/// factorization moved by up to 45% within one process, and whole
/// 25-second runs by up to 2x, while the code stayed the same. ftla-bench
/// times the yardstick right before every attempt and scales its times
/// by the run's median yardstick, which cancels most of that drift. The
/// yardstick uses nothing from the library, so a change to the library
/// cannot move it. Its three parts load the host the way a factorization
/// on the simulated node does, with at most two threads busy:
///  - compute: one thread multiplies two small matrices that stay in its
///    core's private caches;
///  - memory: one thread sums an 8 MiB array, the size of an n=1024
///    matrix, which stays in the last-level cache unless neighbours
///    evict it;
///  - handoff: two threads pass a turn back and forth through a mutex
///    and condition variable, as the caller and the device streams do.
/// A version whose compute part ran on every CPU at once drifted more
/// than the factorizations do, because one stalled CPU held up the whole
/// part. The three parts run back to back, about 10 ms in all on the
/// quiet 4-vCPU host the README describes, and are timed as one.

#include <vector>

namespace ftla::bench {

/// The yardstick's time on the quiet host; scaling by it turns a time
/// into seconds at that host's speed.
inline constexpr double kYardstickSeconds = 0.010;

class Yardstick {
 public:
  Yardstick();

  /// Runs the three parts once; returns their wall time in seconds.
  double run();

 private:
  void compute();
  void memory();
  static void handoff();

  std::vector<double> a_, b_, c_;
  std::vector<double> sweep_;
  double sink_ = 0.0;  ///< keeps the memory sweep observable
};

}  // namespace ftla::bench
