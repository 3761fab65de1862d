#pragma once

/// \file layers.hpp
/// Per-layer probes of the traced run: the kernels the drivers call,
/// timed from outside at the workload's shapes, and a synthetic task
/// graph fed through the public dataflow runtime.

#include <vector>

#include "common/types.hpp"
#include "spans.hpp"
#include "summary.hpp"

namespace ftla::sim {
class HeterogeneousSystem;
}  // namespace ftla::sim

namespace ftla::bench {

/// Matrix order and block size of a workload.
struct Shape {
  index_t n = 0;
  index_t nb = 0;
};

/// Times blas (TMU tile and whole-update gemm, PU trsm), lapack (first
/// panel of each decomposition) and checksum (encode, verify, fused
/// gemm_ft) kernels for about `budget_s` seconds in total and appends
/// their metrics. Returns false when a kernel disagrees with its oracle
/// or reports failure.
bool probe_kernels(const Shape& shape, double budget_s, SpanRecorder* spans,
                   std::vector<Metric>& out);

/// Submits and runs an empty-body task graph with one host panel task
/// and one GPU task per trailing tile and iteration (the LU tile shape
/// of `shape`) through runtime::TaskRuntime, repeatedly for about
/// `budget_s` seconds, and appends per-task submit and run costs.
/// Returns false when a run does not complete.
bool probe_runtime(sim::HeterogeneousSystem& sys, const Shape& shape, double budget_s,
                   SpanRecorder* spans, std::vector<Metric>& out);

}  // namespace ftla::bench
