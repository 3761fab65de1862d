#include "layers.hpp"

#include <string>
#include <utility>

#include "blas/level3.hpp"
#include "checksum/fused.hpp"
#include "checksum/verify.hpp"
#include "common/timer.hpp"
#include "lapack/lapack.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "matrix/matrix.hpp"
#include "matrix/norms.hpp"
#include "runtime/task_runtime.hpp"
#include "sim/system.hpp"

namespace ftla::bench {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

constexpr std::size_t kMinCalls = 5;
constexpr std::size_t kMaxCalls = 100000;

/// Seconds of each call of `body`, timed alone after an untimed `prep`,
/// repeated until `budget_s` passed and at least kMinCalls ran.
template <typename Prep, typename Body>
std::vector<double> time_calls(double budget_s, Prep&& prep, Body&& body) {
  std::vector<double> t;
  WallTimer total;
  while (t.size() < kMinCalls || (total.seconds() < budget_s && t.size() < kMaxCalls)) {
    prep();
    WallTimer w;
    body();
    t.push_back(w.seconds());
  }
  return t;
}

/// `work / t / scale` for every timed call (e.g. GFLOP/s, GB/s, µs).
Summary per_call(const std::vector<double>& seconds, double work, double scale) {
  std::vector<double> v;
  v.reserve(seconds.size());
  for (double s : seconds) v.push_back(work / s / scale);
  return summarize(std::move(v));
}

Summary duration(const std::vector<double>& seconds, double unit_s) {
  std::vector<double> v;
  v.reserve(seconds.size());
  for (double s : seconds) v.push_back(s / unit_s);
  return summarize(std::move(v));
}

/// max|x − y| ≤ tol·(1 + max|y|).
bool agrees(ConstViewD x, ConstViewD y, double tol) {
  return max_abs_diff(x, y) <= tol * (1.0 + max_abs(y));
}

constexpr double kKernelTol = 1e-12;

}  // namespace

bool probe_kernels(const Shape& shape, double budget_s, SpanRecorder* spans,
                   std::vector<Metric>& out) {
  const index_t nb = shape.nb;
  const index_t m = shape.n - shape.nb;  // trailing extent after the first panel
  const double slice = budget_s / 11.0;
  const double dnb = static_cast<double>(nb);
  const double dm = static_cast<double>(m);
  auto nothing = [] {};
  bool ok = true;

  // --- TMU tile: C ← C − A·B at nb³. gemm_seq is what every driver calls
  // per tile with fused_abft off; the packed gemm and the fused-ABFT
  // gemm_ft are timed at the same tile. C is restored before each call.
  const MatD ta = random_general(nb, nb, 1);
  const MatD tb = random_general(nb, nb, 2);
  const MatD tc0 = random_general(nb, nb, 3);
  MatD tc(nb, nb);
  auto restore_tile = [&] { copy_view(tc0.const_view(), tc.view()); };
  const double tile_flops = 2.0 * dnb * dnb * dnb;
  MatD seq_out;
  {
    ScopedSpan sp(spans, "kernel.gemm_seq");
    const auto t = time_calls(slice, restore_tile, [&] {
      blas::gemm_seq(Trans::NoTrans, Trans::NoTrans, -1.0, ta.view(), tb.view(), 1.0,
                     tc.view());
    });
    out.push_back({"blas.gemm_seq.tile_gflops", "GFLOP/s", per_call(t, tile_flops, 1e9)});
    seq_out = tc;
  }
  {
    ScopedSpan sp(spans, "kernel.gemm");
    const auto t = time_calls(slice, restore_tile, [&] {
      blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, ta.view(), tb.view(), 1.0, tc.view());
    });
    out.push_back({"blas.gemm.tile_gflops", "GFLOP/s", per_call(t, tile_flops, 1e9)});
    ok = ok && agrees(tc.const_view(), seq_out.const_view(), kKernelTol);
  }
  out.push_back({"blas.gemm.tile_flops_per_byte", "flop/B",
                 single(tile_flops / (8.0 * 4.0 * dnb * dnb))});
  {
    MatD cs_in(2, nb);
    checksum::encode_col(tc0.const_view(), cs_in.view());
    checksum::GemmFtSpec spec;
    spec.mode = blas::GemmFt::VerifyTile;
    spec.c_cs_in = cs_in.const_view();
    spec.tol = checksum::Tolerance{1024.0, static_cast<double>(shape.n)};
    checksum::GemmFtReport report;
    ScopedSpan sp(spans, "kernel.gemm_ft");
    const auto t = time_calls(slice, restore_tile, [&] {
      report = checksum::gemm_ft(Trans::NoTrans, Trans::NoTrans, -1.0, ta.view(), tb.view(),
                                 1.0, tc.view(), spec);
    });
    out.push_back({"checksum.gemm_ft.tile_gflops", "GFLOP/s", per_call(t, tile_flops, 1e9)});
    ok = ok && report.verified && report.columns_flagged == 0 &&
         agrees(tc.const_view(), seq_out.const_view(), kKernelTol);
  }

  // --- Whole first trailing update: (n−nb)² × nb, accumulated in place.
  {
    const MatD ua = random_general(m, nb, 4);
    const MatD ub = random_general(nb, m, 5);
    MatD uc = random_general(m, m, 6);
    ScopedSpan sp(spans, "kernel.gemm_update");
    const auto t = time_calls(slice, nothing, [&] {
      blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, ua.view(), ub.view(), 1.0, uc.view());
    });
    out.push_back(
        {"blas.gemm.update_gflops", "GFLOP/s", per_call(t, 2.0 * dm * dm * dnb, 1e9)});
    out.push_back({"blas.gemm.update_flops_per_byte", "flop/B",
                   single(2.0 * dm * dm * dnb / (8.0 * (2.0 * dm * dnb + 2.0 * dm * dm)))});
  }

  // --- PU solve: U ← L11⁻¹·A12 over the first row panel (LU shape), with
  // L11 taken from a real no-pivot factorization so it is well
  // conditioned. B is restored before each call.
  {
    MatD l11 = random_diag_dominant(nb, 7);
    ok = ok && lapack::getrf2_nopiv(l11.view()) == 0;
    const MatD b0 = random_general(nb, m, 8);
    MatD bx(nb, m);
    auto restore = [&] { copy_view(b0.const_view(), bx.view()); };
    ScopedSpan sp(spans, "kernel.trsm");
    const auto t = time_calls(slice, restore, [&] {
      blas::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0, l11.const_view(),
                 bx.view());
    });
    MatD oracle = b0;
    blas::trsm_seq(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, 1.0,
                   l11.const_view(), oracle.view());
    ok = ok && agrees(bx.const_view(), oracle.const_view(), 1e-10);
    const double flops = dnb * dnb * dm;
    out.push_back({"blas.trsm.pu_gflops", "GFLOP/s", per_call(t, flops, 1e9)});
    out.push_back({"blas.trsm.pu_flops_per_byte", "flop/B",
                   single(flops / (8.0 * (0.5 * dnb * dnb + 2.0 * dnb * dm)))});
  }

  // --- First-panel factorizations at the workload's panel shapes.
  {
    const MatD a0 = random_spd(nb, 9);
    MatD a(nb, nb);
    index_t info = 0;
    ScopedSpan sp(spans, "kernel.potrf2");
    const auto t = time_calls(
        slice, [&] { copy_view(a0.const_view(), a.view()); },
        [&] { info = lapack::potrf2(a.view()); });
    ok = ok && info == 0;
    out.push_back({"lapack.potrf2.pd_ms", "ms", duration(t, 1e-3)});
  }
  {
    const MatD full = random_diag_dominant(shape.n, 10);
    const MatD p0(full.block(0, 0, shape.n, nb));
    MatD p(shape.n, nb);
    index_t info = 0;
    ScopedSpan sp(spans, "kernel.getrf2_nopiv");
    const auto t = time_calls(
        slice, [&] { copy_view(p0.const_view(), p.view()); },
        [&] { info = lapack::getrf2_nopiv(p.view()); });
    ok = ok && info == 0;
    out.push_back({"lapack.getrf2_nopiv.pd_ms", "ms", duration(t, 1e-3)});
  }
  {
    const MatD p0 = random_general(shape.n, nb, 11);
    MatD p(shape.n, nb);
    std::vector<double> tau;
    index_t info = 0;
    {
      ScopedSpan sp(spans, "kernel.geqrf2");
      const auto t = time_calls(
          slice, [&] { copy_view(p0.const_view(), p.view()); },
          [&] { info = lapack::geqrf2(p.view(), tau); });
      ok = ok && info == 0;
      out.push_back({"lapack.geqrf2.pd_ms", "ms", duration(t, 1e-3)});
    }
    MatD tmat(nb, nb);
    ScopedSpan sp(spans, "kernel.larft");
    const auto t =
        time_calls(slice, nothing, [&] { lapack::larft(p.const_view(), tau, tmat.view()); });
    out.push_back({"lapack.larft.pd_ms", "ms", duration(t, 1e-3)});
  }

  // --- Checksum kernels on one nb tile.
  {
    const MatD tile = random_general(nb, nb, 12);
    MatD col_cs(2, nb);
    MatD row_cs(nb, 2);
    {
      ScopedSpan sp(spans, "kernel.encode_col");
      const auto t = time_calls(slice, nothing, [&] {
        checksum::encode_col(tile.const_view(), col_cs.view());
      });
      // Computed bytes: the tile is read once.
      out.push_back({"checksum.encode_col.gbs", "GB/s", per_call(t, 8.0 * dnb * dnb, 1e9)});
    }
    checksum::encode_row(tile.const_view(), row_cs.view());
    const checksum::Tolerance tol{1024.0, static_cast<double>(shape.n)};
    bool clean = true;
    ScopedSpan sp(spans, "kernel.verify_full");
    const auto t = time_calls(slice, nothing, [&] {
      clean = checksum::verify_full(tile.const_view(), col_cs.const_view(),
                                    row_cs.const_view(), tol)
                  .clean();
    });
    ok = ok && clean;
    out.push_back({"checksum.verify_full.tile_us", "us", duration(t, 1e-6)});
  }
  return ok;
}

bool probe_runtime(sim::HeterogeneousSystem& sys, const Shape& shape, double budget_s,
                   SpanRecorder* spans, std::vector<Metric>& out) {
  using runtime::Access;
  using runtime::Space;
  const index_t b = shape.n / shape.nb;
  const int ngpu = sys.ngpu();
  std::vector<double> submit_us;
  std::vector<double> run_us;
  std::size_t tasks = 0;
  std::size_t edges = 0;
  bool ok = true;
  WallTimer total;
  while (submit_us.size() < 3 || total.seconds() < budget_s) {
    runtime::TaskRuntime rt(sys);
    WallTimer w;
    {
      ScopedSpan sp(spans, "runtime.submit");
      for (index_t k = 0; k < b; ++k) {
        const int owner_k = static_cast<int>(k % ngpu);
        // Host panel task: reads column k where its owner left it and
        // publishes the factored panel under host keys.
        rt.submit(runtime::kHostLane, k,
                  {Access::in(owner_k, Space::Data, k, b, k, k + 1),
                   Access::out(runtime::kHostLane, Space::Data, k, b, k, k + 1)},
                  [] {});
        for (index_t j = k + 1; j < b; ++j) {
          const int g = static_cast<int>(j % ngpu);
          for (index_t i = k + 1; i < b; ++i) {
            rt.submit(g, k,
                      {Access::in_tile(runtime::kHostLane, Space::Data, i, k),
                       Access::in_tile(runtime::kHostLane, Space::Data, k, j),
                       Access::out_tile(g, Space::Data, i, j)},
                      [] {});
          }
        }
      }
    }
    const double submit_s = w.seconds();
    tasks = rt.num_tasks();
    edges = rt.num_edges();
    w.reset();
    {
      ScopedSpan sp(spans, "runtime.run");
      ok = rt.run() && ok;
    }
    const double run_s = w.seconds();
    submit_us.push_back(submit_s * 1e6 / static_cast<double>(tasks));
    run_us.push_back(run_s * 1e6 / static_cast<double>(tasks));
  }
  out.push_back({"runtime.submit_us_per_task", "us", summarize(std::move(submit_us))});
  out.push_back({"runtime.run_us_per_task", "us", summarize(std::move(run_us))});
  out.push_back({"runtime.tasks", "count", single(static_cast<double>(tasks))});
  out.push_back({"runtime.edges", "count", single(static_cast<double>(edges))});
  return ok;
}

}  // namespace ftla::bench
