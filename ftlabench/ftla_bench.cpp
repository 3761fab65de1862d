/// \file ftla_bench.cpp
/// ftla-bench: end-to-end and per-layer benchmark of the protected
/// Cholesky, LU and QR decompositions on the simulated CPU + 2-GPU node.
///
/// One process, one closed-loop caller: the next factorization starts
/// only after the previous one returned and was checked, with no think
/// time; the benchmark's only thread of its own is the yardstick's, which
/// runs between attempts. Every workload uses full
/// checksums and the paper's new checking scheme; `--seed` drives the
/// input matrices and the fault grid.
///
///   fj-dense      n=1024 nb=128, fork-join, fault-free: trailing-update
///                 kernels and checksum maintenance dominate.
///   df-lookahead  n=1024 nb=32, dataflow runtime with lookahead 2: 32
///                 block columns put the host panel and task dispatch on
///                 the critical path.
///   faults        n=1024 nb=64, one seeded fault per run from a grid of
///                 hooks each driver offers, every sixth run clean; an
///                 unrecoverable run is completed by a clean rerun whose
///                 time counts.
///   fleet-skew    n=1024 nb=64, GPU 1 modeled 2x slower, adaptive
///                 balancing with protected column migration; every run
///                 must reproduce the first run's modeled time and
///                 migration count exactly.
///
/// Set-up (repeated three times, median reported as setup_s) generates
/// the inputs, runs each decomposition's fork-join reference — the
/// warm-up — and validates it against core::host_cholesky/host_lu_nopiv/
/// host_qr. The measured loop then runs for --seconds, always picking
/// the decomposition with the least time spent so far, and compares
/// every factor with the reference: max|F − F_ref| ≤ 1e-6·(1 + max|F_ref|)
/// (Cholesky: lower triangle; QR: tau too). Right before every attempt
/// the loop times the yardstick (yardstick.hpp), a fixed computation
/// that tracks how fast the shared host is at that moment.
///
/// --trace 0 prints the end-to-end metrics chol_s, lu_s, qr_s (median
/// wall seconds to a verified factor) and setup_s, all scaled to the
/// quiet host's speed: times kYardstickSeconds over the run's median
/// yardstick. The table above the result line also gives the plain wall
/// seconds (*_wall_s) and the yardstick. --trace 1 runs the same
/// loop for half the budget with benchmark-side spans, then kernel
/// probes, a synthetic runtime graph and interleaved unprotected /
/// other-scheduler / trace-recorder twins, and prints the per-layer
/// metrics; spans go to --spans. The last stdout line is always one JSON object
/// {"correct", "attempted", "failed", "metrics"}.
///
/// Usage:
///   ftla-bench --workload W [--seed S] [--seconds T] [--trace 0|1]
///              [--smoke] [--out FILE] [--spans FILE]
///
/// --smoke shrinks every workload to n=256 (nb<=32) and needs only two
/// samples per decomposition. Exit status: 0 when every check passed,
/// 1 when any failed, 2 on bad usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/baseline.hpp"
#include "core/campaign.hpp"
#include "core/ft_driver.hpp"
#include "fault_grid.hpp"
#include "layers.hpp"
#include "matrix/compare.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"
#include "sim/system.hpp"
#include "spans.hpp"
#include "summary.hpp"
#include "trace/recorder.hpp"
#include "yardstick.hpp"

namespace {

using namespace ftla;
using namespace ftla::bench;
using core::Decomp;
using core::FtOptions;
using core::FtOutput;
using core::Outcome;
using core::SchedulerKind;

constexpr int kNgpu = 2;
constexpr int kSetups = 3;
/// Campaign's verdict rule for a factor against its reference.
constexpr double kResultTol = 1e-6;

struct Workload {
  const char* name;
  index_t nb;
  index_t smoke_nb;
  SchedulerKind scheduler;
  bool faults;
  bool fleet;
};

constexpr Workload kWorkloads[] = {
    {"fj-dense", 128, 32, SchedulerKind::ForkJoin, false, false},
    {"df-lookahead", 32, 16, SchedulerKind::Dataflow, false, false},
    {"faults", 64, 32, SchedulerKind::ForkJoin, true, false},
    {"fleet-skew", 64, 16, SchedulerKind::ForkJoin, false, true},
};

struct Cli {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string spans;
};

int usage() {
  std::cerr << "usage: ftla-bench --workload fj-dense|df-lookahead|faults|fleet-skew"
               " [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]"
               " [--spans FILE]\n";
  return 2;
}

const char* tag(Decomp d) {
  switch (d) {
    case Decomp::Cholesky: return "chol";
    case Decomp::Lu: return "lu";
    case Decomp::Qr: return "qr";
  }
  return "?";
}

/// Per-decomposition input seed derived from the workload seed.
std::uint64_t input_seed(std::uint64_t seed, Decomp d) {
  SplitMix64 mix(seed * 8 + static_cast<std::uint64_t>(d));
  return mix.next();
}

MatD make_input(Decomp d, index_t n, std::uint64_t seed) {
  switch (d) {
    case Decomp::Cholesky: return random_spd(n, seed);
    case Decomp::Lu: return random_diag_dominant(n, seed);
    case Decomp::Qr: return random_general(n, n, seed);
  }
  return {};
}

FtOutput factor(Decomp d, ConstViewD a, const FtOptions& opts) {
  switch (d) {
    case Decomp::Cholesky: return core::ft_cholesky(a, opts);
    case Decomp::Lu: return core::ft_lu(a, opts);
    case Decomp::Qr: return core::ft_qr(a, opts);
  }
  return {};
}

/// max|F − F_ref| ≤ 1e-6·(1 + max|F_ref|); Cholesky compares only the
/// lower triangle (its output), QR also the Householder scalars.
bool matches(Decomp d, const MatD& f, const std::vector<double>& tau, const MatD& ref,
             const std::vector<double>& ref_tau) {
  if (f.rows() != ref.rows() || f.cols() != ref.cols() || tau.size() != ref_tau.size()) {
    return false;
  }
  double diff = 0.0;
  if (d == Decomp::Cholesky) {
    for (index_t j = 0; j < ref.cols(); ++j)
      for (index_t i = j; i < ref.rows(); ++i) diff = std::max(diff, std::abs(f(i, j) - ref(i, j)));
  } else {
    diff = max_abs_diff(f.const_view(), ref.const_view());
  }
  if (diff > kResultTol * (1.0 + max_abs(ref.const_view()))) return false;
  double tau_diff = 0.0;
  double tau_scale = 0.0;
  for (std::size_t i = 0; i < tau.size(); ++i) {
    tau_diff = std::max(tau_diff, std::abs(tau[i] - ref_tau[i]));
    tau_scale = std::max(tau_scale, std::abs(ref_tau[i]));
  }
  return tau_diff <= kResultTol * (1.0 + tau_scale);
}

bool verified(Outcome o) {
  return o == Outcome::NoImpact || o == Outcome::CorrectedAbft ||
         o == Outcome::CorrectedRestart;
}

/// What one attempt left behind for the per-layer metrics.
struct Attempt {
  double wall = 0.0;
  bool ok = false;
  core::FtStats stats;
  sim::LinkStats link;
};

/// One decomposition of the workload: its input, reference and samples.
struct Lane {
  Decomp decomp = Decomp::Cholesky;
  std::string span_verified, span_factor, span_check, span_rerun;
  MatD input;
  MatD ref;
  std::vector<double> ref_tau;
  std::unique_ptr<core::Campaign> campaign;  // faults workload
  std::unique_ptr<FaultGrid> grid;           // faults workload
  // fleet-skew: the first run's modeled time and migration count.
  bool pinned = false;
  double pinned_modeled = 0.0;
  std::uint64_t pinned_migrated = 0;

  double busy = 0.0;
  std::vector<double> wall;        ///< every attempt, including reruns
  std::vector<double> clean_wall;  ///< faults: runs without a fault
  std::vector<double> fault_wall;  ///< faults: runs with a fault
  std::vector<Attempt> attempts;
};

/// Fault outcome tallies of the faults workload.
struct FaultTally {
  std::size_t scheduled = 0;
  std::size_t not_triggered = 0;
  std::size_t no_impact = 0;
  std::size_t corrected = 0;
  std::size_t corrected_restart = 0;
  std::size_t detected_unrecoverable = 0;
  std::size_t wrong_result = 0;
};

class Bench {
 public:
  explicit Bench(const Cli& cli)
      : cli_(cli),
        w_(*cli.workload),
        n_(cli.smoke ? 256 : 1024),
        nb_(cli.smoke ? w_.smoke_nb : w_.nb),
        spans_(cli.trace ? std::make_unique<SpanRecorder>() : nullptr) {
    opts_.nb = nb_;
    opts_.ngpu = kNgpu;
    opts_.checksum = core::ChecksumKind::Full;
    opts_.scheme = core::SchemeKind::NewScheme;
    opts_.scheduler = w_.scheduler;
    opts_.lookahead = 2;
    if (w_.fleet) {
      opts_.gpu_time_scale = {1.0, 2.0};
      opts_.adaptive_balance = true;
    }
  }

  int run() {
    const int root = spans_ ? spans_->open("run", 0) : -1;
    for (int s = 0; s < kSetups; ++s) setup_s_.push_back(setup());
    const double loop_s = cli_.trace ? 0.5 * cli_.seconds : cli_.seconds;
    {
      ScopedSpan sp(spans_.get(), "loop");
      measure(loop_s);
    }
    const Summary yardstick = summarize(yardstick_s_);
    scale_ = kYardstickSeconds / yardstick.median;
    std::vector<Metric> metrics;
    // Printed in the table and --out file only: the plain wall seconds
    // behind each scaled time, and the yardstick itself.
    std::vector<Metric> info;
    for (const auto& lane : lanes_) {
      const std::string d = tag(lane.decomp);
      if (!cli_.trace) metrics.push_back({d + "_s", "s", scaled(lane.wall)});
      info.push_back({d + "_wall_s", "s", summarize(lane.wall)});
    }
    if (cli_.trace) {
      layer_metrics(metrics);
    } else {
      metrics.push_back({"setup_s", "s", scaled(setup_s_)});
    }
    info.push_back({"setup_wall_s", "s", summarize(setup_s_)});
    info.push_back({"yardstick_ms", "ms",
                    {yardstick.n, 1e3 * yardstick.median, 1e3 * yardstick.q1, 1e3 * yardstick.q3}});
    if (spans_) {
      spans_->close(root);
      metrics.push_back({"trace.span_coverage", "ratio", single(spans_->coverage(root))});
    }
    check_faults();
    return report(metrics, info);
  }

 private:
  /// Summary of wall times in seconds at the quiet host's speed: each
  /// times kYardstickSeconds over the run's median yardstick.
  Summary scaled(std::vector<double> wall) const {
    for (double& s : wall) s *= scale_;
    return summarize(std::move(wall));
  }

  /// Generates inputs, runs and validates the fork-join references.
  double setup() {
    ScopedSpan sp(spans_.get(), "setup");
    WallTimer t;
    lanes_.clear();
    lanes_.resize(3);
    const Decomp decomps[] = {Decomp::Cholesky, Decomp::Lu, Decomp::Qr};
    for (int i = 0; i < 3; ++i) {
      Lane& lane = lanes_[static_cast<std::size_t>(i)];
      lane.decomp = decomps[i];
      const std::string d = tag(lane.decomp);
      lane.span_verified = "verified." + d;
      lane.span_factor = "factor." + d;
      lane.span_check = "check." + d;
      lane.span_rerun = "rerun." + d;
      const std::uint64_t seed = input_seed(cli_.seed, lane.decomp);
      {
        ScopedSpan g(spans_.get(), "setup.generate." + d);
        lane.input = make_input(lane.decomp, n_, seed);
      }
      {
        ScopedSpan r(spans_.get(), "setup.reference." + d);
        FtOutput ref;
        if (w_.faults) {
          core::CampaignConfig cfg;
          cfg.decomp = lane.decomp;
          cfg.opts = opts_;
          cfg.n = n_;
          cfg.matrix_seed = seed;
          cfg.result_tol = kResultTol;
          lane.campaign = std::make_unique<core::Campaign>(cfg);
          ref = lane.campaign->reference();
          lane.grid = std::make_unique<FaultGrid>(lane.decomp, n_ / nb_, nb_, seed ^ 0x5eedULL);
        } else {
          FtOptions o = opts_;
          o.scheduler = SchedulerKind::ForkJoin;
          o.adaptive_balance = false;
          ref = factor(lane.decomp, lane.input.const_view(), o);
        }
        valid_ = valid_ && ref.ok();
        lane.ref = std::move(ref.factors);
        lane.ref_tau = std::move(ref.tau);
      }
      ScopedSpan v(spans_.get(), "setup.validate." + d);
      std::vector<double> host_tau;
      MatD host;
      switch (lane.decomp) {
        case Decomp::Cholesky: host = core::host_cholesky(lane.input.const_view(), nb_); break;
        case Decomp::Lu: host = core::host_lu_nopiv(lane.input.const_view(), nb_); break;
        case Decomp::Qr: host = core::host_qr(lane.input.const_view(), nb_, host_tau); break;
      }
      valid_ = valid_ && matches(lane.decomp, lane.ref, lane.ref_tau, host, host_tau);
    }
    return t.seconds();
  }

  /// The closed loop: least-busy decomposition next, until the budget is
  /// spent and every decomposition has its minimum sample count.
  void measure(double budget_s) {
    const std::size_t min_samples = cli_.smoke ? 2 : 5;
    WallTimer clock;
    for (;;) {
      const bool time_left = clock.seconds() < budget_s;
      Lane* next = nullptr;
      for (auto& lane : lanes_) {
        if ((time_left || lane.wall.size() < min_samples) &&
            (next == nullptr || lane.busy < next->busy)) {
          next = &lane;
        }
      }
      if (next == nullptr) break;
      {
        ScopedSpan sp(spans_.get(), "yardstick");
        yardstick_s_.push_back(yardstick_.run());
      }
      const Attempt a = w_.faults ? attempt_fault(*next) : attempt(*next);
      next->busy += a.wall;
      next->wall.push_back(a.wall);
      next->attempts.push_back(a);
      ++attempted_;
      if (!a.ok) ++failed_;
    }
  }

  /// Each attempt gets a fresh simulated node, as a driver call without
  /// FtOptions::system does; passing it in exposes the link counters.
  Attempt attempt(Lane& lane) {
    const std::uint64_t id = ++run_id_;
    Attempt a;
    ScopedSpan v(spans_.get(), lane.span_verified, id);
    WallTimer t;
    sim::HeterogeneousSystem sys(kNgpu);
    FtOptions opts = opts_;
    opts.system = &sys;
    FtOutput out;
    {
      ScopedSpan f(spans_.get(), lane.span_factor, id);
      out = factor(lane.decomp, lane.input.const_view(), opts);
    }
    {
      ScopedSpan c(spans_.get(), lane.span_check, id);
      a.ok = out.ok() && matches(lane.decomp, out.factors, out.tau, lane.ref, lane.ref_tau);
    }
    a.wall = t.seconds();
    a.stats = out.stats;
    a.link = sys.link().stats();
    if (w_.fleet) {
      // The balancer decides from modeled costs only, so a rerun must
      // reproduce the modeled time and the migrations exactly.
      const double modeled = out.stats.compute_modeled_seconds + out.stats.comm_modeled_seconds;
      if (!lane.pinned) {
        lane.pinned = true;
        lane.pinned_modeled = modeled;
        lane.pinned_migrated = out.stats.tiles_migrated;
      }
      a.ok = a.ok && modeled == lane.pinned_modeled &&
             out.stats.tiles_migrated == lane.pinned_migrated;
    }
    return a;
  }

  Attempt attempt_fault(Lane& lane) {
    const std::uint64_t id = ++run_id_;
    const std::vector<fault::FaultSpec> specs = lane.grid->next();
    Attempt a;
    ScopedSpan v(spans_.get(), lane.span_verified, id);
    WallTimer t;
    sim::HeterogeneousSystem sys(kNgpu);
    core::RunControls controls;
    controls.system = &sys;
    core::CampaignResult r;
    {
      ScopedSpan f(spans_.get(), lane.span_factor, id);
      r = lane.campaign->run(specs, controls);
    }
    a.stats = r.stats;
    a.link = sys.link().stats();
    a.ok = verified(r.outcome);
    if (r.outcome == Outcome::DetectedUnrecoverable) {
      // The complete restart the detection asked for.
      ScopedSpan rr(spans_.get(), lane.span_rerun, id);
      a.ok = verified(lane.campaign->run({}, controls).outcome);
    }
    a.wall = t.seconds();
    (specs.empty() ? lane.clean_wall : lane.fault_wall).push_back(a.wall);
    if (!specs.empty()) {
      ++faults_.scheduled;
      switch (r.outcome) {
        case Outcome::FaultNotTriggered: ++faults_.not_triggered; break;
        case Outcome::NoImpact: ++faults_.no_impact; break;
        case Outcome::CorrectedAbft: ++faults_.corrected; break;
        case Outcome::CorrectedRestart: ++faults_.corrected_restart; break;
        case Outcome::DetectedUnrecoverable: ++faults_.detected_unrecoverable; break;
        case Outcome::WrongResult: ++faults_.wrong_result; break;
        case Outcome::Aborted: break;
      }
    }
    return a;
  }

  /// Faults that never fire leave a clean run in a fault workload; more
  /// than one in ten scheduled means the grid no longer fits the drivers.
  void check_faults() {
    if (faults_.wrong_result > 0 || 10 * faults_.not_triggered > faults_.scheduled) {
      valid_ = false;
    }
  }

  // --- traced run -----------------------------------------------------

  void layer_metrics(std::vector<Metric>& m) {
    const Shape shape{n_, nb_};
    {
      ScopedSpan sp(spans_.get(), "kernels");
      valid_ = probe_kernels(shape, cli_.seconds / 8.0, spans_.get(), m) && valid_;
    }
    {
      ScopedSpan sp(spans_.get(), "runtime");
      sim::HeterogeneousSystem sys(kNgpu);
      valid_ = probe_runtime(sys, shape, cli_.seconds / 8.0, spans_.get(), m) && valid_;
    }
    twins(cli_.seconds / 4.0);
    for (const auto& lane : lanes_) lane_metrics(lane, m);
    const double triggered =
        static_cast<double>(faults_.scheduled - faults_.not_triggered);
    m.push_back({"fault.triggered", "count", single(triggered)});
    m.push_back({"fault.not_triggered", "count", single(static_cast<double>(faults_.not_triggered))});
    m.push_back({"fault.outcome.no_impact", "count", single(static_cast<double>(faults_.no_impact))});
    m.push_back({"fault.outcome.corrected", "count", single(static_cast<double>(faults_.corrected))});
    m.push_back({"fault.outcome.corrected_restart", "count",
                 single(static_cast<double>(faults_.corrected_restart))});
    m.push_back({"fault.outcome.detected_unrecoverable", "count",
                 single(static_cast<double>(faults_.detected_unrecoverable))});
    m.push_back({"fault.outcome.wrong_result", "count",
                 single(static_cast<double>(faults_.wrong_result))});
    m.push_back({"fault.restart_share", "ratio",
                 single(triggered > 0 ? faults_.detected_unrecoverable / triggered : 0.0)});
  }

  /// FtStats and link counters of the measured loop, per attempt.
  void lane_metrics(const Lane& lane, std::vector<Metric>& m) {
    const std::string d = tag(lane.decomp);
    auto per_attempt = [&](const char* name, const char* unit, auto field) {
      std::vector<double> v;
      for (const auto& a : lane.attempts) v.push_back(field(a));
      m.push_back({std::string(name) + "." + d, unit, summarize(std::move(v))});
    };
    per_attempt("sim.pcie.transfers", "count",
                [](const Attempt& a) { return static_cast<double>(a.link.transfers); });
    per_attempt("sim.pcie.mbytes", "MB",
                [](const Attempt& a) { return static_cast<double>(a.link.bytes) / 1e6; });
    per_attempt("sim.pcie.modeled_s", "model_s",
                [](const Attempt& a) { return a.link.modeled_seconds; });
    per_attempt("core.encode_s", "s", [](const Attempt& a) { return a.stats.encode_seconds; });
    per_attempt("core.verify_s", "s", [](const Attempt& a) { return a.stats.verify_seconds; });
    per_attempt("core.maintain_s", "s",
                [](const Attempt& a) { return a.stats.maintain_seconds; });
    per_attempt("core.recovery_s", "s",
                [](const Attempt& a) { return a.stats.recovery_seconds; });
    per_attempt("core.blocks_verified", "count",
                [](const Attempt& a) { return static_cast<double>(a.stats.blocks_verified); });
    per_attempt("core.tiles_migrated", "count",
                [](const Attempt& a) { return static_cast<double>(a.stats.tiles_migrated); });
    per_attempt("core.errors_detected", "count",
                [](const Attempt& a) { return static_cast<double>(a.stats.errors_detected); });
    per_attempt("core.corrected_0d", "count",
                [](const Attempt& a) { return static_cast<double>(a.stats.corrected_0d); });
    per_attempt("core.corrected_1d", "count",
                [](const Attempt& a) { return static_cast<double>(a.stats.corrected_1d); });
    per_attempt("core.local_restarts", "count",
                [](const Attempt& a) { return static_cast<double>(a.stats.local_restarts); });
    per_attempt("core.modeled_s", "model_s", [](const Attempt& a) {
      return a.stats.compute_modeled_seconds + a.stats.comm_modeled_seconds;
    });
    m.push_back({"trace.verified_s." + d, "s", scaled(lane.wall)});
    // Mean fault-run wall time over the clean-run median of the same
    // decomposition; 0 where no fault ran.
    double cost = 0.0;
    const double clean = summarize(lane.clean_wall).median;
    if (!lane.fault_wall.empty() && clean > 0.0) {
      double sum = 0.0;
      for (double s : lane.fault_wall) sum += s;
      cost = sum / static_cast<double>(lane.fault_wall.size()) / clean;
    }
    m.push_back({"fault.cost_ratio." + d, "ratio", single(cost)});
    const auto& tw = twin_[static_cast<std::size_t>(lane.decomp)];
    m.push_back({"core.ft_overhead." + d, "ratio", single(tw.ft_overhead)});
    m.push_back({"core.df_vs_fj." + d, "ratio", single(tw.df_vs_fj)});
    m.push_back({"trace.events." + d, "count", single(static_cast<double>(tw.events))});
    m.push_back({"trace.capture_overhead." + d, "ratio", single(tw.capture_overhead)});
  }

  struct TwinResult {
    double ft_overhead = 0.0;
    double df_vs_fj = 0.0;
    double capture_overhead = 0.0;
    std::size_t events = 0;
  };

  /// Interleaved twins of each decomposition's clean run: unprotected
  /// (ChecksumKind::None), the other scheduler, and a TraceRecorder
  /// capture. The order of the four rotates every round.
  void twins(double budget_s) {
    ScopedSpan sp(spans_.get(), "twins");
    enum Kind { Protected, Unprotected, OtherScheduler, Recorded, kKinds };
    const char* kind_name[] = {"protected", "unprotected", "other_scheduler", "recorded"};
    const std::size_t min_rounds = cli_.smoke ? 1 : 3;
    trace::TraceRecorder recorder;
    for (auto& lane : lanes_) {
      std::vector<double> t[kKinds];
      std::size_t events = 0;
      const std::string d = tag(lane.decomp);
      WallTimer clock;
      for (std::size_t round = 0;
           round < min_rounds || clock.seconds() < budget_s / 3.0; ++round) {
        for (int j = 0; j < kKinds; ++j) {
          const int kind = static_cast<int>((round + static_cast<std::size_t>(j)) % kKinds);
          FtOptions o = opts_;
          if (kind == Unprotected) {
            o.checksum = core::ChecksumKind::None;
            o.adaptive_balance = false;
          } else if (kind == OtherScheduler) {
            o.scheduler = o.scheduler == SchedulerKind::ForkJoin ? SchedulerKind::Dataflow
                                                                  : SchedulerKind::ForkJoin;
          } else if (kind == Recorded) {
            recorder.clear();
            o.trace = &recorder;
          }
          const std::uint64_t id = ++run_id_;
          FtOutput out;
          WallTimer w;
          {
            ScopedSpan f(spans_.get(), std::string("twin.") + kind_name[kind] + "." + d, id);
            out = factor(lane.decomp, lane.input.const_view(), o);
          }
          t[kind].push_back(w.seconds());
          if (kind == Recorded) events = recorder.num_events();
          ScopedSpan c(spans_.get(), lane.span_check, id);
          ++attempted_;
          if (!out.ok() || !matches(lane.decomp, out.factors, out.tau, lane.ref, lane.ref_tau)) {
            ++failed_;
          }
        }
      }
      const double prot = summarize(t[Protected]).median;
      const double other = summarize(t[OtherScheduler]).median;
      auto& r = twin_[static_cast<std::size_t>(lane.decomp)];
      r.ft_overhead = prot / summarize(t[Unprotected]).median - 1.0;
      r.df_vs_fj = w_.scheduler == SchedulerKind::ForkJoin ? prot / other : other / prot;
      r.capture_overhead = summarize(t[Recorded]).median / prot - 1.0;
      r.events = events;
    }
  }

  // --- output -----------------------------------------------------------

  /// `"name": {"value": v, "unit": u}` per metric, plus the sample
  /// count and quartiles when `spread` is set.
  static void write_metrics(std::ostream& os, const std::vector<Metric>& metrics, bool spread) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.summary.median
         << ", \"unit\": \"" << m.unit << "\"";
      if (spread) {
        os << ", \"n\": " << m.summary.n << ", \"q1\": " << m.summary.q1
           << ", \"q3\": " << m.summary.q3;
      }
      os << "}";
    }
  }

  int report(const std::vector<Metric>& metrics, const std::vector<Metric>& info) {
    const bool correct = valid_ && failed_ == 0;
    std::printf("ftla-bench %s seed=%llu n=%lld nb=%lld ngpu=%d %s%s: %zu attempted, %zu failed\n",
                w_.name, static_cast<unsigned long long>(cli_.seed),
                static_cast<long long>(n_), static_cast<long long>(nb_), kNgpu,
                cli_.trace ? "traced" : "end-to-end", cli_.smoke ? " smoke" : "", attempted_,
                failed_);
    if (w_.faults) {
      std::printf("faults: %zu scheduled, %zu not triggered, %zu no-impact, %zu corrected, "
                  "%zu corrected+restart, %zu detected-unrecoverable, %zu wrong\n",
                  faults_.scheduled, faults_.not_triggered, faults_.no_impact,
                  faults_.corrected, faults_.corrected_restart,
                  faults_.detected_unrecoverable, faults_.wrong_result);
    }
    std::printf("%-40s %-10s %6s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3");
    for (const auto* list : {&metrics, &info}) {
      for (const auto& mt : *list) {
        std::printf("%-40s %-10s %6zu %14.6g %14.6g %14.6g\n", mt.name.c_str(), mt.unit.c_str(),
                    mt.summary.n, mt.summary.median, mt.summary.q1, mt.summary.q3);
      }
    }

    if (!cli_.out.empty()) {
      std::ofstream os(cli_.out);
      os.precision(17);
      os << "{\"workload\":\"" << w_.name << "\",\"seed\":" << cli_.seed
         << ",\"trace\":" << (cli_.trace ? 1 : 0) << ",\"seconds\":" << cli_.seconds
         << ",\"smoke\":" << (cli_.smoke ? "true" : "false") << ",\"n\":" << n_
         << ",\"nb\":" << nb_ << ",\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_ << ",\"metrics\":{";
      write_metrics(os, metrics, true);
      os << ", ";
      write_metrics(os, info, true);
      os << "}}\n";
      if (!os) {
        std::cerr << "cannot write " << cli_.out << "\n";
        return 1;
      }
    }
    if (spans_ && !cli_.spans.empty()) {
      std::ofstream os(cli_.spans);
      spans_->write_json(os);
      if (!os) {
        std::cerr << "cannot write " << cli_.spans << "\n";
        return 1;
      }
    }

    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    write_metrics(js, metrics, false);
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return correct ? 0 : 1;
  }

  const Cli& cli_;
  const Workload& w_;
  const index_t n_;
  const index_t nb_;
  std::unique_ptr<SpanRecorder> spans_;
  FtOptions opts_;
  std::vector<Lane> lanes_;
  std::vector<double> setup_s_;
  FaultTally faults_;
  TwinResult twin_[3];
  Yardstick yardstick_;
  std::vector<double> yardstick_s_;  ///< one before every attempt
  double scale_ = 1.0;               ///< see scaled()
  std::uint64_t run_id_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool valid_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const auto& w : kWorkloads) {
        if (name == w.name) cli.workload = &w;
      }
      if (cli.workload == nullptr) return usage();
    } else if (arg == "--seed" && has_value) {
      cli.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cli.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      cli.trace = v == "1";
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--out" && has_value) {
      cli.out = argv[++i];
    } else if (arg == "--spans" && has_value) {
      cli.spans = argv[++i];
    } else {
      return usage();
    }
  }
  if (cli.workload == nullptr || !(cli.seconds >= 0.0)) return usage();
  try {
    Bench bench(cli);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "ftla-bench: " << e.what() << "\n";
    return 1;
  }
}
