#include "fault_grid.hpp"

#include "common/error.hpp"

namespace ftla::bench {

using core::Decomp;
using fault::FaultType;
using fault::OpKind;
using fault::Part;
using fault::Timing;

FaultGrid::FaultGrid(Decomp decomp, index_t b, index_t nb, std::uint64_t seed)
    : decomp_(decomp), b_(b), nb_(nb), rng_(seed) {
  FTLA_CHECK(b >= 2, "fault grid needs at least two block columns");
  iteration_ = rng_.index(b_ - 1);
  // QR folds the panel update into PD, so its computation cell moves to
  // CTF and it has no PU cells; only Cholesky broadcasts GPU to GPU.
  const bool has_pu = decomp != Decomp::Qr;
  for (const OpKind op : {OpKind::PD, OpKind::PU, OpKind::TMU}) {
    if (op == OpKind::PU && !has_pu) {
      cells_.push_back({FaultType::Computation, Timing::DuringOp, OpKind::CTF});
      continue;
    }
    cells_.push_back({FaultType::Computation, Timing::DuringOp, op});
    cells_.push_back({FaultType::MemoryDram, Timing::BetweenOps, op});
    cells_.push_back({FaultType::MemoryDram, Timing::DuringOp, op});
    cells_.push_back({FaultType::MemoryOnChip, Timing::DuringOp, op});
  }
  cells_.push_back({FaultType::Pcie, Timing::DuringOp, OpKind::PD});
  cells_.push_back({FaultType::Pcie, Timing::DuringOp, OpKind::BroadcastH2D});
  if (decomp == Decomp::Cholesky) {
    cells_.push_back({FaultType::Pcie, Timing::DuringOp, OpKind::BroadcastD2D});
  }
}

std::vector<fault::FaultSpec> FaultGrid::next() {
  const bool clean = entry_++ % 6 == 5;
  if (clean) return {};
  const Cell cell = cells_[cell_++ % cells_.size()];
  return {draw(cell)};
}

fault::FaultSpec FaultGrid::draw(const Cell& cell) {
  fault::FaultSpec spec;
  spec.type = cell.type;
  spec.timing = cell.timing;
  spec.site.op = cell.op;
  // Iterations with a PU and a TMU: every k but the last, in turn.
  const index_t k = iteration_;
  iteration_ = (iteration_ + 1) % (b_ - 1);
  spec.site.iteration = k;
  spec.seed = rng_.next_u64() | 1;
  // Computation faults strike an op's output. Memory faults on PD hit
  // the panel it reads; on PU/TMU either part, except that Cholesky's PU
  // pre-verify hook offers only the blocks it updates and Cholesky's TMU
  // panel replica is outside DRAM coverage (see the header).
  const bool chol = decomp_ == Decomp::Cholesky;
  const bool dram = cell.type == FaultType::MemoryDram;
  const bool chol_pu_between =
      chol && cell.op == OpKind::PU && dram && cell.timing == Timing::BetweenOps;
  const bool update_only = chol_pu_between || (chol && cell.op == OpKind::TMU && dram);
  const bool reference = cell.type != FaultType::Computation && !update_only &&
                         (cell.op == OpKind::PD || rng_.bounded(2) != 0);
  spec.part = reference ? Part::Reference : Part::Update;
  auto pin = [&spec](index_t br, index_t bc) {
    spec.target_br = br;
    spec.target_bc = bc;
  };

  switch (cell.op) {
    case OpKind::PD:
      // The panel's pre-verify visits every block of column k (Cholesky
      // only the diagonal block); all other PD hooks offer block (k, k).
      if (cell.type == FaultType::MemoryDram && cell.timing == Timing::BetweenOps &&
          decomp_ != Decomp::Cholesky) {
        pin(from(k), k);
      } else {
        pin(k, k);
      }
      if (cell.type == FaultType::Computation && decomp_ == Decomp::Lu) {
        // Region-local row below the diagonal block of the (b−k)·nb panel.
        spec.row = nb_ + rng_.index((b_ - k - 1) * nb_);
      }
      break;
    case OpKind::CTF:
    case OpKind::BroadcastH2D:
    case OpKind::BroadcastD2D:
      pin(k, k);
      break;
    case OpKind::PU:
      if (decomp_ == Decomp::Cholesky) {
        // Reference: L11; update: the whole column panel below it, which
        // the pre-verify hook offers block by block.
        if (spec.part == Part::Reference) {
          pin(k, k);
        } else if (chol_pu_between) {
          pin(from(k + 1), k);
        } else {
          pin(k + 1, k);
        }
      } else {
        // LU: reference L11, update one U block of row k.
        if (spec.part == Part::Reference) {
          pin(k, k);
        } else {
          pin(k, from(k + 1));
        }
      }
      break;
    default:  // TMU
      if (decomp_ == Decomp::Qr) {
        // Reference: a V block of column k; update: a column stack (k, j).
        if (spec.part == Part::Reference) {
          pin(from(k), k);
        } else {
          pin(k, from(k + 1));
        }
      } else if (spec.part == Part::Reference) {
        // L(i, k) below the diagonal; LU's U(k, j) row panel as well.
        if (decomp_ == Decomp::Lu && rng_.bounded(2) != 0) {
          pin(k, from(k + 1));
        } else {
          pin(from(k + 1), k);
        }
      } else if (decomp_ == Decomp::Cholesky) {
        const index_t j = from(k + 1);
        pin(from(j), j);  // lower triangle only
      } else {
        const index_t j = from(k + 1);
        pin(from(k + 1), j);
      }
      break;
  }
  return spec;
}

}  // namespace ftla::bench
