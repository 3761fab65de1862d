#pragma once

/// \file fault_grid.hpp
/// Seeded fault schedules for the `faults` workload.
///
/// Unlike a free draw over (type, op, block), every cell of this grid
/// names a hook the decomposition's fork-join driver actually offers,
/// with the target block pinned to one the hook visits, so a scheduled
/// fault fires unless the driver changes. Cells cover the four fault
/// types (DRAM split by timing) on PD, PU (QR: CTF) and TMU, and PCIe
/// faults on the panel fetch and each broadcast the driver performs.
///
/// Two placements are left out because the drivers do not catch them;
/// every timed run must end in a verified factor, so the grid keeps to
/// what the protection covers (README.md lists both gaps):
///  - Cholesky: DRAM corruption of a broadcast panel replica L(i,k) that
///    TMU reads;
///  - LU: a computation error in U11 right after PD, which the transfer
///    checksums then encode. LU PD computation faults land in L21.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "fault/fault.hpp"

namespace ftla::bench {

class FaultGrid {
 public:
  /// `b` is the number of block columns (n / nb); it must be at least 2.
  FaultGrid(core::Decomp decomp, index_t b, index_t nb, std::uint64_t seed);

  /// The next schedule of an endless stream: every sixth entry is a
  /// clean run (empty), the others walk the cells in order and the
  /// iterations in turn from a seeded start, so any prefix covers both
  /// evenly. A fault's cost grows with how much work a restart at its
  /// iteration repeats, so drawing iterations at random made the median
  /// of a short run depend on the seed. Targets and bit choices come
  /// from the seed.
  std::vector<fault::FaultSpec> next();

 private:
  struct Cell {
    fault::FaultType type;
    fault::Timing timing;
    fault::OpKind op;
  };

  fault::FaultSpec draw(const Cell& cell);
  /// Uniform block index in [from, b).
  index_t from(index_t lo) { return lo + rng_.index(b_ - lo); }

  core::Decomp decomp_;
  index_t b_;
  index_t nb_;
  Xoshiro256 rng_;
  std::vector<Cell> cells_;
  std::size_t entry_ = 0;
  std::size_t cell_ = 0;
  index_t iteration_ = 0;  ///< of the next fault
};

}  // namespace ftla::bench
