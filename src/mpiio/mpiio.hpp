// MPI-IO layer (the ROMIO equivalent the paper drives over a DFuse mount).
//
// CollectiveFile is a shared-file handle opened collectively by every rank.
// Independent read_at/write_at go straight to the rank's Vfs (DFuse in the
// benchmarks). The _all variants implement two-phase collective buffering:
// one aggregator per client node, contiguous file domains, data shuffled to
// aggregators over the fabric, then large contiguous Vfs I/O.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "mpi/mpi.hpp"
#include "posix/vfs.hpp"

namespace daosim::mpiio {

struct MpiIoConfig {
  std::uint64_t cb_buffer_size = 16 << 20;  // ROMIO cb_buffer_size default
};

class CollectiveFile {
 public:
  CollectiveFile(mpi::MpiWorld& world, MpiIoConfig cfg = {});

  /// Collective open: every rank calls with its node-local Vfs. Rank 0
  /// creates/truncates; all ranks then open.
  sim::CoTask<Errno> open(mpi::Comm comm, posix::Vfs& vfs, const std::string& path,
                          posix::VfsOpenFlags flags);
  sim::CoTask<Errno> close(mpi::Comm comm);

  // --- independent I/O ---
  sim::CoTask<Result<std::uint64_t>> write_at(mpi::Comm comm, std::uint64_t offset,
                                              std::uint64_t length,
                                              std::span<const std::byte> data);
  sim::CoTask<Result<std::uint64_t>> read_at(mpi::Comm comm, std::uint64_t offset,
                                             std::span<std::byte> out);

  // --- collective (two-phase) I/O ---
  sim::CoTask<Result<std::uint64_t>> write_at_all(mpi::Comm comm, std::uint64_t offset,
                                                  std::uint64_t length,
                                                  std::span<const std::byte> data);
  sim::CoTask<Result<std::uint64_t>> read_at_all(mpi::Comm comm, std::uint64_t offset,
                                                 std::span<std::byte> out);

  sim::CoTask<Result<std::uint64_t>> size(mpi::Comm comm);

 private:
  struct RankState {
    posix::Vfs* vfs = nullptr;
    posix::Fd fd = -1;
    /// Aggregator staging buffer (ROMIO's cb buffer), at most cb_buffer_size
    /// bytes: two-phase I/O moves a file domain through it one piece at a
    /// time. Kept across collective calls until close.
    std::vector<std::byte> stage;
  };
  struct Contribution {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::span<const std::byte> wdata{};  // writes
    std::span<std::byte> rdata{};        // reads
  };

  /// Ranks acting as aggregators: the lowest rank on each client node.
  bool is_aggregator(int rank) const;
  std::vector<int> aggregators() const;
  /// Rank `me`'s staging buffer, large enough for any piece of a `bytes`-long domain.
  std::span<std::byte> stage_for(int me, std::uint64_t bytes);
  sim::CoTask<void> shuffle_and_write(int me, std::uint64_t lo, std::uint64_t hi,
                                      std::shared_ptr<Errno> status);
  sim::CoTask<void> read_and_scatter(int me, std::uint64_t lo, std::uint64_t hi,
                                     std::shared_ptr<Errno> status);

  mpi::MpiWorld& world_;
  MpiIoConfig cfg_;
  std::vector<RankState> ranks_;
  std::vector<Contribution> pending_;  // per-rank slots for the current collective
};

}  // namespace daosim::mpiio
