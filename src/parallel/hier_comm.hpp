#pragma once

/// \file hier_comm.hpp
/// Hierarchical 2D (band-group × grid) communicator (paper §3.1, Fig. 1).
///
/// The paper distributes PT-CN over a 2D process grid: bands are split
/// across *band groups*, and within one group the planewave/grid work is
/// split across *grid ranks*. HierComm realizes that layout on top of the
/// flat Comm interface using Comm::split(), so SerialComm and ThreadComm —
/// and any future MPI comm — back it without changes:
///
///   world rank r  =  band_group(r) * n_grid_ranks + grid_rank(r)
///
///   grid():  the ranks of my band group (size n_grid_ranks). Wavefunction
///            transposes and G-space GEMMs of the group's band slice run
///            here — the Alltoallv rendezvous shrinks from P to P_g ranks
///            and the band groups transpose concurrently.
///   band():  the ranks sharing my grid slot across all groups (size
///            n_band_groups). Cross-group band reductions run here.
///   world(): the parent, untouched — whole-world collectives (the Fock
///            orbital broadcasts, Alg. 2) keep their flat rank order.
///
/// HierComm is itself a Comm over the world rank set, so every existing
/// operator runs on it unchanged. Its allreduce_sum is the *staged ordered*
/// reduction: partial vectors are allgathered up the two levels (grid, then
/// band) and every rank folds all P contributions locally in world-rank
/// order — the exact summation order of the flat ThreadComm allreduce, so
/// results stay bit-identical across 1D and 2D layouts (the determinism
/// contract of docs/threading.md survives the hierarchy). All other
/// collectives delegate to the world communicator.

#include <memory>

#include "parallel/comm.hpp"
#include "parallel/distribution.hpp"

namespace pwdft::par {

class HierComm final : public Comm {
 public:
  /// Collective on `world`; `band_groups` must divide world.size() and be
  /// identical on every rank. `world` must outlive the HierComm.
  HierComm(Comm& world, int band_groups);

  Comm& world() { return *world_; }
  Comm& grid() { return *grid_; }
  Comm& band() { return *band_; }
  int n_band_groups() const { return nbg_; }
  int n_grid_ranks() const { return npg_; }
  int band_group() const { return world_->rank() / npg_; }
  int grid_rank() const { return world_->rank() % npg_; }

  /// The outer level of the nested band distribution: global bands split
  /// contiguously across band groups (each group's slice is then split
  /// across its grid ranks by the caller's BlockPartition of choice).
  BlockPartition group_bands(std::size_t n_bands) const {
    return BlockPartition(n_bands, nbg_);
  }

  /// Folds the sub-communicators' traffic into this (world-level) record so
  /// comm-volume accounting sees one total per rank.
  void merge_substats();

  // Comm interface (world rank set).
  int rank() const override { return world_->rank(); }
  int size() const override { return world_->size(); }
  void barrier() override { world_->barrier(); }
  void bcast_bytes(void* data, std::size_t bytes, int root) override {
    world_->bcast_bytes(data, bytes, root);
  }
  /// Staged ordered reduction (see file comment): grid-level allgather of
  /// the partial vectors, band-level allgather of the group blocks, then a
  /// local fold over all P partials in world-rank order. Bit-identical to
  /// the flat thread-backed allreduce.
  void allreduce_sum(double* data, std::size_t count) override;
  void allreduce_sum(Complex* data, std::size_t count) override;
  void alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                       const std::size_t* send_displs, unsigned char* recv,
                       const std::size_t* recv_counts, const std::size_t* recv_displs) override {
    world_->alltoallv_bytes(send, send_counts, send_displs, recv, recv_counts, recv_displs);
  }
  void allgatherv_bytes(const unsigned char* send, std::size_t send_bytes, unsigned char* recv,
                        const std::size_t* recv_counts, const std::size_t* recv_displs) override {
    world_->allgatherv_bytes(send, send_bytes, recv, recv_counts, recv_displs);
  }
  void send_bytes(const void* data, std::size_t bytes, int dest, int tag) override {
    world_->send_bytes(data, bytes, dest, tag);
  }
  void recv_bytes(void* data, std::size_t bytes, int src, int tag) override {
    world_->recv_bytes(data, bytes, src, tag);
  }
  std::unique_ptr<Comm> dup() override { return world_->dup(); }
  std::unique_ptr<Comm> split(int color, int key) override {
    return world_->split(color, key);
  }

 private:
  template <typename T>
  void staged_allreduce(T* data, std::size_t count);

  Comm* world_ = nullptr;
  std::unique_ptr<Comm> grid_;
  std::unique_ptr<Comm> band_;
  int nbg_ = 1;
  int npg_ = 1;
};

}  // namespace pwdft::par
