#include "parallel/transpose.hpp"

#include <complex>
#include <cstring>
#include <span>

#include "common/check.hpp"
#include "common/exec.hpp"
#include "parallel/overlap.hpp"

namespace pwdft::par {

namespace {

using ComplexF = std::complex<float>;

template <typename Wire>
std::span<Wire> wire_buf(exec::Slot slot, std::size_t n) {
  if constexpr (std::is_same_v<Wire, Complex>)
    return exec::workspace().cbuf(slot, n);
  else
    return exec::workspace().fbuf(slot, n);
}

/// Byte counts/displacements of one transpose direction: block (dst <- src)
/// carries the sub-matrix of src's local bands restricted to dst's G rows,
/// in band-major order. The four arrays are views of caller-owned storage
/// of plan_size(np) elements, so building a plan allocates nothing.
struct Plan {
  const std::size_t* scounts = nullptr;
  const std::size_t* sdispls = nullptr;
  const std::size_t* rcounts = nullptr;
  const std::size_t* rdispls = nullptr;
  std::size_t sbytes = 0, rbytes = 0;
};

/// Elements of storage a plan over np ranks needs.
std::size_t plan_size(int np) { return 4 * static_cast<std::size_t>(np); }

template <typename Wire>
Plan make_plan(std::span<std::size_t> storage, int np, int me, const BlockPartition& gvecs,
               const BlockPartition& bands, bool to_g) {
  PWDFT_ASSERT(storage.size() >= plan_size(np));
  const std::size_t n = static_cast<std::size_t>(np);
  std::size_t* scounts = storage.data();
  std::size_t* sdispls = scounts + n;
  std::size_t* rcounts = sdispls + n;
  std::size_t* rdispls = rcounts + n;
  Plan plan{scounts, sdispls, rcounts, rdispls};
  for (int r = 0; r < np; ++r) {
    // Element counts of the exchanged blocks.
    const std::size_t fwd = bands.count(me) * gvecs.count(r);  // me -> r (band_to_g)
    const std::size_t bwd = bands.count(r) * gvecs.count(me);  // r -> me (band_to_g)
    scounts[r] = (to_g ? fwd : bwd) * sizeof(Wire);
    rcounts[r] = (to_g ? bwd : fwd) * sizeof(Wire);
    sdispls[r] = plan.sbytes;
    rdispls[r] = plan.rbytes;
    plan.sbytes += scounts[r];
    plan.rbytes += rcounts[r];
  }
  return plan;
}

/// Pack phase: one task per (destination rank, local band) for band->G, per
/// global band for G->band; every wire element is written by exactly one
/// task, so the phase is bit-identical at any engine width.
template <typename Wire>
void pack_phase(const Plan& plan, int np, const BlockPartition& gvecs,
                const BlockPartition& bands, int me, bool to_g, const CMatrix& in,
                Wire* sendbuf) {
  const std::size_t nb_loc = bands.count(me);
  const std::size_t ng_loc = gvecs.count(me);
  const std::size_t nb_tot = bands.total();
  const std::size_t* sdispls = plan.sdispls;
  if (to_g) {
    PWDFT_CHECK(in.rows() == gvecs.total() && in.cols() == nb_loc,
                "band_to_g: bad band-local shape");
    exec::parallel_for(static_cast<std::size_t>(np) * nb_loc, [&](std::size_t b, std::size_t e) {
      for (std::size_t t = b; t < e; ++t) {
        const int r = static_cast<int>(t / nb_loc);
        const std::size_t j = t % nb_loc;
        const std::size_t g0 = gvecs.offset(r), gn = gvecs.count(r);
        const Complex* src = in.col(j) + g0;
        Wire* dst = sendbuf + sdispls[r] / sizeof(Wire) + j * gn;
        for (std::size_t i = 0; i < gn; ++i) dst[i] = Wire(src[i]);
      }
    });
  } else {
    PWDFT_CHECK(in.rows() == ng_loc && in.cols() == nb_tot, "g_to_band: bad G-local shape");
    exec::parallel_for(nb_tot, [&](std::size_t b, std::size_t e) {
      for (std::size_t j = b; j < e; ++j) {
        const int r = bands.owner(j);
        const Complex* src = in.col(j);
        Wire* dst = sendbuf + sdispls[r] / sizeof(Wire) + (j - bands.offset(r)) * ng_loc;
        for (std::size_t i = 0; i < ng_loc; ++i) dst[i] = Wire(src[i]);
      }
    });
  }
}

/// Exchange phase: the only phase that touches the communicator.
void exchange_phase(Comm& comm, const Plan& plan, const unsigned char* send,
                    unsigned char* recv) {
  comm.alltoallv_bytes(send, plan.scounts, plan.sdispls, recv, plan.rcounts, plan.rdispls);
}

/// Unpack phase: each task owns a full output column (or a disjoint row
/// range of one), so writes never race.
template <typename Wire>
void unpack_phase(const Plan& plan, int np, const BlockPartition& gvecs,
                  const BlockPartition& bands, int me, bool to_g, const Wire* recvbuf,
                  CMatrix& out) {
  const std::size_t nb_loc = bands.count(me);
  const std::size_t ng_loc = gvecs.count(me);
  const std::size_t nb_tot = bands.total();
  const std::size_t* rdispls = plan.rdispls;
  if (to_g) {
    out.resize(ng_loc, nb_tot);
    exec::parallel_for(nb_tot, [&](std::size_t b, std::size_t e) {
      for (std::size_t j = b; j < e; ++j) {
        const int r = bands.owner(j);
        const Wire* src = recvbuf + rdispls[r] / sizeof(Wire) + (j - bands.offset(r)) * ng_loc;
        Complex* dst = out.col(j);
        for (std::size_t i = 0; i < ng_loc; ++i) dst[i] = Complex(src[i]);
      }
    });
  } else {
    out.resize(gvecs.total(), nb_loc);
    exec::parallel_for(static_cast<std::size_t>(np) * nb_loc, [&](std::size_t b, std::size_t e) {
      for (std::size_t t = b; t < e; ++t) {
        const int r = static_cast<int>(t / nb_loc);
        const std::size_t j = t % nb_loc;
        const std::size_t g0 = gvecs.offset(r), gn = gvecs.count(r);
        const Wire* src = recvbuf + rdispls[r] / sizeof(Wire) + j * gn;
        Complex* dst = out.col(j) + g0;
        for (std::size_t i = 0; i < gn; ++i) dst[i] = Complex(src[i]);
      }
    });
  }
}

/// Synchronous call: the three phases back to back, plan and wires from the
/// calling thread's workspace arena (steady-state calls allocate nothing).
template <typename Wire>
void transpose_impl(Comm& comm, const BlockPartition& gvecs, const BlockPartition& bands,
                    bool to_g, const CMatrix& in, CMatrix& out) {
  const int np = comm.size();
  const int me = comm.rank();
  const Plan plan = make_plan<Wire>(exec::workspace().ibuf(exec::Slot::trans_plan, plan_size(np)),
                                    np, me, gvecs, bands, to_g);
  auto sendbuf = wire_buf<Wire>(exec::Slot::trans_send, plan.sbytes / sizeof(Wire));
  auto recvbuf = wire_buf<Wire>(exec::Slot::trans_recv, plan.rbytes / sizeof(Wire));
  pack_phase<Wire>(plan, np, gvecs, bands, me, to_g, in, sendbuf.data());
  exchange_phase(comm, plan, reinterpret_cast<const unsigned char*>(sendbuf.data()),
                 reinterpret_cast<unsigned char*>(recvbuf.data()));
  unpack_phase<Wire>(plan, np, gvecs, bands, me, to_g, recvbuf.data(), out);
}

}  // namespace

void WavefunctionTranspose::band_to_g(Comm& comm, const CMatrix& band_local, CMatrix& g_local,
                                      bool single_precision) const {
  if (single_precision)
    transpose_impl<ComplexF>(comm, gvecs_, bands_, true, band_local, g_local);
  else
    transpose_impl<Complex>(comm, gvecs_, bands_, true, band_local, g_local);
}

void WavefunctionTranspose::g_to_band(Comm& comm, const CMatrix& g_local, CMatrix& band_local,
                                      bool single_precision) const {
  if (single_precision)
    transpose_impl<ComplexF>(comm, gvecs_, bands_, false, g_local, band_local);
  else
    transpose_impl<Complex>(comm, gvecs_, bands_, false, g_local, band_local);
}

// ---------------------------------------------------------------------------
// TransposeOverlap (overlap.hpp): the split-phase path. Implemented here so
// the overlap engine and the synchronous call share one set of phase
// kernels — one mechanism, not two.

/// The in-flight transpose. Allocated at the first start() and reused, with
/// its plan storage, by every later one: steady state allocates nothing.
struct TransposeOverlap::Pending {
  std::vector<std::size_t> plan_storage;
  Plan plan;
  const WavefunctionTranspose* transpose = nullptr;
  CMatrix* out = nullptr;
  bool to_g = true;
  bool single = false;
  bool active = false;
  int np = 0, me = 0;
};

TransposeOverlap::TransposeOverlap() = default;

TransposeOverlap::~TransposeOverlap() = default;  // lane_ joins first

void TransposeOverlap::start_band_to_g(const WavefunctionTranspose& t, Comm& comm,
                                       const CMatrix& band_local, CMatrix& g_out,
                                       bool single_precision) {
  start(t, comm, band_local, g_out, true, single_precision);
}

void TransposeOverlap::start_g_to_band(const WavefunctionTranspose& t, Comm& comm,
                                       const CMatrix& g_local, CMatrix& band_out,
                                       bool single_precision) {
  start(t, comm, g_local, band_out, false, single_precision);
}

void TransposeOverlap::start(const WavefunctionTranspose& t, Comm& comm, const CMatrix& in,
                             CMatrix& out, bool to_g, bool single_precision) {
  PWDFT_CHECK(!(pending_ && pending_->active),
              "TransposeOverlap: a transpose is already in flight");
  if (!ocomm_) ocomm_ = comm.dup();  // collective: first start() of every rank
  if (!pending_) pending_ = std::make_unique<Pending>();

  Pending& p = *pending_;
  p.transpose = &t;
  p.out = &out;
  p.to_g = to_g;
  p.single = single_precision;
  p.np = ocomm_->size();
  p.me = ocomm_->rank();
  if (p.plan_storage.size() < plan_size(p.np)) p.plan_storage.resize(plan_size(p.np));
  p.plan = single_precision
               ? make_plan<ComplexF>(p.plan_storage, p.np, p.me, t.gvecs(), t.bands(), to_g)
               : make_plan<Complex>(p.plan_storage, p.np, p.me, t.gvecs(), t.bands(), to_g);
  if (send_.size() < p.plan.sbytes) send_.resize(p.plan.sbytes);
  if (recv_.size() < p.plan.rbytes) recv_.resize(p.plan.rbytes);

  // Pack on the calling thread (engine-parallel) so the parked task is pure
  // wire exchange; the instance-owned buffers keep the bytes alive and
  // un-aliased for the helper's lifetime.
  if (single_precision)
    pack_phase<ComplexF>(p.plan, p.np, t.gvecs(), t.bands(), p.me, to_g, in,
                         reinterpret_cast<ComplexF*>(send_.data()));
  else
    pack_phase<Complex>(p.plan, p.np, t.gvecs(), t.bands(), p.me, to_g, in,
                        reinterpret_cast<Complex*>(send_.data()));

  p.active = true;
  lane_.run([this] { exchange_phase(*ocomm_, pending_->plan, send_.data(), recv_.data()); });
}

void TransposeOverlap::wait() {
  if (!pending_ || !pending_->active) return;
  lane_.wait();  // rethrows a failed exchange
  Pending& p = *pending_;
  p.active = false;
  const auto& t = *p.transpose;
  if (p.single)
    unpack_phase<ComplexF>(p.plan, p.np, t.gvecs(), t.bands(), p.me, p.to_g,
                           reinterpret_cast<const ComplexF*>(recv_.data()), *p.out);
  else
    unpack_phase<Complex>(p.plan, p.np, t.gvecs(), t.bands(), p.me, p.to_g,
                          reinterpret_cast<const Complex*>(recv_.data()), *p.out);
}

void TransposeOverlap::fold_stats(Comm& parent) {
  if (!ocomm_) return;
  parent.stats().merge(ocomm_->stats());
  ocomm_->stats().reset();
}

}  // namespace pwdft::par
