#include "td/rk4.hpp"

#include "common/check.hpp"
#include "common/exec.hpp"
#include "ham/density.hpp"
#include "td/band_ops.hpp"

namespace pwdft::td {

Rk4Propagator::Rk4Propagator(ham::Hamiltonian& hamiltonian, par::BlockPartition bands,
                             Rk4Options opt)
    : ham_(hamiltonian), bands_(bands), opt_(opt) {
  PWDFT_CHECK(opt_.dt > 0.0, "Rk4Propagator: dt must be positive");
}

void Rk4Propagator::derivative(const CMatrix& psi, std::span<const double> occ_local,
                               std::span<const double> occ_global, double t,
                               const ExternalField& field, CMatrix& k, par::Comm& comm,
                               TimerRegistry* timers) {
  ham_.set_vector_potential(field.vector_potential(t));
  {
    ScopedTimer st(*timers, "density");
    auto rho = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi, occ_local, comm);
    ham_.update_density(rho);
  }
  ham_.register_and_apply(psi, occ_global, bands_, k, comm, timers);
  // k = -i H psi.
  const std::size_t n = k.size();
  Complex* d = k.data();
  exec::parallel_for(
      n,
      [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) d[i] *= Complex{0.0, -1.0};
      },
      4096);
}

void Rk4Propagator::step(CMatrix& psi_local, std::span<const double> occ_global, double t,
                         const ExternalField& field, par::Comm& comm, TimerRegistry* timers) {
  TimerRegistry local_timers;
  if (!timers) timers = &local_timers;
  const std::size_t nb_loc = bands_.count(comm.rank());
  PWDFT_CHECK(psi_local.cols() == nb_loc, "Rk4Propagator: band layout mismatch");
  std::span<const double> occ_local(occ_global.data() + bands_.offset(comm.rank()), nb_loc);

  const double h = opt_.dt;
  const std::size_t n = psi_local.size();

  // Stage blocks live in the workspace arena: repeated steps allocate
  // nothing (Hamiltonian::apply resizes them in place, capacity retained).
  auto& ws = exec::workspace();
  CMatrix& k1 = ws.cmat(exec::Slot::rk4_k1, 0, 0);
  CMatrix& k2 = ws.cmat(exec::Slot::rk4_k2, 0, 0);
  CMatrix& k3 = ws.cmat(exec::Slot::rk4_k3, 0, 0);
  CMatrix& k4 = ws.cmat(exec::Slot::rk4_k4, 0, 0);
  CMatrix& stage = ws.cmat(exec::Slot::rk4_stage, psi_local.rows(), psi_local.cols());

  derivative(psi_local, occ_local, occ_global, t, field, k1, comm, timers);

  detail::assign_sum_scaled(psi_local, 0.5 * h, k1, stage);
  derivative(stage, occ_local, occ_global, t + 0.5 * h, field, k2, comm, timers);

  detail::assign_sum_scaled(psi_local, 0.5 * h, k2, stage);
  derivative(stage, occ_local, occ_global, t + 0.5 * h, field, k3, comm, timers);

  detail::assign_sum_scaled(psi_local, h, k3, stage);
  derivative(stage, occ_local, occ_global, t + h, field, k4, comm, timers);

  const double w = h / 6.0;
  {
    Complex* p = psi_local.data();
    const Complex* d1 = k1.data();
    const Complex* d2 = k2.data();
    const Complex* d3 = k3.data();
    const Complex* d4 = k4.data();
    exec::parallel_for(
        n,
        [=](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i)
            p[i] += w * (d1[i] + 2.0 * d2[i] + 2.0 * d3[i] + d4[i]);
        },
        4096);
  }
}

}  // namespace pwdft::td
