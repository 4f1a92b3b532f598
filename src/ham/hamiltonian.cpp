#include "ham/hamiltonian.hpp"

#include "common/check.hpp"
#include "common/exec.hpp"
#include "grid/transforms.hpp"
#include "ham/hartree.hpp"

namespace pwdft::ham {

namespace {

/// Interior stage of the narrow apply() pipeline: column b of the dense-grid
/// orbitals multiplied by the total local potential (plus the nonlocal
/// projectors) into the vlocs block. The same per-element statements as the
/// band path, so the two schedules are bit-identical.
struct VmulHook {
  const double* vt = nullptr;
  const Complex* grids = nullptr;
  Complex* vlocs = nullptr;
  std::size_t nd = 0;
  const pseudo::NonlocalProjectors* nonlocal = nullptr;
  double weight = 0.0;
  static void run(void* user, std::size_t b) {
    const auto* c = static_cast<const VmulHook*>(user);
    const Complex* g = c->grids + b * c->nd;
    Complex* p = c->vlocs + b * c->nd;
    const double* v = c->vt;
    for (std::size_t k = 0; k < c->nd; ++k) p[k] = v[k] * g[k];
    if (c->nonlocal) c->nonlocal->apply_add({g, c->nd}, {p, c->nd}, c->weight);
  }
};

/// Tail stage of the narrow apply() pipeline: kinetic term plus the gathered
/// local-potential coefficients for column b. Two separate pure loops
/// (multiply, then add) exactly like the band path — a single fused
/// expression could contract to FMA and break bit-identity between the
/// schedules.
struct KineticAddHook {
  const double* kin = nullptr;
  const Complex* psi = nullptr;
  const Complex* coeffs = nullptr;
  Complex* y = nullptr;
  std::size_t ng = 0;
  static void run(void* user, std::size_t b) {
    const auto* c = static_cast<const KineticAddHook*>(user);
    const double* kk = c->kin;
    const Complex* p = c->psi + b * c->ng;
    const Complex* co = c->coeffs + b * c->ng;
    Complex* yb = c->y + b * c->ng;
    for (std::size_t k = 0; k < c->ng; ++k) yb[k] = kk[k] * p[k];
    for (std::size_t k = 0; k < c->ng; ++k) yb[k] += co[k];
  }
};

}  // namespace

Hamiltonian::Hamiltonian(const PlanewaveSetup& setup, const pseudo::PseudoSpecies& species,
                         HamiltonianOptions options)
    : setup_(setup),
      options_(options),
      fft_dense_(fft::shared_engine(setup.dense_grid.dims())),
      fock_(setup, options_.hybrid, options_.fock),
      ace_(setup) {
  // The cadence divides the registration counter in set_exchange_orbitals.
  PWDFT_CHECK(options_.ace_refresh >= 1,
              "Hamiltonian: ace_refresh must be >= 1, got " << options_.ace_refresh);
  v_loc_ps_ = pseudo::build_local_potential(setup_.crystal, species, setup_.dense_grid);
  if (options_.use_nonlocal && !species.channels.empty()) {
    nonlocal_ = std::make_unique<pseudo::NonlocalProjectors>(setup_.crystal, species,
                                                             setup_.dense_grid,
                                                             setup_.crystal.lattice());
  }
  e_ewald_ = crystal::ewald_energy(setup_.crystal);

  const std::size_t nd = setup_.n_dense();
  v_hartree_.assign(nd, 0.0);
  v_xc_.assign(nd, 0.0);
  eps_xc_.assign(nd, 0.0);
  v_total_ = v_loc_ps_;
  set_vector_potential({0.0, 0.0, 0.0});
}

void Hamiltonian::update_density(std::span<const double> rho_dense) {
  const std::size_t nd = setup_.n_dense();
  PWDFT_CHECK(rho_dense.size() == nd, "Hamiltonian: density size mismatch");
  v_hartree_ = hartree_potential(setup_, *fft_dense_, rho_dense);
  xc::lda_pz(rho_dense, eps_xc_, v_xc_);
  for (std::size_t i = 0; i < nd; ++i) v_total_[i] = v_loc_ps_[i] + v_hartree_[i] + v_xc_[i];
}

void Hamiltonian::set_vector_potential(const grid::Vec3& a) {
  a_ = a;
  const auto& gv = setup_.sphere.gvec();
  kin_.resize(gv.size());
  for (std::size_t i = 0; i < gv.size(); ++i) {
    const grid::Vec3 ga = grid::add(gv[i], a);
    kin_[i] = 0.5 * grid::norm2(ga);
  }
}

void Hamiltonian::set_exchange_orbitals(const CMatrix& phi_local,
                                        std::span<const double> occ_global,
                                        const par::BlockPartition& bands, par::Comm& comm) {
  if (!options_.hybrid.enabled) return;
  ++exchange_serial_;
  fock_.set_orbitals(phi_local, occ_global, bands, comm);
  if (options_.use_ace) {
    // Counter-based refresh cadence (never timer-driven, so the rebuild
    // pattern — and hence the physics — is deterministic): rebuild on every
    // ace_refresh-th registration, and always when no projectors exist yet.
    // request_ace_refresh() resets the counter so schedule anchors (SCF
    // outer steps, MTS refresh steps) rebuild unconditionally.
    if (!ace_.ready() || ace_registrations_ % static_cast<std::uint64_t>(options_.ace_refresh) == 0)
      ace_.build(fock_, phi_local, comm);
    ++ace_registrations_;
  }
}

void Hamiltonian::apply(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm,
                        TimerRegistry* timers) {
  apply_local(psi_local, y_local, timers);
  if (options_.hybrid.enabled) {
    WallTimer t;
    PWDFT_CHECK(fock_.has_orbitals(), "Hamiltonian::apply: exchange orbitals not set");
    if (options_.use_ace) {
      ace_.apply_add(psi_local, y_local, comm);
    } else {
      fock_.apply_add(psi_local, y_local, comm);
    }
    if (timers) timers->add("hpsi_fock", t.seconds());
  }
}

void Hamiltonian::register_and_apply(const CMatrix& psi_local, std::span<const double> occ_global,
                                     const par::BlockPartition& bands, CMatrix& y_local,
                                     par::Comm& comm, TimerRegistry* timers) {
  set_exchange_orbitals(psi_local, occ_global, bands, comm);
  apply_local(psi_local, y_local, timers);
  if (options_.hybrid.enabled) {
    WallTimer t;
    if (options_.use_ace) {
      ace_.apply_add(psi_local, y_local, comm);
    } else {
      fock_.apply_self_add(y_local, comm);
    }
    if (timers) timers->add("hpsi_fock", t.seconds());
  }
}

void Hamiltonian::apply_local(const CMatrix& psi_local, CMatrix& y_local, TimerRegistry* timers) {
  const std::size_t ng = setup_.n_g();
  PWDFT_CHECK(psi_local.rows() == ng, "Hamiltonian::apply: row mismatch");
  y_local.resize(ng, psi_local.cols());

  {
    WallTimer t;
    const std::size_t nd = setup_.n_dense();
    const std::size_t ncol = psi_local.cols();
    const double weight = setup_.weight_dense();
    const double inv_nd = 1.0 / static_cast<double>(nd);
    const double* vt = v_total_.data();

    if (ncol > 0 && exec::prefer_line_split(ncol)) {
      // Hybrid band×line schedule: fewer bands than engine threads, so the
      // band-parallel loop below would leave threads idle through every
      // FFT. Run the identical math as one whole-operator pipeline instead:
      // scatter → inverse passes → V·ψ+nonlocal → forward passes → gather →
      // kinetic+add in ONE Fft3D::run_pipeline call, a single cached-graph
      // replay (one pool wake) whose FFT passes parallelize over the joint
      // (band × FFT line) domain, with band b free to run its V·ψ stage
      // while band b' is still scattering. Every per-line kernel and
      // per-element operation matches the band path exactly, so results
      // are bit-identical whichever path the width selects
      // (docs/threading.md, tests/test_band_parallel.cpp).
      auto& ws = exec::workspace();
      CMatrix& grids = ws.cmat(exec::Slot::ham_grids, nd, ncol);
      CMatrix& vlocs = ws.cmat(exec::Slot::ham_vlocs, nd, ncol);
      CMatrix& coeffs = ws.cmat(exec::Slot::ham_coeffs, ng, ncol);
      grid::ScatterHook scatter{setup_.smap_dense.map.data(), ng,         psi_local.data(),
                                ng,                           grids.data(), nd};
      VmulHook vmul{vt, grids.data(), vlocs.data(), nd, nonlocal_.get(), weight};
      grid::GatherHook gather{setup_.smap_dense.map.data(), ng,     vlocs.data(), nd,
                              inv_nd,                       coeffs.data(), ng};
      KineticAddHook tail{kin_.data(), psi_local.data(), coeffs.data(), y_local.data(), ng};
      const std::array<fft::Fft3D::Stage, 6> stages = {
          fft::Fft3D::Stage::make_hook(&grid::ScatterHook::run, &scatter),
          grid::inverse_passes_stage(setup_.smap_dense, grids.data()),
          fft::Fft3D::Stage::make_hook(&VmulHook::run, &vmul),
          grid::forward_passes_stage(setup_.smap_dense, vlocs.data()),
          fft::Fft3D::Stage::make_hook(&grid::GatherHook::run, &gather),
          fft::Fft3D::Stage::make_hook(&KineticAddHook::run, &tail)};
      fft_dense_->run_pipeline(ncol, stages);
    } else {
      // Band-parallel: each band writes only its own column of y, so the
      // loop runs on the engine with bit-identical results at any thread
      // count. Per-band scratch is drawn from the executing thread's arena
      // inside the task (two bands on one thread reuse the same buffers
      // serially).
      exec::parallel_for(ncol, [&](std::size_t jb, std::size_t je) {
        auto& ws = exec::workspace();
        auto grid_work = ws.cbuf(exec::Slot::grid_a, nd);
        auto vloc_part = ws.cbuf(exec::Slot::grid_b, nd);
        auto coeffs = ws.cbuf(exec::Slot::coeffs_a, ng);
        for (std::size_t j = jb; j < je; ++j) {
          const Complex* c = psi_local.col(j);
          Complex* y = y_local.col(j);
          // Kinetic term on the sphere.
          for (std::size_t i = 0; i < ng; ++i) y[i] = kin_[i] * c[i];

          // Local potential + nonlocal projectors in real space (dense
          // grid): fused sphere->grid, point-wise V, fused grid->sphere.
          // The forward pass only completes the z-lines that are gathered
          // afterwards.
          grid::sphere_to_grid(*fft_dense_, setup_.smap_dense, {c, ng}, grid_work);
          Complex* gw = grid_work.data();
          Complex* vp = vloc_part.data();
          for (std::size_t i = 0; i < nd; ++i) vp[i] = vt[i] * gw[i];
          if (nonlocal_) nonlocal_->apply_add(grid_work, vloc_part, weight);
          grid::grid_to_sphere(*fft_dense_, setup_.smap_dense, vloc_part, inv_nd, coeffs);
          for (std::size_t i = 0; i < ng; ++i) y[i] += coeffs[i];
        }
      });
    }
    if (timers) timers->add("hpsi_local", t.seconds());
  }
}

}  // namespace pwdft::ham
