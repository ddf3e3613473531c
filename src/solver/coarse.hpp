#pragma once
// Two-level additive Schwarz: the coarse-grid component the paper points
// to for asymptotic scalability ("for asymptotic scalability this
// algorithm requires a coarse grid preconditioning step") but did not
// need at its CFL regime. Implemented as the classical aggregation
// (Nicolaides) coarse space: one coarse degree of freedom per subdomain
// per field component, with piecewise-constant restriction over each
// subdomain's owned vertices. The coarse operator A0 = R0 A R0^T is a
// dense (P*nb)^2 system solved with pivoted LU.
//
// M^{-1} = M_schwarz^{-1} + R0^T A0^{-1} R0   (additive correction)
//
// The ablation bench (bench_ablation_coarse) shows the effect the theory
// predicts: iteration counts flatten with the subdomain count.

#include <memory>

#include "common/denselu.hpp"
#include "solver/precond.hpp"

namespace f3d::solver {

class TwoLevelSchwarzPreconditioner final : public RefactorablePreconditioner {
public:
  /// Builds and factors both levels; throws f3d::NumericalError if either
  /// is singular.
  TwoLevelSchwarzPreconditioner(const sparse::Bcsr<double>& a,
                                const part::Partition& partition,
                                const SchwarzOptions& opts);

  /// Rebuild both levels from new values on the same sparsity. The fine
  /// level climbs the Schwarz shift ladder; a singular coarse operator
  /// disables the coarse correction until the next refresh (one-level
  /// Schwarz is still a valid preconditioner) and is reported as
  /// coarse_disabled, not as a failure.
  resilience::FactorReport refactor(const sparse::Bcsr<double>& a,
                                    int shift_attempts) override;

  /// False while the coarse correction is disabled after a singular
  /// coarse operator.
  [[nodiscard]] bool coarse_active() const { return coarse_ok_; }

  void apply(const double* r, double* z) const override;
  [[nodiscard]] int n() const override { return fine_.n(); }
  [[nodiscard]] std::string name() const override {
    return fine_.name() + "+coarse";
  }

  [[nodiscard]] int coarse_dim() const { return nparts_ * nb_; }

private:
  [[nodiscard]] bool build_coarse(const sparse::Bcsr<double>& a);

  SchwarzPreconditioner fine_;
  std::vector<int> part_of_;  ///< vertex -> subdomain
  int nparts_ = 0;
  int nb_ = 0;
  bool coarse_ok_ = true;
  dense::DenseLu coarse_lu_;
};

}  // namespace f3d::solver
