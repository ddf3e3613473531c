#pragma once
// Domain-decomposition preconditioners — the paper's Schwarz layer
// (§2.4.3): block Jacobi (zero overlap), additive Schwarz (ASM), and
// restricted additive Schwarz (RASM, Cai-Sarkis), each with ILU(k)
// subdomain solves, optional single-precision factor storage (§2.2) and
// an optional coarse level (§2.4.3's "coarse grid usage").
//
// On this sequential substrate, "subdomains" play the role of the paper's
// processors: the *algorithmic* effect of the subdomain count (more,
// smaller blocks => more Krylov iterations) is reproduced exactly; the
// hardware cost of applying the preconditioner in parallel is modeled
// separately by f3d::par.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/denselu.hpp"
#include "partition/partition.hpp"
#include "resilience/recovery.hpp"
#include "solver/linear.hpp"
#include "sparse/csr.hpp"
#include "sparse/ilu.hpp"

namespace f3d::tune {
class Registry;
}

namespace f3d::solver {

enum class SchwarzType {
  kBlockJacobi,  ///< no overlap; prolongation trivially restricted
  kAsm,          ///< overlapping, additive prolongation (2 comm phases)
  kRasm,         ///< overlapping, restricted prolongation (1 comm phase)
};

/// Subdomain solve kind — the paper's §2.4 "quality of subdomain solver
/// (fill level, number of sweeps)" knob.
enum class SubdomainSolver {
  kIlu,   ///< ILU(fill_level) factorization + triangular solves
  kSsor,  ///< `sweeps` symmetric block Gauss-Seidel sweeps
};

struct SchwarzOptions {
  SchwarzType type = SchwarzType::kRasm;
  int overlap = 0;       ///< BFS levels of subdomain overlap
  int fill_level = 1;    ///< ILU(k) in each subdomain
  bool single_precision = false;  ///< store factors in float (Table 2)
  SubdomainSolver subdomain_solver = SubdomainSolver::kIlu;
  int sweeps = 2;        ///< SSOR sweeps when subdomain_solver == kSsor
  bool coarse_space = false;  ///< two-level: knob ptc.use_coarse_space

  /// Register the Schwarz knobs (type, overlap, fill, factor precision,
  /// subdomain solver, sweeps) into the flat tuning space under `prefix`.
  /// The registry borrows this struct: it must outlive the registry.
  void bind(tune::Registry& reg, const std::string& prefix = "schwarz.");
};

/// Additive Schwarz over a vertex partition of a block (BAIJ) matrix.
/// With coarse_space it is two-level, M^{-1} = M_schwarz^{-1} +
/// R0^T A0^{-1} R0: the aggregation (Nicolaides) coarse space, one
/// unknown per subdomain and component, with A0 = R0 A R0^T a dense
/// (P*nb)^2 system factored by pivoted LU.
class SchwarzPreconditioner final : public Preconditioner {
public:
  /// `a` is the assembled global block Jacobian (interlaced); `partition`
  /// assigns each block row (mesh vertex) to a subdomain. The adjacency
  /// graph used for overlap expansion is derived from `a`'s block
  /// sparsity. Builds every subdomain's pattern and gather map, then runs
  /// the numeric loop of refactor() with no ladder, and builds A0; throws
  /// f3d::NumericalError with the failure's detail if one is singular.
  SchwarzPreconditioner(const sparse::Bcsr<double>& a,
                        const part::Partition& partition,
                        const SchwarzOptions& opts);

  /// Assembles A straight into the factor, so A is never stored: one
  /// subdomain over all of `pattern`'s block rows (A's sparsity; its
  /// values are not read) whose double ILU factor takes A's values from
  /// `assemble`. `opts` must pass assembles_in_place(opts, 1). Builds like
  /// the constructor above, with `assemble` as the fill.
  SchwarzPreconditioner(const sparse::Bcsr<double>& pattern,
                        const SchwarzOptions& opts,
                        const sparse::BlockAssembler& assemble);

  /// Whether the subdomains of `nparts` parts can be assembled in place:
  /// one subdomain, an ILU solver with double storage, no coarse level.
  [[nodiscard]] static bool assembles_in_place(const SchwarzOptions& opts,
                                               int nparts);

  /// Refactor each subdomain in place from a new `a` with the same
  /// sparsity (an f3d::Error otherwise), gathering A[V, V]'s blocks
  /// through the subdomain's map; never throws on a numerical failure.
  /// Each subdomain is filled, draws kFactorPivot once, and is factored;
  /// a singular one climbs up to `shift_attempts` rungs of an escalating
  /// Manteuffel-style diagonal shift (x10 per rung, relative to its
  /// diagonal scale), each filling again, before it is reported as
  /// failed; with `shift_attempts == 0` the loop stops at the first
  /// failure. A0 is rebuilt last either way: a singular A0 disables the
  /// correction until the next refresh and is reported as
  /// coarse_disabled, not as a failure.
  resilience::FactorReport refactor(const sparse::Bcsr<double>& a,
                                    int shift_attempts);
  /// refactor() of a preconditioner assembled in place, with `assemble`
  /// as the fill: it runs 1 + rungs times.
  resilience::FactorReport refactor(const sparse::BlockAssembler& assemble,
                                    int shift_attempts);

  void apply(const double* r, double* z) const override;
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int num_subdomains() const {
    return static_cast<int>(subs_.size());
  }
  /// Total factor storage in bytes (float factors halve this — the
  /// memory-bandwidth lever of Table 2).
  [[nodiscard]] std::size_t factor_bytes() const;

  /// False without a coarse level, or while a singular A0 disables it.
  [[nodiscard]] bool coarse_active() const { return coarse_lu_.ok(); }
  [[nodiscard]] int coarse_dim() const {
    return opts_.coarse_space ? num_subdomains() * nb_ : 0;
  }

private:
  struct Subdomain {
    std::vector<int> vertices;  ///< ascending vertex ids (owned + overlap)
    std::vector<char> owned;    ///< parallel to vertices
    /// Gathers A[vertices, vertices] into the solver's pattern; empty when
    /// A is assembled in place.
    sparse::GatherMap map;
    /// ILU factors of A[vertices, vertices], built once and refactored in
    /// place: ilu_d with double storage, ilu_f with float storage
    /// (single_precision).
    std::optional<sparse::BlockIlu<double>> ilu_d;
    std::optional<sparse::BlockIlu<float>> ilu_f;
    /// SSOR reads off-diagonal blocks on every apply, so it keeps a copy
    /// of A[vertices, vertices] with its diagonal blocks factored in place.
    sparse::Bcsr<double> ssor;
  };
  /// Writes a subdomain's values over its solver's pattern: a gather
  /// through its map, or an assembler that writes A straight into it.
  using Fill = std::function<void(const Subdomain&, sparse::Bcsr<double>&)>;

  /// The one numeric loop of every build and refresh: per subdomain, fill,
  /// then its kFactorPivot draw (after the first fill), the diagonal edit
  /// and the factorization, with the shift ladder on a failure.
  resilience::FactorReport factor_subdomains(const Fill& fill,
                                             int shift_attempts);
  void ssor_solve(const Subdomain& sd, const double* b, double* z) const;
  /// Assembles and factors A0; false when it is singular.
  [[nodiscard]] bool build_coarse(const sparse::Bcsr<double>& a);

  int n_ = 0;
  int nb_ = 0;
  SchwarzOptions opts_;
  std::vector<Subdomain> subs_;
  std::vector<int> part_of_;  ///< vertex -> subdomain (coarse level only)
  dense::DenseLu coarse_lu_;
};

/// Block-sparsity adjacency graph of `a` (self-loops excluded).
mesh::Graph graph_from_bcsr(const sparse::Bcsr<double>& a);

/// Convenience: single-domain global block-ILU(k) preconditioner.
std::unique_ptr<SchwarzPreconditioner> make_global_ilu(
    const sparse::Bcsr<double>& a, int fill_level,
    bool single_precision = false);

}  // namespace f3d::solver
