#pragma once
// Domain-decomposition preconditioners — the paper's Schwarz layer
// (§2.4.3): block Jacobi (zero overlap), additive Schwarz (ASM), and
// restricted additive Schwarz (RASM, Cai-Sarkis), each with ILU(k)
// subdomain solves and optional single-precision factor storage (§2.2).
//
// On this sequential substrate, "subdomains" play the role of the paper's
// processors: the *algorithmic* effect of the subdomain count (more,
// smaller blocks => more Krylov iterations) is reproduced exactly; the
// hardware cost of applying the preconditioner in parallel is modeled
// separately by f3d::par.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "partition/partition.hpp"
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

  /// Register the Schwarz knobs (type, overlap, fill, factor precision,
  /// subdomain solver, sweeps) into the flat tuning space under `prefix`.
  /// The registry borrows this struct: it must outlive the registry.
  void bind(tune::Registry& reg, const std::string& prefix = "schwarz.");
};

/// Additive Schwarz over a vertex partition of a block (BAIJ) matrix.
class SchwarzPreconditioner final : public RefactorablePreconditioner {
public:
  /// `a` is the assembled global block Jacobian (interlaced); `partition`
  /// assigns each block row (mesh vertex) to a subdomain. The adjacency
  /// graph used for overlap expansion is derived from `a`'s block
  /// sparsity. Performs symbolic setup and the first numeric
  /// factorization; throws f3d::NumericalError if it is singular.
  SchwarzPreconditioner(const sparse::Bcsr<double>& a,
                        const part::Partition& partition,
                        const SchwarzOptions& opts);

  /// Refactor each subdomain in place from a new `a` with the same
  /// sparsity (an f3d::Error otherwise), gathering A[V, V]'s blocks
  /// through the index map built at construction. A zero pivot / singular
  /// block is retried with an escalating diagonal shift delta*I on the
  /// failing subdomain's gathered values — the factorization then succeeds
  /// on a slightly perturbed operator, degrading preconditioner quality
  /// instead of aborting.
  resilience::FactorReport refactor(const sparse::Bcsr<double>& a,
                                    int shift_attempts) override;

  void apply(const double* r, double* z) const override;
  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int num_subdomains() const {
    return static_cast<int>(subs_.size());
  }
  /// Total factor storage in bytes (float factors halve this — the
  /// memory-bandwidth lever of Table 2).
  [[nodiscard]] std::size_t factor_bytes() const;

private:
  struct Subdomain {
    std::vector<int> vertices;  ///< ascending vertex ids (owned + overlap)
    std::vector<char> owned;    ///< parallel to vertices
    /// ILU factors of A[vertices, vertices], built once and refactored in
    /// place straight from A: ilu_d with double storage, ilu_f with float
    /// storage (single_precision).
    std::optional<sparse::BlockIlu<double>> ilu_d;
    std::optional<sparse::BlockIlu<float>> ilu_f;
    /// SSOR reads off-diagonal blocks on every apply, so it keeps a copy
    /// of A[vertices, vertices], gathered through local_map, with its
    /// diagonal blocks factored in place.
    sparse::IluPattern local;
    sparse::GatherMap local_map;
    std::vector<double> local_val;
  };

  /// Non-throwing numeric refactorization of one subdomain from `a`, with
  /// `edit` applied to the gathered diagonal blocks; `err` gets the
  /// failure reason.
  bool factor_subdomain(Subdomain& sd, const sparse::Bcsr<double>& a,
                        const sparse::DiagonalEdit& edit, std::string& err);
  void ssor_solve(const Subdomain& sd, const double* b, double* z) const;

  int n_ = 0;
  int nb_ = 0;
  SchwarzOptions opts_;
  std::vector<Subdomain> subs_;
};

/// Block-sparsity adjacency graph of `a` (self-loops excluded).
mesh::Graph graph_from_bcsr(const sparse::Bcsr<double>& a);

/// Convenience: single-domain global block-ILU(k) preconditioner.
std::unique_ptr<SchwarzPreconditioner> make_global_ilu(
    const sparse::Bcsr<double>& a, int fill_level,
    bool single_precision = false);

}  // namespace f3d::solver
