#pragma once
// Incomplete LU factorization with level-of-fill — ILU(k) — in point
// (AIJ) and block (BAIJ) variants, the paper's subdomain solver (§2.4.3,
// Table 4: k = 0, 1, 2).
//
// The symbolic phase is shared: level-of-fill on the (block) sparsity
// graph, also of a principal submatrix A[V, V] (a Schwarz subdomain),
// with the map that gathers A's values into it with no copy of A.
// A block factor has one numeric body: a *fill* writes its values over
// its own pattern (a gather from A, or A assembled straight into the
// factor's storage, so A is never stored), and it eliminates in place.
// The numeric phase always computes in double; block factors may be
// *stored* in float for the paper's single-precision-preconditioner
// experiment (§2.2, Table 2) — the triangular solves then read float
// operands but accumulate in double, halving the memory traffic of the
// bandwidth-bound solve at no observed cost in convergence.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"

namespace f3d::sparse {

/// Combined L+U sparsity with diagonal positions. For block ILU the
/// indices are block rows/cols.
struct IluPattern {
  int n = 0;
  std::vector<int> ptr;
  std::vector<int> col;   ///< ascending within each row
  std::vector<int> diag;  ///< position of (i, i) within row i

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

/// The index map through which a pattern over the rows V of a (block)
/// matrix A reads A's values, built once from A's sparsity: pattern entry
/// q takes A's entry src[q], or zero where src[q] is -1 (an ILU fill).
struct GatherMap {
  std::vector<int> rows;  ///< V, ascending
  std::vector<int> src;   ///< per pattern entry: index into A, or -1
  int a_rows = 0;         ///< A's row and entry counts at build
  std::size_t a_nnz = 0;

  /// Writes the entries of the pattern the map indexes (row pointers
  /// `ptr`, columns `col`) into `out`, `bsz` scalars each. Throws
  /// f3d::Error when A's sparsity is not the one the map was built from
  /// (other counts, or a moved entry; an empty map matches no A); that
  /// check reads only A's integer arrays, never out of bounds.
  void gather(const std::vector<int>& ptr, const std::vector<int>& col,
              const std::vector<int>& aptr, const std::vector<int>& acol,
              const std::vector<double>& aval, std::size_t bsz,
              double* out) const;
  /// The same from a block matrix A into `m`, a matrix over that pattern:
  /// sizes m.val and writes every entry, as a BlockAssembler does.
  void gather(const Bcsr<double>& a, Bcsr<double>& m) const {
    const std::size_t bsz = static_cast<std::size_t>(a.nb) * a.nb;
    m.val.resize(m.nblocks() * bsz);
    gather(m.ptr, m.col, a.ptr, a.col, a.val, bsz, m.val.data());
  }
};

/// The symbolic phase: the level-of-fill pattern of the principal
/// submatrix A[V, V] of a CSR sparsity, in V's numbering, and the map
/// gathering A's entries into it. `rows` (V) must be ascending; empty
/// means all of A. A[V, V] must hold its diagonal; level 0 returns its
/// own sparsity.
std::pair<IluPattern, GatherMap> principal_submatrix(
    const std::vector<int>& aptr, const std::vector<int>& acol,
    std::vector<int> rows, int level);
/// The same symbolic phase over all of A with no map: the pattern of a
/// factor that A is assembled into.
IluPattern fill_pattern(const std::vector<int>& aptr,
                        const std::vector<int>& acol, int level);

/// Level schedule of one triangular factor's dependency DAG: rows grouped
/// into levels such that every row's in-factor dependencies sit in
/// earlier levels — rows within a level solve in parallel. Rows are
/// ascending within a level, so the per-row arithmetic of a scheduled
/// solve is exactly the serial solve's: level-scheduled results are
/// bit-identical to the serial ones for any thread count.
struct TriSchedule {
  std::vector<int> level_ptr;  ///< size num_levels()+1
  std::vector<int> rows;       ///< rows grouped by level, ascending within
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(level_ptr.empty() ? 0 : level_ptr.size() - 1);
  }
};

/// Schedule of the forward (L, cols < diag) solve of `pat`.
TriSchedule lower_levels(const IluPattern& pat);
/// Schedule of the backward (U, cols > diag) solve of `pat`.
TriSchedule upper_levels(const IluPattern& pat);

/// Outcome of an in-place refactorization. `bad_row` is the first (block)
/// row whose pivot was zero/singular; the values are then valid only up to
/// that row, until a refactor succeeds.
struct IluFactorStatus {
  bool ok = true;
  int bad_row = -1;
};

/// A fill: writes a factor's values into `m`, a matrix over the factor's
/// own pattern (A's sparsity plus the level-k fill): sizes m.val to
/// m.nblocks() * nb * nb, writes every entry (zero outside A's sparsity)
/// and leaves m's sparsity as it is. A gather from A is one; assembling A
/// straight into `m` is another, for when nothing stores A.
using BlockAssembler = std::function<void(Bcsr<double>& m)>;

/// Point ILU(k) factors of one sparsity pattern, stored in S (instantiated
/// for double only; float storage is the block factor's). A factor owns
/// its pattern and its gather map. The constructor builds them from A's
/// sparsity and does the first numeric factorization, throwing
/// f3d::NumericalError on a zero pivot. refactor() reads A's new values
/// through the map (same sparsity, else f3d::Error), writes the factors in
/// place and reports a zero pivot instead of throwing.
template <class S>
class PointIlu {
public:
  PointIlu(const Csr<double>& a, int level);
  [[nodiscard]] IluFactorStatus refactor(const Csr<double>& a);

  /// x = (LU)^{-1} b in natural row order, double arithmetic.
  void solve(const double* b, double* x) const;
  void solve(const std::vector<double>& b, std::vector<double>& x) const {
    x.resize(b.size());
    solve(b.data(), x.data());
  }

  [[nodiscard]] const IluPattern& pattern() const { return pat_; }
  [[nodiscard]] const std::vector<S>& values() const { return val_; }

private:
  IluPattern pat_;
  GatherMap map_;
  std::vector<S> val_;
};

/// Block ILU(k) factors of one block pattern, stored in S (double or
/// float), with the diagonal blocks stored as their in-place LU
/// factorizations. The block size must be at most dense::kMaxBlockSize;
/// the factorization and the solves run the dense kernels at that block
/// size as a compile-time constant.
template <class S>
class BlockIlu {
public:
  /// The factor of `pat`'s nb x nb blocks: its level schedules, and no
  /// values until the first refactor().
  BlockIlu(IluPattern pat, int nb);
  /// The gathering convenience: the ILU(`level`) factor of all of A with
  /// its own gather map, factored once; throws f3d::NumericalError on a
  /// singular diagonal block.
  BlockIlu(const Bcsr<double>& a, int level);

  /// The numeric phase: lends the pattern and a double value array (the
  /// factor's own with double storage, a scratch one with float) to `fill`
  /// as one matrix and takes them back, also when `fill` throws; then
  /// eliminates in place, and float storage narrows the result. Reports
  /// the first singular diagonal block instead of throwing: the values are
  /// then valid only up to that row, until a refactor succeeds.
  [[nodiscard]] IluFactorStatus refactor(const BlockAssembler& fill);
  /// refactor() with A's values gathered through the convenience's map
  /// (same sparsity, else f3d::Error; a factor built from a pattern has no
  /// map).
  [[nodiscard]] IluFactorStatus refactor(const Bcsr<double>& a) {
    return refactor([&](Bcsr<double>& m) { map_.gather(a, m); });
  }

  void solve(const double* b, double* x) const;
  void solve(const std::vector<double>& b, std::vector<double>& x) const {
    x.resize(b.size());
    solve(b.data(), x.data());
  }
  /// The same row updates on the factor's level schedules: levels in
  /// sequence, the rows of a level in parallel on the exec pool. The
  /// per-row arithmetic is solve()'s, so the result is bit-identical to it
  /// for any thread count.
  void solve_levels(const double* b, double* x) const;

  [[nodiscard]] const IluPattern& pattern() const { return pat_; }
  [[nodiscard]] const std::vector<S>& values() const { return val_; }

private:
  BlockIlu(std::pair<IluPattern, GatherMap> pm, int nb);

  int nb_;
  IluPattern pat_;
  GatherMap map_;  ///< the gathering convenience's; else empty
  TriSchedule fwd_;  ///< level schedule of the L solve
  TriSchedule bwd_;  ///< level schedule of the U solve
  std::vector<S> val_;  ///< nb*nb per pattern entry
};

}  // namespace f3d::sparse
