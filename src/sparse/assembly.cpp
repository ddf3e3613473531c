#include "sparse/assembly.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace f3d::sparse {

std::vector<double> convert_layout(const std::vector<double>& x,
                                   FieldLayout from, FieldLayout to,
                                   int num_vertices, int nb) {
  F3D_CHECK(static_cast<int>(x.size()) == num_vertices * nb);
  if (from == to) return x;
  std::vector<double> out(x.size());
  for (int v = 0; v < num_vertices; ++v)
    for (int c = 0; c < nb; ++c)
      out[field_index(to, num_vertices, nb, v, c)] =
          x[field_index(from, num_vertices, nb, v, c)];
  return out;
}

Stencil stencil_from_mesh(const mesh::UnstructuredMesh& mesh) {
  const int n = mesh.num_vertices();
  auto adj = mesh.vertex_adjacency();
  Stencil s;
  s.n = n;
  s.ptr.assign(n + 1, 0);
  for (int i = 0; i < n; ++i)
    s.ptr[i + 1] = s.ptr[i] + (adj.ptr[i + 1] - adj.ptr[i]) + 1;  // +self
  s.col.resize(s.ptr[n]);
  for (int i = 0; i < n; ++i) {
    int q = s.ptr[i];
    bool self_placed = false;
    for (int p = adj.ptr[i]; p < adj.ptr[i + 1]; ++p) {
      const int j = adj.adj[p];
      if (!self_placed && j > i) {
        s.col[q++] = i;
        self_placed = true;
      }
      s.col[q++] = j;
    }
    if (!self_placed) s.col[q++] = i;
    F3D_CHECK(q == s.ptr[i + 1]);
  }
  return s;
}

BlockValueFn synthetic_values(const Stencil& stencil, unsigned seed) {
  // Degree per vertex for diagonal dominance scaling.
  std::vector<int> degree(stencil.n);
  for (int i = 0; i < stencil.n; ++i)
    degree[i] = stencil.ptr[i + 1] - stencil.ptr[i];

  return [degree, seed](int vi, int vj, int nb, double* block) {
    auto hash01 = [seed](unsigned a, unsigned b, unsigned c, unsigned d) {
      // SplitMix-style hash of the coupling indices -> [-1, 1).
      std::uint64_t x = (static_cast<std::uint64_t>(a) << 40) ^
                        (static_cast<std::uint64_t>(b) << 20) ^
                        (static_cast<std::uint64_t>(c) << 8) ^ d ^
                        (static_cast<std::uint64_t>(seed) << 52);
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<double>(x >> 11) * 0x1.0p-52 - 1.0;
    };
    for (int a = 0; a < nb; ++a) {
      for (int b = 0; b < nb; ++b) {
        double v = 0.25 * hash01(vi, vj, a, b);
        if (vi == vj && a == b)
          v += static_cast<double>(degree[vi]) + nb;  // dominant diagonal
        block[a * nb + b] = v;
      }
    }
  };
}

Bcsr<double> build_bcsr(const Stencil& stencil, int nb,
                        const BlockValueFn& fn) {
  F3D_CHECK(nb >= 1 && nb <= dense::kMaxBlockSize);
  Bcsr<double> m;
  m.nb = nb;
  m.nrows = stencil.n;
  m.ptr = stencil.ptr;
  m.col = stencil.col;
  m.val.resize(stencil.nnz() * static_cast<std::size_t>(nb) * nb);
  for (int i = 0; i < stencil.n; ++i)
    for (int p = stencil.ptr[i]; p < stencil.ptr[i + 1]; ++p)
      fn(i, stencil.col[p], nb, &m.val[static_cast<std::size_t>(p) * nb * nb]);
  m.check();
  return m;
}

Csr<double> build_point_csr(const Stencil& stencil, int nb,
                            const BlockValueFn& fn, FieldLayout layout) {
  F3D_CHECK(nb >= 1 && nb <= dense::kMaxBlockSize);
  const int nv = stencil.n;
  const int n = nv * nb;
  Csr<double> m;
  m.n = n;
  m.ptr.assign(n + 1, 0);

  // Row lengths: every scalar row of vertex v has (stencil row length)*nb
  // entries regardless of layout.
  for (int v = 0; v < nv; ++v) {
    const int len = (stencil.ptr[v + 1] - stencil.ptr[v]) * nb;
    for (int c = 0; c < nb; ++c)
      m.ptr[field_index(layout, nv, nb, v, c) + 1] = len;
  }
  for (int i = 0; i < n; ++i) m.ptr[i + 1] += m.ptr[i];
  m.col.resize(m.ptr[n]);
  m.val.resize(m.ptr[n]);

  std::vector<double> block(static_cast<std::size_t>(nb) * nb);
  // Scatter each block's scalars to their point rows; column order within
  // a row must be ascending, which we get by sorting entries per row at
  // the end (layouts permute columns differently).
  std::vector<int> cursor(m.ptr.begin(), m.ptr.end() - 1);
  for (int v = 0; v < nv; ++v) {
    for (int p = stencil.ptr[v]; p < stencil.ptr[v + 1]; ++p) {
      const int w = stencil.col[p];
      fn(v, w, nb, block.data());
      for (int a = 0; a < nb; ++a) {
        const int row = field_index(layout, nv, nb, v, a);
        for (int b = 0; b < nb; ++b) {
          const int cidx = cursor[row]++;
          m.col[cidx] = field_index(layout, nv, nb, w, b);
          m.val[cidx] = block[static_cast<std::size_t>(a) * nb + b];
        }
      }
    }
  }
  // Sort each row by column (pairs).
  std::vector<std::pair<int, double>> tmp;
  for (int i = 0; i < n; ++i) {
    tmp.clear();
    for (int p = m.ptr[i]; p < m.ptr[i + 1]; ++p) tmp.push_back({m.col[p], m.val[p]});
    std::sort(tmp.begin(), tmp.end());
    for (int k = 0; k < static_cast<int>(tmp.size()); ++k) {
      m.col[m.ptr[i] + k] = tmp[k].first;
      m.val[m.ptr[i] + k] = tmp[k].second;
    }
  }
  m.check();
  return m;
}

}  // namespace f3d::sparse
