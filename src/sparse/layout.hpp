#pragma once
// Field storage layouts (paper §2.1.1).
//
// A multicomponent field over N mesh vertices with nb components can be
// stored interlaced (u1,v1,w1,p1, u2,v2,...) — the cache-friendly order —
// or non-interlaced (u1..uN, v1..vN, ...) — the vector-machine order the
// original FUN3D used. The scalar index maps are:
//   interlaced:      idx(v, c) = v * nb + c
//   non-interlaced:  idx(v, c) = c * N + v

#include <vector>

namespace f3d::sparse {

enum class FieldLayout {
  kInterlaced,
  kNonInterlaced,
};

/// Scalar index of component c at vertex v.
inline int field_index(FieldLayout layout, int num_vertices, int nb, int v,
                       int c) {
  return layout == FieldLayout::kInterlaced ? v * nb + c
                                            : c * num_vertices + v;
}

/// Reorder a scalar vector from one layout to the other.
std::vector<double> convert_layout(const std::vector<double>& x,
                                   FieldLayout from, FieldLayout to,
                                   int num_vertices, int nb);

}  // namespace f3d::sparse
