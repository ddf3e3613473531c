#pragma once
// Dense vector kernels used by the Krylov solver. Free functions over raw
// spans so the same code serves interlaced and non-interlaced field
// storage (which differ only in how callers index, not in these kernels).

#include <cstddef>
#include <vector>

namespace f3d::sparse {

using Vec = std::vector<double>;

double dot(const Vec& x, const Vec& y);
double norm2(const Vec& x);
/// y += a * x
void axpy(double a, const Vec& x, Vec& y);
void scale(Vec& x, double a);

}  // namespace f3d::sparse
