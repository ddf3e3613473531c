// Tests for the I/O module: VTK structure and round-trippable numbers,
// CSV formatting, and error paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cfd/euler.hpp"
#include "io/csv.hpp"
#include "io/vtk.hpp"
#include "mesh/generator.hpp"

namespace {

using namespace f3d;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class TempFile {
public:
  explicit TempFile(const char* name)
      : path_(std::string("/tmp/f3d_test_") + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  std::string path_;
};

TEST(Vtk, WritesStructurallyValidFile) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  TempFile tf("mesh.vtk");
  io::write_vtk(tf.path(), m);
  auto s = slurp(tf.path());
  EXPECT_NE(s.find("DATASET UNSTRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(s.find("POINTS 27 double"), std::string::npos);
  EXPECT_NE(s.find("CELLS 48 240"), std::string::npos);  // 6*8 tets
  EXPECT_NE(s.find("CELL_TYPES 48"), std::string::npos);
}

TEST(Vtk, WritesScalarAndVectorFields) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  const int nv = m.num_vertices();
  io::VtkField scalar{"temp", 1, std::vector<double>(nv, 1.5)};
  io::VtkField vec{"vel", 3, std::vector<double>(nv * 3, 0.25)};
  TempFile tf("fields.vtk");
  io::write_vtk(tf.path(), m, {scalar, vec});
  auto s = slurp(tf.path());
  EXPECT_NE(s.find("POINT_DATA 27"), std::string::npos);
  EXPECT_NE(s.find("SCALARS temp double 1"), std::string::npos);
  EXPECT_NE(s.find("VECTORS vel double"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(Vtk, RejectsWrongFieldSize) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  io::VtkField bad{"b", 1, std::vector<double>(3, 0.0)};
  TempFile tf("bad.vtk");
  EXPECT_THROW(io::write_vtk(tf.path(), m, {bad}), Error);
}

TEST(Vtk, RejectsUnwritablePath) {
  auto m = mesh::generate_box_mesh(1, 1, 1);
  EXPECT_THROW(io::write_vtk("/nonexistent-dir/x.vtk", m), Error);
}

TEST(Vtk, FlowWriterEmitsDerivedFields) {
  auto m = mesh::generate_box_mesh(2, 2, 2);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kCompressible;
  cfd::EulerDiscretization disc(m, cfg);
  auto q = disc.make_freestream_field();
  TempFile tf("flow.vtk");
  io::write_flow_vtk(tf.path(), m, cfg, q.data());
  auto s = slurp(tf.path());
  EXPECT_NE(s.find("SCALARS pressure"), std::string::npos);
  EXPECT_NE(s.find("VECTORS velocity"), std::string::npos);
  EXPECT_NE(s.find("SCALARS density"), std::string::npos);
}

TEST(Csv, FormatsHeaderAndRows) {
  io::CsvWriter csv({"p", "its", "time"});
  csv.add_row({128, 22, 2039});
  csv.add_row({256, 24, 1144.5});
  auto s = csv.to_string();
  EXPECT_EQ(s.substr(0, 11), "p,its,time\n");
  EXPECT_NE(s.find("128,22,2039"), std::string::npos);
  EXPECT_NE(s.find("256,24,1144.5"), std::string::npos);
}

TEST(Csv, RoundTripsThroughFile) {
  io::CsvWriter csv({"a", "b"});
  csv.add_row({1.25, -3});
  TempFile tf("t.csv");
  csv.write(tf.path());
  EXPECT_EQ(slurp(tf.path()), csv.to_string());
}

TEST(Csv, RejectsArityMismatch) {
  io::CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({1.0}), Error);
}

}  // namespace
