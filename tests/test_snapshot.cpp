#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "apps/gravity/gravity.hpp"
#include "core/driver.hpp"
#include "util/snapshot.hpp"

namespace paratreet {
namespace {

std::string tempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(Snapshot, RoundTripPreservesEverything) {
  // 70k particles spans two of saveSnapshot's 64Ki-record write blocks.
  for (const std::size_t n : {std::size_t{200}, std::size_t{70000}}) {
    auto ic = planetesimalDisk(n, 3);
    const std::string path = tempPath("roundtrip.ptreet");
    saveSnapshot(path, ic);
    const auto loaded = loadSnapshot(path);
    ASSERT_EQ(loaded.size(), ic.size());
    for (std::size_t i = 0; i < ic.size(); ++i) {
      ASSERT_EQ(loaded.positions[i], ic.positions[i]) << "n=" << n;
      ASSERT_EQ(loaded.velocities[i], ic.velocities[i]) << "n=" << n;
      ASSERT_DOUBLE_EQ(loaded.masses[i], ic.masses[i]) << "n=" << n;
      ASSERT_DOUBLE_EQ(loaded.radii[i], ic.radii[i]) << "n=" << n;
    }
    std::remove(path.c_str());
  }
}

TEST(Snapshot, EmptySetRoundTrips) {
  InitialConditions ic;
  const std::string path = tempPath("empty.ptreet");
  saveSnapshot(path, ic);
  const auto loaded = loadSnapshot(path);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingOptionalArraysDefaultToZero) {
  InitialConditions ic;
  ic.positions = {{1, 2, 3}, {4, 5, 6}};
  // No velocities/masses/radii provided.
  const std::string path = tempPath("partial.ptreet");
  saveSnapshot(path, ic);
  const auto loaded = loadSnapshot(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.velocities[0], Vec3{});
  EXPECT_DOUBLE_EQ(loaded.masses[1], 0.0);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsMissingFile) {
  EXPECT_THROW(loadSnapshot(tempPath("does_not_exist.ptreet")),
               std::runtime_error);
}

TEST(Snapshot, RejectsGarbageFile) {
  const std::string path = tempPath("garbage.ptreet");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot at all, not even close to one";
  }
  EXPECT_THROW(loadSnapshot(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsTruncatedFile) {
  auto ic = uniformCube(50, 1);
  const std::string path = tempPath("truncated.ptreet");
  saveSnapshot(path, ic);
  // Chop the file mid-record.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(loadSnapshot(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsOversizedFile) {
  auto ic = uniformCube(20, 3);
  const std::string path = tempPath("oversized.ptreet");
  saveSnapshot(path, ic);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char junk[24] = {};
    out.write(junk, sizeof(junk));  // trailing bytes the header can't explain
  }
  try {
    loadSnapshot(path);
    FAIL() << "oversized snapshot loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("oversized"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("20 particle(s)"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsNonFinitePositions) {
  auto ic = uniformCube(10, 4);
  ic.positions[3].y = std::numeric_limits<double>::quiet_NaN();
  ic.positions[7].x = std::numeric_limits<double>::infinity();
  const std::string path = tempPath("nonfinite.ptreet");
  saveSnapshot(path, ic);
  try {
    loadSnapshot(path);
    FAIL() << "snapshot with NaN/inf positions loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 particle(s) with non-finite"), std::string::npos)
        << what;
    EXPECT_NE(what.find("first at index 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Snapshot, ValidateInitialConditionsReportsOffenders) {
  auto ic = uniformCube(10, 5);
  EXPECT_NO_THROW(validateInitialConditions(ic));
  ic.positions[2].z = std::numeric_limits<double>::quiet_NaN();
  ic.masses[4] = 0.0;
  ic.masses[6] = -1.0;
  try {
    validateInitialConditions(ic);
    FAIL() << "invalid initial conditions accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 particle(s) with non-finite"), std::string::npos)
        << what;
    EXPECT_NE(what.find("first at index 2"), std::string::npos) << what;
    EXPECT_NE(what.find("2 particle(s) with non-positive mass"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("first at index 4"), std::string::npos) << what;
  }
}

TEST(Snapshot, CsvExportHasHeaderAndRows) {
  auto ic = uniformCube(10, 2);
  const std::string path = tempPath("export.csv");
  exportCsv(path, ic);
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  bool has_header = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') has_header = true;
    else if (!line.empty()) ++rows;
  }
  EXPECT_TRUE(has_header);
  EXPECT_EQ(rows, 10u);
  std::remove(path.c_str());
}

/// Driver wired to a snapshot input file (the paper's conf.input_file).
class SnapshotDriver : public Driver<CentroidData, OctTreeType> {
 public:
  std::string file;
  void configure(Configuration& conf) override {
    conf.input_file = file;
    conf.num_iterations = 1;
    conf.min_partitions = 4;
    conf.min_subtrees = 2;
    conf.bucket_size = 8;
  }
  void traversal(int) override { startDown<GravityVisitor>(); }
};

TEST(Snapshot, DriverLoadsFromInputFile) {
  const std::string path = tempPath("driver_input.ptreet");
  saveSnapshot(path, plummer(150, 5, 0.2));
  rts::Runtime rt({2, 1});
  SnapshotDriver app;
  app.file = path;
  app.run(rt, {});  // no particles passed: loaded from the snapshot
  EXPECT_EQ(app.forest().particleCount(), 150u);
  // Gravity actually ran on the loaded particles.
  bool any_accel = false;
  for (const auto& p : app.forest().collect()) {
    if (p.acceleration.length() > 0) any_accel = true;
  }
  EXPECT_TRUE(any_accel);
  std::remove(path.c_str());
}

TEST(Snapshot, DriverRejectsInvalidInputFile) {
  // The strict initial-conditions gate sits on the Driver's input_file
  // path; bare loadSnapshot stays permissive about masses (see
  // MissingOptionalArraysDefaultToZero above).
  auto ic = uniformCube(50, 6);
  ic.masses[10] = -2.0;
  const std::string path = tempPath("bad_masses.ptreet");
  saveSnapshot(path, ic);
  EXPECT_NO_THROW(loadSnapshot(path));  // structurally fine
  rts::Runtime rt({2, 1});
  SnapshotDriver app;
  app.file = path;
  EXPECT_THROW(app.run(rt, {}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Snapshot, OutputParticleAccelerations) {
  rts::Runtime rt({2, 1});
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 2;
  conf.bucket_size = 8;
  Forest<CentroidData, OctTreeType> forest(rt, conf);
  forest.load(makeParticles(uniformCube(60, 9)));
  forest.decompose();
  forest.build();
  forest.traverse<GravityVisitor>(GravityVisitor{});
  const std::string path = tempPath("accels.csv");
  forest.outputParticleAccelerations(path);
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') ++rows;
  }
  EXPECT_EQ(rows, 60u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace paratreet
