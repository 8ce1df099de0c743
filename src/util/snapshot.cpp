#include "util/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace paratreet {

namespace {

constexpr std::uint64_t kMagic = 0x5054524545543031ULL;  // "PTREET01"
constexpr std::uint32_t kVersion = 1;

struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t count;
};

struct Record {
  double px, py, pz;
  double vx, vy, vz;
  double mass;
  double radius;
};

}  // namespace

namespace {

/// Pack particle `i` of `ic` into the on-disk record shape.
Record makeRecord(const InitialConditions& ic, std::size_t i) {
  Record rec{};
  rec.px = ic.positions[i].x;
  rec.py = ic.positions[i].y;
  rec.pz = ic.positions[i].z;
  if (i < ic.velocities.size()) {
    rec.vx = ic.velocities[i].x;
    rec.vy = ic.velocities[i].y;
    rec.vz = ic.velocities[i].z;
  }
  rec.mass = i < ic.masses.size() ? ic.masses[i] : 0.0;
  rec.radius = i < ic.radii.size() ? ic.radii[i] : 0.0;
  return rec;
}

}  // namespace

void saveSnapshot(const std::string& path, const InitialConditions& ic) {
  // Write-to-tmp + rename: a crash mid-write must never leave a
  // truncated file at the final, loadable name. The rename at the end is
  // atomic on POSIX.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + tmp);
  Header header{kMagic, kVersion, 0, ic.size()};
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));

  // Convert and write in blocks of 64Ki records (4 MiB), so the staging
  // buffer stays bounded whatever the particle count.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  std::vector<Record> recs;
  const std::size_t n = ic.size();
  for (std::size_t begin = 0; begin < n && out; begin += kBlock) {
    recs.resize(std::min(kBlock, n - begin));
    for (std::size_t i = 0; i < recs.size(); ++i) {
      recs[i] = makeRecord(ic, begin + i);
    }
    out.write(reinterpret_cast<const char*>(recs.data()),
              static_cast<std::streamsize>(recs.size() * sizeof(Record)));
  }
  if (!out) {
    out.close();
    std::remove(tmp.c_str());
    throw std::runtime_error("write failed: " + tmp);
  }
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    throw std::runtime_error("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " into place");
  }
}

InitialConditions loadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open snapshot: " + path);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  if (file_size < sizeof(Header)) {
    throw std::runtime_error("truncated snapshot " + path + ": " +
                             std::to_string(file_size) +
                             " byte(s), smaller than the header");
  }
  Header header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || header.magic != kMagic) {
    throw std::runtime_error("not a ParaTreeT snapshot: " + path);
  }
  if (header.version != kVersion) {
    throw std::runtime_error("unsupported snapshot version in " + path);
  }
  const std::uint64_t expected =
      sizeof(Header) + header.count * sizeof(Record);
  if (file_size != expected) {
    throw std::runtime_error(
        (file_size < expected ? "truncated snapshot " : "oversized snapshot ") +
        path + ": header declares " + std::to_string(header.count) +
        " particle(s) (" + std::to_string(expected) + " bytes) but file holds " +
        std::to_string(file_size) + " bytes");
  }
  InitialConditions ic;
  ic.positions.reserve(header.count);
  ic.velocities.reserve(header.count);
  ic.masses.reserve(header.count);
  ic.radii.reserve(header.count);
  std::uint64_t bad_positions = 0;
  std::uint64_t first_bad = 0;
  for (std::uint64_t i = 0; i < header.count; ++i) {
    Record rec{};
    in.read(reinterpret_cast<char*>(&rec), sizeof(rec));
    if (!in) throw std::runtime_error("truncated snapshot: " + path);
    if (!std::isfinite(rec.px) || !std::isfinite(rec.py) ||
        !std::isfinite(rec.pz)) {
      if (bad_positions == 0) first_bad = i;
      ++bad_positions;
    }
    ic.positions.push_back({rec.px, rec.py, rec.pz});
    ic.velocities.push_back({rec.vx, rec.vy, rec.vz});
    ic.masses.push_back(rec.mass);
    ic.radii.push_back(rec.radius);
  }
  if (bad_positions > 0) {
    throw std::runtime_error(
        "corrupt snapshot " + path + ": " + std::to_string(bad_positions) +
        " particle(s) with non-finite (NaN/inf) positions, first at index " +
        std::to_string(first_bad));
  }
  return ic;
}

void validateInitialConditions(const InitialConditions& ic) {
  std::uint64_t bad_positions = 0, first_bad_position = 0;
  std::uint64_t bad_masses = 0, first_bad_mass = 0;
  for (std::size_t i = 0; i < ic.size(); ++i) {
    const Vec3& p = ic.positions[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      if (bad_positions == 0) first_bad_position = i;
      ++bad_positions;
    }
    const double m = i < ic.masses.size() ? ic.masses[i] : 0.0;
    if (!(m > 0.0)) {  // catches <= 0 and NaN
      if (bad_masses == 0) first_bad_mass = i;
      ++bad_masses;
    }
  }
  std::string err;
  if (bad_positions > 0) {
    err += std::to_string(bad_positions) +
           " particle(s) with non-finite (NaN/inf) positions, first at index " +
           std::to_string(first_bad_position);
  }
  if (bad_masses > 0) {
    if (!err.empty()) err += "; ";
    err += std::to_string(bad_masses) +
           " particle(s) with non-positive mass, first at index " +
           std::to_string(first_bad_mass);
  }
  if (!err.empty()) {
    throw std::runtime_error("invalid initial conditions: " + err);
  }
}

void exportCsv(const std::string& path, const InitialConditions& ic) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << "# x y z vx vy vz mass radius\n";
  for (std::size_t i = 0; i < ic.size(); ++i) {
    const Vec3 v = i < ic.velocities.size() ? ic.velocities[i] : Vec3{};
    out << ic.positions[i].x << ' ' << ic.positions[i].y << ' '
        << ic.positions[i].z << ' ' << v.x << ' ' << v.y << ' ' << v.z << ' '
        << (i < ic.masses.size() ? ic.masses[i] : 0.0) << ' '
        << (i < ic.radii.size() ? ic.radii[i] : 0.0) << '\n';
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace paratreet
