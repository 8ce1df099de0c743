// Durable checkpoint (rts::DurableStore) acceptance suite: generation
// directories are written crash-consistently (tmp-then-rename, so a
// generation is fully present or invisible), verified on load through
// the manifest's CRC chain, garbage-collected to the newest `keep`, and
// fallen back past generation by generation when damaged. The damage
// matrix mirrors PR 7's in-memory fallback tests on disk: truncation at
// every chunk boundary and at mid-header offsets, single bit-flips in
// chunks.bin and in MANIFEST, config-hash mismatch rejection, and the
// seeded FaultKind::kTornWrite injector.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/serialization.hpp"
#include "rts/checkpoint.hpp"

namespace paratreet {
namespace {

// --- filesystem helpers ----------------------------------------------------

std::vector<std::string> listDir(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

void removeAll(const std::string& path) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    for (const auto& name : listDir(path)) removeAll(path + "/" + name);
    ::rmdir(path.c_str());
  } else {
    ::unlink(path.c_str());
  }
}

/// A scratch directory per test, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/paratreet_durable_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() { removeAll(path); }
};

std::vector<std::byte> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  return bytes;
}

void writeFile(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void truncateFile(const std::string& path, std::size_t size) {
  ASSERT_EQ(0, ::truncate(path.c_str(), static_cast<off_t>(size)));
}

void flipBit(const std::string& path, std::size_t byte, unsigned bit) {
  auto bytes = readFile(path);
  ASSERT_LT(byte, bytes.size());
  bytes[byte] ^= static_cast<std::byte>(1u << bit);
  writeFile(path, bytes);
}

// --- chunk helpers ---------------------------------------------------------

/// A realistic serialized chunk (CheckpointChunkHeader + Particle array)
/// for `count` particles owned by `rank`, deterministic per (rank, step).
std::vector<std::byte> makeChunk(int rank, int step, int count) {
  std::vector<Particle> particles(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto& p = particles[static_cast<std::size_t>(i)];
    p.order = rank * 1000 + i;
    p.mass = 1.0 + 0.25 * i;
    p.position = {0.1 * rank, 0.01 * i, 0.001 * step};
    p.velocity = {1.0 * step, -1.0 * i, 0.5};
  }
  return serializeCheckpointChunk(step, rank, particles);
}

std::vector<std::vector<std::byte>> makeGeneration(int step) {
  // Distinct per-rank sizes so chunk boundaries are non-trivial offsets.
  return {makeChunk(0, step, 3), makeChunk(1, step, 7),
          makeChunk(2, step, 5)};
}

rts::DurableStore::Options options(const std::string& dir, int keep = 2,
                                   std::uint64_t hash = 0xfeedu) {
  rts::DurableStore::Options o;
  o.dir = dir;
  o.keep = keep;
  o.config_hash = hash;
  return o;
}

// --- round trip, retention, hygiene ---------------------------------------

TEST(DurableStore, PersistThenLoadRoundTripsChunksVerbatim) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path));
  const auto chunks = makeGeneration(4);
  const std::uint64_t bytes = store.persist(4, chunks, 15);
  EXPECT_GT(bytes, 0u);

  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->step, 4);
  EXPECT_EQ(rec->particle_count, 15u);
  EXPECT_EQ(rec->generations_skipped, 0);
  EXPECT_TRUE(rec->diagnostic.empty());
  ASSERT_EQ(rec->chunks.size(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(rec->chunks[i], chunks[i]) << "chunk " << i;
  }
  // The decode layer accepts the restored bytes unchanged.
  const auto decoded = deserializeCheckpointChunk(rec->chunks[1]);
  EXPECT_EQ(decoded.first.step, 4);
  EXPECT_EQ(decoded.second.size(), 7u);
}

TEST(DurableStore, LoadPicksTheNewestGeneration) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path));
  store.persist(-1, makeGeneration(-1), 15);
  store.persist(3, makeGeneration(3), 15);
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->step, 3);
  const auto steps = store.generationSteps();
  EXPECT_EQ(steps, (std::vector<int>{-1, 3}));
}

TEST(DurableStore, EmptyDirectoryLoadsNothing) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path));
  EXPECT_FALSE(store.loadNewestVerified().has_value());
}

TEST(DurableStore, RetentionKeepsOnlyTheNewestKGenerations) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path, /*keep=*/2));
  for (const int step : {-1, 1, 3, 5, 7}) {
    store.persist(step, makeGeneration(step), 15);
    // At most keep finals at rest after every persist, and never a
    // lingering .tmp (the acceptance bound "at most keep+1 ever" covers
    // the instant between rename and GC inside persist()).
    EXPECT_LE(store.generationSteps().size(), 2u);
    for (const auto& name : listDir(tmp.path)) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    }
  }
  EXPECT_EQ(store.generationSteps(), (std::vector<int>{5, 7}));
}

TEST(DurableStore, OpenCreatesMissingDirsAndSweepsStaleTmp) {
  TempDir tmp;
  const std::string nested = tmp.path + "/a/b/ckpt";
  rts::DurableStore store;
  store.open(options(nested));
  struct stat st{};
  ASSERT_EQ(0, ::stat(nested.c_str(), &st));
  EXPECT_TRUE(S_ISDIR(st.st_mode));

  // A previous job died mid-persist: ckpt_9.tmp was never renamed in,
  // and an older build's lossy .snap export was killed mid-stream too.
  ASSERT_EQ(0, ::mkdir((nested + "/ckpt_9.tmp").c_str(), 0755));
  writeFile(nested + "/ckpt_9.tmp/chunks.bin", makeChunk(0, 9, 2));
  writeFile(nested + "/checkpoint_3.snap.tmp", makeChunk(0, 3, 1));
  rts::DurableStore reopened;
  reopened.open(options(nested));
  for (const auto& name : listDir(nested)) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
  EXPECT_FALSE(reopened.loadNewestVerified().has_value());
}

TEST(DurableStore, RePersistingAStepReplacesItsGeneration) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path));
  store.persist(5, makeGeneration(5), 15);
  // Recovery rewound and the run re-checkpointed step 5 with different
  // bytes (e.g. after a shrink); the slot must be replaced, not error.
  const std::vector<std::vector<std::byte>> second = {makeChunk(0, 5, 9)};
  store.persist(5, second, 9);
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->chunks.size(), 1u);
  EXPECT_EQ(rec->chunks[0], second[0]);
  EXPECT_EQ(rec->particle_count, 9u);
}

// --- damage matrix ---------------------------------------------------------

/// Persist generations at steps 2 (fallback target) and 6 (victim);
/// returns the victim's directory.
std::string twoGenerations(rts::DurableStore& store, const std::string& dir) {
  store.open(options(dir));
  store.persist(2, makeGeneration(2), 15);
  store.persist(6, makeGeneration(6), 15);
  return dir + "/ckpt_6";
}

void expectFallsBackToStepTwo(const rts::DurableStore& store,
                              const std::string& damaged_dir) {
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->step, 2);
  EXPECT_EQ(rec->generations_skipped, 1);
  EXPECT_NE(rec->diagnostic.find(damaged_dir), std::string::npos)
      << rec->diagnostic;
  ASSERT_EQ(rec->chunks.size(), 3u);
  EXPECT_EQ(rec->chunks[1], makeChunk(1, 2, 7));
}

TEST(DurableStore, TruncationAtEveryChunkBoundaryFallsBack) {
  TempDir tmp;
  rts::DurableStore store;
  const std::string victim = twoGenerations(store, tmp.path);
  const auto chunks = makeGeneration(6);
  const auto intact = readFile(victim + "/chunks.bin");

  // Every chunk boundary (0, |c0|, |c0|+|c1|) and a sweep of mid-header
  // offsets past each boundary — the torn tail lands inside a
  // CheckpointChunkHeader rather than at a clean edge.
  std::vector<std::size_t> offsets;
  std::size_t boundary = 0;
  for (const auto& c : chunks) {
    offsets.push_back(boundary);
    for (const std::size_t skew : {1u, 5u, 13u, 19u}) {
      if (skew < sizeof(CheckpointChunkHeader) &&
          boundary + skew < intact.size()) {
        offsets.push_back(boundary + skew);
      }
    }
    boundary += c.size();
  }
  for (const std::size_t offset : offsets) {
    writeFile(victim + "/chunks.bin", intact);
    truncateFile(victim + "/chunks.bin", offset);
    SCOPED_TRACE("truncated chunks.bin to " + std::to_string(offset));
    expectFallsBackToStepTwo(store, victim);
  }
}

TEST(DurableStore, BitFlipInChunksBinFallsBack) {
  TempDir tmp;
  rts::DurableStore store;
  const std::string victim = twoGenerations(store, tmp.path);
  const auto intact = readFile(victim + "/chunks.bin");
  for (const std::size_t byte :
       {std::size_t{0}, intact.size() / 2, intact.size() - 1}) {
    writeFile(victim + "/chunks.bin", intact);
    flipBit(victim + "/chunks.bin", byte, 3);
    SCOPED_TRACE("flipped chunks.bin byte " + std::to_string(byte));
    expectFallsBackToStepTwo(store, victim);
  }
}

TEST(DurableStore, BitFlipInManifestFallsBack) {
  TempDir tmp;
  rts::DurableStore store;
  const std::string victim = twoGenerations(store, tmp.path);
  const auto intact = readFile(victim + "/MANIFEST");
  for (const std::size_t byte :
       {std::size_t{0}, intact.size() / 2, intact.size() - 2}) {
    writeFile(victim + "/MANIFEST", intact);
    flipBit(victim + "/MANIFEST", byte, 1);
    SCOPED_TRACE("flipped MANIFEST byte " + std::to_string(byte));
    expectFallsBackToStepTwo(store, victim);
  }
}

TEST(DurableStore, MissingManifestOrChunksFallsBack) {
  TempDir tmp;
  rts::DurableStore store;
  const std::string victim = twoGenerations(store, tmp.path);
  const auto manifest = readFile(victim + "/MANIFEST");
  ASSERT_EQ(0, ::unlink((victim + "/MANIFEST").c_str()));
  expectFallsBackToStepTwo(store, victim);
  writeFile(victim + "/MANIFEST", manifest);
  ASSERT_EQ(0, ::unlink((victim + "/chunks.bin").c_str()));
  expectFallsBackToStepTwo(store, victim);
}

TEST(DurableStore, FallbackPrefersTheNewestIntactGeneration) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path, /*keep=*/3));
  store.persist(1, makeGeneration(1), 15);
  store.persist(3, makeGeneration(3), 15);
  store.persist(5, makeGeneration(5), 15);
  // Own (newest) generation damaged → the *next newest* wins, not the
  // oldest: own-generation → older-generation ordering.
  flipBit(tmp.path + "/ckpt_5/chunks.bin", 40, 2);
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->step, 3);
  EXPECT_EQ(rec->generations_skipped, 1);
}

TEST(DurableStore, NoVerifiableGenerationThrowsWithPerGenerationDiagnostic) {
  TempDir tmp;
  rts::DurableStore store;
  store.open(options(tmp.path));
  store.persist(2, makeGeneration(2), 15);
  store.persist(6, makeGeneration(6), 15);
  flipBit(tmp.path + "/ckpt_2/chunks.bin", 10, 0);
  truncateFile(tmp.path + "/ckpt_6/chunks.bin", 17);
  try {
    store.loadNewestVerified();
    FAIL() << "expected a throw when no generation verifies";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("none verified"), std::string::npos) << what;
    EXPECT_NE(what.find("ckpt_2"), std::string::npos) << what;
    EXPECT_NE(what.find("ckpt_6"), std::string::npos) << what;
  }
}

TEST(DurableStore, ConfigHashMismatchIsAHardErrorNotAFallback) {
  TempDir tmp;
  {
    rts::DurableStore writer;
    writer.open(options(tmp.path, 2, /*hash=*/0x1111u));
    writer.persist(2, makeGeneration(2), 15);
    writer.persist(6, makeGeneration(6), 15);
  }
  rts::DurableStore reader;
  reader.open(options(tmp.path, 2, /*hash=*/0x2222u));
  // Both generations carry the old hash; falling back to the older one
  // would be just as wrong, so this must throw instead of skipping.
  try {
    reader.loadNewestVerified();
    FAIL() << "expected a hard error on config-hash mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hash mismatch"), std::string::npos)
        << e.what();
  }
}

// --- the seeded torn-write fault ------------------------------------------

TEST(DurableStore, TornWriteKeepsNewestTornAndRepairsItWhenSuperseded) {
  TempDir tmp;
  int tears = 0;
  auto opts = options(tmp.path);
  opts.torn_write = true;
  opts.torn_seed = 7;
  opts.on_torn = [&tears] { ++tears; };
  rts::DurableStore store;
  store.open(std::move(opts));

  store.persist(1, makeGeneration(1), 15);
  EXPECT_EQ(tears, 1);
  // The only generation is torn: nothing verifies (and the diagnostic is
  // loud about it) — exactly the "job died mid-persist of its first
  // generation" worst case.
  EXPECT_THROW(store.loadNewestVerified(), std::runtime_error);

  store.persist(3, makeGeneration(3), 15);
  EXPECT_EQ(tears, 2);
  // Now generation 1 has been repaired (the fault models the *newest*
  // write being torn) and generation 3 carries the damage: resume must
  // fall back own-generation → older-generation.
  const auto rec = store.loadNewestVerified();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->step, 1);
  EXPECT_EQ(rec->generations_skipped, 1);
  EXPECT_EQ(rec->chunks[0], makeChunk(0, 1, 3));
}

TEST(DurableStore, TornWriteTearIsDeterministicPerSeedAndStep) {
  TempDir a, b;
  for (const auto* dir : {&a.path, &b.path}) {
    auto opts = options(*dir);
    opts.torn_write = true;
    opts.torn_seed = 42;
    rts::DurableStore store;
    store.open(std::move(opts));
    store.persist(5, makeGeneration(5), 15);
  }
  EXPECT_EQ(readFile(a.path + "/ckpt_5/chunks.bin"),
            readFile(b.path + "/ckpt_5/chunks.bin"));
  EXPECT_EQ(readFile(a.path + "/ckpt_5/MANIFEST"),
            readFile(b.path + "/ckpt_5/MANIFEST"));
}

// --- Configuration plumbing ------------------------------------------------

TEST(DurableConfig, ValidateRejectsOutOfRangeKnobs) {
  Configuration conf;
  conf.checkpoint_keep = 0;
  EXPECT_NE(conf.validate().find("checkpoint_keep"), std::string::npos);
  conf.checkpoint_keep = 2;
  conf.resume = true;  // without a checkpoint_dir
  EXPECT_NE(conf.validate().find("resume"), std::string::npos);
  conf.checkpoint_dir = "somewhere";
  EXPECT_TRUE(conf.validate().empty()) << conf.validate();
}

TEST(DurableConfig, CompatibilityHashTracksShapeNotSchedule) {
  Configuration a;
  const std::uint64_t base = a.compatibilityHash(600);
  EXPECT_EQ(base, Configuration{}.compatibilityHash(600));
  EXPECT_NE(base, a.compatibilityHash(601));

  Configuration b;
  b.bucket_size = 7;
  EXPECT_NE(base, b.compatibilityHash(600));

  // Parameters that must NOT invalidate a checkpoint: extending the run,
  // switching transport, changing checkpoint cadence or fault schedule.
  Configuration c;
  c.num_iterations = 99;
  c.checkpoint_every = 5;
  c.checkpoint_keep = 4;
  c.resume = true;
  c.transport.kind = rts::TransportKind::kTcp;
  c.fault.enabled = true;
  c.fault.seed = 123;
  EXPECT_EQ(base, c.compatibilityHash(600));
}

}  // namespace
}  // namespace paratreet
