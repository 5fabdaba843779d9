// Copyright (c) 2026 The tsq Authors.
//
// Crash-consistency harness: fork a child that aborts (failpoint _exit,
// user-space buffers genuinely lost) at each registered crash site
// mid-ingest, mid-merge or mid-build, reopen the database in the parent,
// and check the recovery invariants:
//
//   - the reopen itself succeeds (no crash state is unrecoverable),
//   - every series the child acknowledged AND flushed before arming the
//     crash is present and byte-exact,
//   - the surviving prefix is dense and self-consistent (every id below
//     size() yields its exact expected record — no holes, no torn tail),
//   - the reopened database is indexed exactly when the crash came after
//     an index file was published (a build that died before its rename
//     leaves the database unindexed, and BuildIndex then runs again),
//   - query answers over the recovered database are bit-identical to a
//     never-crashed baseline built from the same surviving series.
//
// The child drives the workload; the parent owns all assertions. A child
// exit code other than failpoint::kCrashExitCode means the crash site
// never fired (or the child tripped over something unrelated) and fails
// the test — each matrix entry proves the intended site terminated the
// process.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::Knn;
using testing::Range;
using testing::TempDir;

constexpr size_t kLength = 16;
constexpr size_t kFlushed = 12;  // acknowledged + flushed before the crash
constexpr size_t kTotal = 20;    // attempted by the crashing phase

// Child exit codes for failures that are not the intended crash.
constexpr int kChildSetupFailed = 40;
constexpr int kChildIngestFailed = 41;
constexpr int kChildFlushFailed = 42;
constexpr int kChildSurvived = 43;  // the failpoint never fired

/// The deterministic series `i` — both processes derive the expected
/// bytes from a fixed seed, so no state crosses the fork. Random walks
/// keep the shapes distinct: with degenerate (identical-shape) series
/// the kNN answer is a tie-break and would differ legitimately between
/// index layouts. (+1 so the post-recovery insert has a series too.)
RealVec SeriesValues(size_t i) {
  static auto* data = new std::vector<TimeSeries>(
      workload::MakeRandomWalkDataset(20260808, kTotal + 1, kLength));
  return (*data)[i].values();
}

std::string SeriesName(size_t i) { return "crash_s" + std::to_string(i); }

DatabaseOptions MakeOptions(const std::string& dir, Durability durability) {
  DatabaseOptions options;
  options.directory = dir;
  options.name = "crashdb";
  options.relation_segments = 2;
  options.durability = durability;
  return options;
}

/// What the child does after arming the crash failpoint.
enum class CrashPhase {
  kIngest,  // keep inserting one by one until the site fires
  kMerge,   // call Reindex() over a non-empty delta
  kBuild,   // call BuildIndex() over the flushed, unindexed relation
};

struct CrashCase {
  /// The failpoint to arm; "" arms none, and the child ends itself the
  /// moment the crashing phase returns (kBuild only), with no Flush.
  const char* site;
  const char* spec;
  CrashPhase phase;
  Durability durability;
  /// Whether the reopened database has an index.
  bool indexed = true;
};

/// The child body: build the pre-crash state, arm the failpoint, drive
/// the crashing phase. Never returns — _exits with a diagnostic code if
/// the crash site fails to fire.
[[noreturn]] void ChildMain(const std::string& dir, const CrashCase& c) {
  auto db = Database::Create(MakeOptions(dir, c.durability));
  if (!db.ok()) ::_exit(kChildSetupFailed);
  // Phase 1: the series whose survival the parent asserts
  // unconditionally — acknowledged, flushed and (but for the build phase,
  // which indexes them itself) indexed.
  for (size_t i = 0; i < kFlushed; ++i) {
    if (!(*db)->Insert(SeriesName(i), SeriesValues(i)).ok()) {
      ::_exit(kChildIngestFailed);
    }
  }
  if (c.phase == CrashPhase::kBuild) {
    if (!(*db)->Flush().ok()) ::_exit(kChildFlushFailed);
    const bool armed = *c.site != '\0';
    if (armed && !failpoint::Configure(c.site, c.spec).ok()) {
      ::_exit(kChildSetupFailed);
    }
    if (!(*db)->BuildIndex().ok()) ::_exit(kChildIngestFailed);
    // Unarmed: the process ends right after BuildIndex returns, before
    // any Flush — the published index must already be on disk.
    ::_exit(armed ? kChildSurvived : failpoint::kCrashExitCode);
  }
  if (!(*db)->BuildIndex().ok()) ::_exit(kChildIngestFailed);
  if (!(*db)->Flush().ok()) ::_exit(kChildFlushFailed);

  if (c.phase == CrashPhase::kMerge) {
    // Grow (and flush) the delta first so the merge has work; the merge
    // crash sites fire inside Reindex itself.
    for (size_t i = kFlushed; i < kTotal; ++i) {
      if (!(*db)->Insert(SeriesName(i), SeriesValues(i)).ok()) {
        ::_exit(kChildIngestFailed);
      }
    }
    if (!(*db)->Flush().ok()) ::_exit(kChildFlushFailed);
    if (!failpoint::Configure(c.site, c.spec).ok()) ::_exit(kChildSetupFailed);
    (void)(*db)->Reindex();  // expected to _exit inside
  } else {
    if (!failpoint::Configure(c.site, c.spec).ok()) ::_exit(kChildSetupFailed);
    for (size_t i = kFlushed; i < kTotal; ++i) {
      (void)(*db)->Insert(SeriesName(i), SeriesValues(i));  // expected to die
    }
  }
  ::_exit(kChildSurvived);
}

/// Collects range + kNN answers in an id-normalized, bitwise-comparable
/// form.
struct Answers {
  std::vector<Match> range;
  std::vector<Match> knn;
};

Result<Answers> Probe(Database* db) {
  Answers out;
  const RealVec probe = SeriesValues(3);
  TSQ_ASSIGN_OR_RETURN(out.range, Range(db, probe, 250.0));
  TSQ_ASSIGN_OR_RETURN(out.knn, Knn(db, probe, 5));
  auto by_id = [](const Match& a, const Match& b) { return a.id < b.id; };
  std::sort(out.range.begin(), out.range.end(), by_id);
  std::sort(out.knn.begin(), out.knn.end(), by_id);
  return out;
}

void ExpectIdentical(const std::vector<Match>& recovered,
                     const std::vector<Match>& baseline) {
  ASSERT_EQ(recovered.size(), baseline.size());
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].id, baseline[i].id);
    EXPECT_EQ(recovered[i].name, baseline[i].name);
    // Bit-identical, not approximately equal: recovery must not perturb
    // a single stored coefficient.
    EXPECT_EQ(recovered[i].distance, baseline[i].distance) << i;
  }
}

class CrashTest : public ::testing::TestWithParam<CrashCase> {};

std::string CaseName(const ::testing::TestParamInfo<CrashCase>& info) {
  static const char* const kPhaseNames[] = {"_ingest", "_merge", "_build"};
  std::string name =
      *info.param.site != '\0' ? info.param.site : "exit_unflushed";
  name += kPhaseNames[static_cast<int>(info.param.phase)];
  return name + "_" + std::to_string(info.index);
}

TEST_P(CrashTest, RecoversAfterCrashAtSite) {
  const CrashCase c = GetParam();
  TempDir dir;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) ChildMain(dir.path(), c);  // never returns

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
  ASSERT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode)
      << "crash site '" << c.site << "' did not terminate the child "
      << "(exit code " << WEXITSTATUS(wstatus) << ")";

  // Reopen what the crash left behind. This is the recovery under test.
  auto db = Database::Open(MakeOptions(dir.path(), c.durability));
  ASSERT_TRUE(db.ok()) << "reopen after crash at '" << c.site
                       << "' failed: " << db.status().ToString();

  // Acknowledged-and-flushed data is present; nothing bogus appeared.
  const size_t size = (*db)->size();
  EXPECT_GE(size, kFlushed) << "flushed series lost at '" << c.site << "'";
  EXPECT_LE(size, kTotal);
  for (size_t i = 0; i < size; ++i) {
    auto rec = (*db)->Get(i);
    ASSERT_TRUE(rec.ok()) << "id " << i << ": " << rec.status().ToString();
    EXPECT_EQ(rec->name, SeriesName(i));
    ASSERT_EQ(rec->values.size(), kLength);
    const RealVec expected = SeriesValues(i);
    for (size_t j = 0; j < kLength; ++j) {
      EXPECT_EQ(rec->values[j], expected[j]) << "id " << i << " [" << j << "]";
    }
  }
  EXPECT_FALSE((*db)->degraded());  // a clean reopen starts healthy
  EXPECT_EQ((*db)->index_built(), c.indexed);
  if (!(*db)->index_built()) {
    // The build died before publishing: build again, from the reopen.
    ASSERT_TRUE((*db)->BuildIndex().ok());
  }

  // Answers over the recovered database are bit-identical to a database
  // that never crashed and holds exactly the surviving series.
  auto recovered = Probe(db->get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  TempDir baseline_dir;
  auto baseline_db =
      Database::Create(MakeOptions(baseline_dir.path(), Durability::kNone));
  ASSERT_TRUE(baseline_db.ok());
  for (size_t i = 0; i < size; ++i) {
    ASSERT_TRUE(
        (*baseline_db)->Insert(SeriesName(i), SeriesValues(i)).ok());
  }
  ASSERT_TRUE((*baseline_db)->BuildIndex().ok());
  auto baseline = Probe(baseline_db->get());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ExpectIdentical(recovered->range, baseline->range);
  ExpectIdentical(recovered->knn, baseline->knn);

  // The recovered database accepts writes and keeps its dense ids.
  auto next = (*db)->Insert(SeriesName(size), SeriesValues(size));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, size);
}

INSTANTIATE_TEST_SUITE_P(
    CrashMatrix, CrashTest,
    ::testing::Values(
        // Ingest crashes: before any byte of the record lands, and with
        // a torn 9-byte prefix of the record on disk.
        CrashCase{"relation_append", "torn:bytes=0,skip=2",
                  CrashPhase::kIngest, Durability::kNone},
        CrashCase{"relation_append", "torn:bytes=9,skip=1",
                  CrashPhase::kIngest, Durability::kNone},
        // Crash after the group-commit write, before its sync barrier.
        CrashCase{"relation_sync", "torn", CrashPhase::kIngest,
                  Durability::kPerBatch},
        // Merge crashes bracketing the publish: before the temp tree is
        // flushed, after flush but before the rename, and after the
        // rename but before the directory fsync.
        CrashCase{"reindex_before_flush", "torn", CrashPhase::kMerge,
                  Durability::kNone},
        CrashCase{"reindex_before_rename", "torn", CrashPhase::kMerge,
                  Durability::kNone},
        CrashCase{"reindex_after_rename", "torn", CrashPhase::kMerge,
                  Durability::kNone},
        // A torn page write inside the merge's tree build: the first page
        // it writes (the root of these one-node trees), then the last
        // (the meta page). The scratch file is dropped on reopen.
        CrashCase{"page_file_write", "torn:bytes=100", CrashPhase::kMerge,
                  Durability::kNone},
        CrashCase{"page_file_write", "torn:bytes=100,skip=1",
                  CrashPhase::kMerge, Durability::kNone},
        // Build crashes at the same three steps: the first two leave no
        // index file, the third a complete one.
        CrashCase{"reindex_before_flush", "torn", CrashPhase::kBuild,
                  Durability::kNone, /*indexed=*/false},
        CrashCase{"reindex_before_rename", "torn", CrashPhase::kBuild,
                  Durability::kNone, /*indexed=*/false},
        CrashCase{"reindex_after_rename", "torn", CrashPhase::kBuild,
                  Durability::kNone},
        // The same torn page writes inside BuildIndex's tree build.
        CrashCase{"page_file_write", "torn:bytes=100", CrashPhase::kBuild,
                  Durability::kNone, /*indexed=*/false},
        CrashCase{"page_file_write", "torn:bytes=100,skip=1",
                  CrashPhase::kBuild, Durability::kNone, /*indexed=*/false},
        // A process that ends right after BuildIndex returns, unflushed.
        CrashCase{"", "", CrashPhase::kBuild, Durability::kNone}),
    CaseName);

}  // namespace
}  // namespace tsq
