// Copyright (c) 2026 The tsq Authors.
//
// Tests for the failpoint registry (spec grammar, skip/count semantics,
// callbacks, the TSQ_FAILPOINTS environment string) and for the
// durability/degradation contract it exists to exercise: an injected
// ENOSPC or short write on any append/merge path must surface an
// errno-bearing IOError, flip the database into read-only degraded mode
// while queries keep serving the published snapshot, and Repair() must
// lift the poison once the fault is cleared.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/random_walk.h"

namespace tsq {
namespace {

using testing::Range;
using testing::TempDir;

constexpr size_t kLength = 16;

class FailpointTest : public ::testing::Test {
 protected:
  // Leaving an armed site behind would fail whichever test runs next.
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(FailpointTest, DisarmedSiteIsFreeAndFiresNothing) {
  failpoint::Site* site = failpoint::Register("fp_unit_disarmed");
  EXPECT_FALSE(site->armed());
  const failpoint::Decision d = failpoint::Check(site);
  EXPECT_FALSE(d.fire());
  EXPECT_EQ(d.kind, failpoint::ActionKind::kOff);
}

TEST_F(FailpointTest, SpecGrammarRejectsMalformedInput) {
  EXPECT_TRUE(failpoint::Configure("fp_unit_gram", "explode").IsInvalidArgument());
  EXPECT_TRUE(
      failpoint::Configure("fp_unit_gram", "error:skip").IsInvalidArgument());
  EXPECT_TRUE(
      failpoint::Configure("fp_unit_gram", "error:skip=x").IsInvalidArgument());
  EXPECT_TRUE(
      failpoint::Configure("fp_unit_gram", "error:warp=1").IsInvalidArgument());
  // A rejected spec must not arm the site.
  EXPECT_FALSE(failpoint::Register("fp_unit_gram")->armed());
}

TEST_F(FailpointTest, ErrorActionCarriesConfiguredErrno) {
  ASSERT_TRUE(failpoint::Configure("fp_unit_err", "error:errno=28").ok());
  failpoint::Site* site = failpoint::Register("fp_unit_err");
  ASSERT_TRUE(site->armed());
  const failpoint::Decision d = failpoint::Check(site);
  EXPECT_TRUE(d.fire());
  EXPECT_EQ(d.kind, failpoint::ActionKind::kError);
  EXPECT_EQ(d.error_errno, ENOSPC);
}

TEST_F(FailpointTest, EnospcShortAndOffActions) {
  ASSERT_TRUE(failpoint::Configure("fp_unit_acts", "enospc").ok());
  failpoint::Site* site = failpoint::Register("fp_unit_acts");
  EXPECT_EQ(failpoint::Check(site).error_errno, ENOSPC);

  ASSERT_TRUE(failpoint::Configure("fp_unit_acts", "short:bytes=5").ok());
  const failpoint::Decision d = failpoint::Check(site);
  EXPECT_EQ(d.kind, failpoint::ActionKind::kShortWrite);
  EXPECT_EQ(d.bytes, 5u);
  EXPECT_EQ(d.error_errno, EIO);  // default errno

  ASSERT_TRUE(failpoint::Configure("fp_unit_acts", "off").ok());
  EXPECT_FALSE(site->armed());
}

TEST_F(FailpointTest, SkipAndCountConsumeTraversals) {
  ASSERT_TRUE(
      failpoint::Configure("fp_unit_skip", "error:skip=2,count=2").ok());
  failpoint::Site* site = failpoint::Register("fp_unit_skip");
  EXPECT_FALSE(failpoint::Check(site).fire());  // skip 1
  EXPECT_FALSE(failpoint::Check(site).fire());  // skip 2
  EXPECT_TRUE(failpoint::Check(site).fire());   // shot 1
  EXPECT_TRUE(failpoint::Check(site).fire());   // shot 2, disarms
  EXPECT_FALSE(site->armed());
  EXPECT_FALSE(failpoint::Check(site).fire());
  // hits() counts armed traversals only — the disarmed Check above never
  // reached Evaluate.
  EXPECT_EQ(site->hits(), 4u);
  EXPECT_EQ(failpoint::HitCount("fp_unit_skip"), 4u);
}

TEST_F(FailpointTest, CountZeroNeverFires) {
  ASSERT_TRUE(failpoint::Configure("fp_unit_zero", "error:count=0").ok());
  EXPECT_FALSE(failpoint::Register("fp_unit_zero")->armed());
}

TEST_F(FailpointTest, CallbackArmsSiteAndReceivesArg) {
  uint64_t seen = 0;
  failpoint::SetCallback("fp_unit_cb",
                         [&seen](uint64_t arg) { seen = arg; });
  failpoint::Site* site = failpoint::Register("fp_unit_cb");
  ASSERT_TRUE(site->armed());
  EXPECT_FALSE(failpoint::Check(site, 42).fire());  // callback only, no fault
  EXPECT_EQ(seen, 42u);
  failpoint::SetCallback("fp_unit_cb", nullptr);
  EXPECT_FALSE(site->armed());
}

TEST_F(FailpointTest, ArmedSitesListsAndClearAllDisarms) {
  ASSERT_TRUE(failpoint::Configure("fp_unit_lista", "error").ok());
  ASSERT_TRUE(failpoint::Configure("fp_unit_listb", "enospc").ok());
  std::vector<std::string> armed = failpoint::ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "fp_unit_lista"),
            armed.end());
  EXPECT_NE(std::find(armed.begin(), armed.end(), "fp_unit_listb"),
            armed.end());
  failpoint::ClearAll();
  EXPECT_FALSE(failpoint::Register("fp_unit_lista")->armed());
  EXPECT_FALSE(failpoint::Register("fp_unit_listb")->armed());
}

// The environment string is parsed once at the first Register of a
// process, so it cannot be tested in this (long-registered) process:
// re-exec this binary filtered to the probe test with TSQ_FAILPOINTS
// set, and let the probe verify the spec was applied.
TEST_F(FailpointTest, EnvSpecProbe) {
  if (const char* env = std::getenv("TSQ_FAILPOINTS")) {
    failpoint::Site* site = failpoint::Register("fp_env_probe");
    ASSERT_TRUE(site->armed()) << "TSQ_FAILPOINTS=" << env << " not applied";
    const failpoint::Decision d = failpoint::Check(site);
    EXPECT_EQ(d.kind, failpoint::ActionKind::kError);
    EXPECT_EQ(d.error_errno, ENOSPC);
    EXPECT_TRUE(failpoint::Check(site).fire());
    EXPECT_FALSE(site->armed());  // count=2 exhausted
    return;
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("TSQ_FAILPOINTS", "fp_env_probe=error:errno=28,count=2;;bad", 1);
    ::execl("/proc/self/exe", "failpoint_test",
            "--gtest_filter=FailpointTest.EnvSpecProbe",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// ---------------------------------------------------------------------------
// Database-level fault injection: degrade, keep serving, repair.
// ---------------------------------------------------------------------------

/// Creates a database with `count` indexed series in `dir`.
Result<std::unique_ptr<Database>> MakeIndexedDb(
    const std::string& dir, size_t count,
    Durability durability = Durability::kNone) {
  DatabaseOptions options;
  options.directory = dir;
  options.name = "fpdb";
  options.relation_segments = 2;
  options.durability = durability;
  TSQ_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                       Database::Create(options));
  const auto data = workload::MakeRandomWalkDataset(20260808, count, kLength);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (const TimeSeries& s : data) {
    names.push_back(s.name());
    values.push_back(s.values());
  }
  TSQ_RETURN_IF_ERROR(db->InsertBatch(names, values).status());
  TSQ_RETURN_IF_ERROR(db->BuildIndex());
  return db;
}

RealVec ProbeQuery() { return RealVec(kLength, 0.0); }

TEST_F(FailpointTest, EnospcOnAppendDegradesServesAndRepairs) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 32);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const size_t before = (*db)->size();
  auto healthy = Range(db->get(), ProbeQuery(), 50.0);
  ASSERT_TRUE(healthy.ok());

  ASSERT_TRUE(failpoint::Configure("relation_append", "enospc").ok());
  auto id = (*db)->Insert("victim", RealVec(kLength, 1.0));
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsIOError()) << id.status().ToString();
  // The error names the failing segment file and carries the errno text.
  EXPECT_NE(id.status().message().find("append failed in"), std::string::npos)
      << id.status().ToString();
  EXPECT_NE(id.status().message().find(std::strerror(ENOSPC)),
            std::string::npos)
      << id.status().ToString();

  // Degraded: writes bounce with kReadOnly, reads keep serving the
  // published snapshot, stats say why.
  EXPECT_TRUE((*db)->degraded());
  auto rejected = (*db)->Insert("rejected", RealVec(kLength, 2.0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsReadOnly()) << rejected.status().ToString();
  auto while_degraded = Range(db->get(), ProbeQuery(), 50.0);
  ASSERT_TRUE(while_degraded.ok()) << while_degraded.status().ToString();
  EXPECT_EQ(while_degraded->size(), healthy->size());
  const DatabaseStats stats = (*db)->StatsSnapshot();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GE(stats.write_faults, 1u);
  EXPECT_EQ(stats.repairs_completed, 0u);

  // Repair clears the poison, but while the fault persists the very
  // next write faults again — degradation is re-entrant, not one-shot.
  ASSERT_TRUE((*db)->Repair().ok());
  EXPECT_FALSE((*db)->degraded());
  auto still = (*db)->Insert("still_failing", RealVec(kLength, 2.5));
  ASSERT_FALSE(still.ok());
  EXPECT_TRUE(still.status().IsIOError()) << still.status().ToString();
  EXPECT_TRUE((*db)->degraded());

  // Once the "disk" recovers, repair sticks and writes resume.
  failpoint::ClearAll();
  ASSERT_TRUE((*db)->Repair().ok());
  EXPECT_FALSE((*db)->degraded());
  EXPECT_EQ((*db)->size(), before);  // the failed appends left no hole
  auto resumed = (*db)->Insert("resumed", RealVec(kLength, 3.0));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ((*db)->StatsSnapshot().repairs_completed, 2u);
  EXPECT_GE((*db)->StatsSnapshot().write_faults, 2u);
  // The repaired snapshot still answers (and now sees the new series).
  auto after = Range(db->get(), ProbeQuery(), 50.0);
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->size(), healthy->size());
}

TEST_F(FailpointTest, ShortWriteOnAppendTruncatesAndRepairs) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 16);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const size_t before = (*db)->size();

  // Land a 7-byte prefix of the record, then fail — the torn tail must
  // be truncated away so the segment stays parseable.
  ASSERT_TRUE(failpoint::Configure("relation_append", "short:bytes=7").ok());
  auto id = (*db)->Insert("torn", RealVec(kLength, 1.0));
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsIOError());
  EXPECT_NE(id.status().message().find(std::strerror(EIO)), std::string::npos)
      << id.status().ToString();
  EXPECT_TRUE((*db)->degraded());

  failpoint::ClearAll();
  ASSERT_TRUE((*db)->Repair().ok());
  auto resumed = (*db)->Insert("resumed", RealVec(kLength, 2.0));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(*resumed, before);  // dense ids: no hole from the failure
  auto rec = (*db)->Get(*resumed);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->name, "resumed");
}

TEST_F(FailpointTest, BatchAppendFaultDegradesAllWriters) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 8);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ASSERT_TRUE(failpoint::Configure("relation_append", "enospc:skip=3").ok());
  const auto data = workload::MakeRandomWalkDataset(20260809, 16, kLength);
  std::vector<std::string> names;
  std::vector<RealVec> values;
  for (const TimeSeries& s : data) {
    names.push_back(s.name() + "_b");
    values.push_back(s.values());
  }
  auto ids = (*db)->InsertBatch(names, values, /*threads=*/4);
  ASSERT_FALSE(ids.ok());
  EXPECT_TRUE(ids.status().IsIOError()) << ids.status().ToString();
  EXPECT_TRUE((*db)->degraded());

  failpoint::ClearAll();
  ASSERT_TRUE((*db)->Repair().ok());
  auto retry = (*db)->InsertBatch(names, values, /*threads=*/4);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(FailpointTest, SyncFaultUnderPerBatchDurabilityDegrades) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 8, Durability::kPerBatch);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // The append itself succeeds; the group-commit fdatasync fails, so the
  // batch must NOT be acknowledged and the database must degrade.
  ASSERT_TRUE(failpoint::Configure("relation_sync", "error").ok());
  auto id = (*db)->Insert("unsynced", RealVec(kLength, 1.0));
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsIOError()) << id.status().ToString();
  EXPECT_NE(id.status().message().find("fdatasync failed for"),
            std::string::npos)
      << id.status().ToString();
  EXPECT_TRUE((*db)->degraded());

  failpoint::ClearAll();
  ASSERT_TRUE((*db)->Repair().ok());
  auto resumed = (*db)->Insert("resumed", RealVec(kLength, 2.0));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
}

TEST_F(FailpointTest, FlushFaultDegradesAtOnFlushDurability) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 8, Durability::kOnFlush);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  ASSERT_TRUE(failpoint::Configure("relation_sync", "enospc").ok());
  Status flushed = (*db)->Flush();
  ASSERT_FALSE(flushed.ok());
  EXPECT_TRUE(flushed.IsIOError()) << flushed.ToString();
  EXPECT_TRUE((*db)->degraded());

  failpoint::ClearAll();
  ASSERT_TRUE((*db)->Repair().ok());
  EXPECT_TRUE((*db)->Flush().ok());
}

TEST_F(FailpointTest, MergeWriteFaultDegradesAndRepairRestoresQueries) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 16);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Grow the delta so Reindex has something to merge.
  for (int i = 0; i < 4; ++i) {
    auto id = (*db)->Insert("delta" + std::to_string(i),
                            RealVec(kLength, 1.0 + i));
    ASSERT_TRUE(id.ok());
  }
  auto healthy = Range(db->get(), ProbeQuery(), 50.0);
  ASSERT_TRUE(healthy.ok());

  for (const char* site :
       {"reindex_before_flush", "reindex_before_rename"}) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(failpoint::Configure(site, "enospc").ok());
    auto epoch = (*db)->Reindex();
    ASSERT_FALSE(epoch.ok());
    EXPECT_TRUE(epoch.status().IsIOError()) << epoch.status().ToString();
    EXPECT_NE(epoch.status().message().find(std::strerror(ENOSPC)),
              std::string::npos)
        << epoch.status().ToString();
    EXPECT_TRUE((*db)->degraded());

    // Queries still serve the last published epoch while degraded.
    auto while_degraded = Range(db->get(), ProbeQuery(), 50.0);
    ASSERT_TRUE(while_degraded.ok());
    EXPECT_EQ(while_degraded->size(), healthy->size());

    failpoint::ClearAll();
    ASSERT_TRUE((*db)->Repair().ok());
    EXPECT_FALSE((*db)->degraded());
  }

  // With the fault gone the merge goes through and answers are intact.
  auto epoch = (*db)->Reindex();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  auto after = Range(db->get(), ProbeQuery(), 50.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), healthy->size());
}

TEST_F(FailpointTest, RepairOnHealthyDatabaseIsANoOp) {
  TempDir dir;
  auto db = MakeIndexedDb(dir.path(), 8);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Repair().ok());
  EXPECT_EQ((*db)->StatsSnapshot().repairs_completed, 0u);
}

TEST_F(FailpointTest, PreadFaultFailsEveryRecordRead) {
  TempDir dir;
  auto rel = Relation::Create(dir.file("rel"));
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_TRUE((*rel)->Append("short", RealVec(4, 1.0),
                             ComplexVec(4, Complex(1.0, 0.0))).ok());
  ASSERT_TRUE((*rel)->Append(std::string(4096, 'L'), RealVec(4, 2.0),
                             ComplexVec(4, Complex(2.0, 0.0))).ok());

  // Every read fails at its first (speculative) pread.
  ASSERT_TRUE(failpoint::Configure("io_pread", "error").ok());
  EXPECT_FALSE((*rel)->Get(0).ok());
  EXPECT_FALSE((*rel)->Get(1).ok());
  EXPECT_FALSE((*rel)->Scan([](const SeriesRecord&) { return true; }).ok());

  // A record longer than the read size fails at its second pread too:
  // after reading the short record, the long one's first pread passes
  // and the one for its remaining bytes fires.
  failpoint::Clear("io_pread");
  ASSERT_TRUE((*rel)->Get(0).ok());
  ASSERT_TRUE(failpoint::Configure("io_pread", "error:skip=1").ok());
  const uint64_t hits = failpoint::HitCount("io_pread");
  const Status second = (*rel)->Get(1).status();
  EXPECT_TRUE(second.IsIOError()) << second.ToString();
  EXPECT_EQ(failpoint::HitCount("io_pread") - hits, 2u);

  failpoint::Clear("io_pread");
  EXPECT_EQ((*rel)->Get(1).value().name, std::string(4096, 'L'));
}

}  // namespace
}  // namespace tsq
