// Tests of the benchmark's own helpers: the percentile rule, digest order
// insensitivity, and the counting FileSystem's pass-through.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using temporadb::Period;
using temporadb::Row;
using temporadb::Schema;
using temporadb::TemporalClass;
using temporadb::Value;

std::vector<double> Ascending(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // Nearest rank: p99 of 1..1000 is 990, with 991..1000 beyond it.
  EXPECT_EQ(TailPercentile(Ascending(1000), 0.99), 990.0);
  EXPECT_EQ(TailPercentile(Ascending(999), 0.99), std::nullopt);
  EXPECT_EQ(TailPercentile(Ascending(200), 0.95), 190.0);
  EXPECT_EQ(TailPercentile(Ascending(199), 0.95), std::nullopt);
  EXPECT_EQ(TailPercentile(Ascending(20), 0.50), 10.0);
  EXPECT_EQ(TailPercentile(Ascending(19), 0.50), std::nullopt);
  EXPECT_EQ(TailPercentile({}, 0.50), std::nullopt);
}

TEST(Percentile, TailMeanAveragesFromThePercentileUp) {
  // p90 of 1..100 is 90; the tail is 90..100 with 91..100 beyond it.
  EXPECT_EQ(TailMean(Ascending(100), 0.90), 95.0);
  EXPECT_EQ(TailMean(Ascending(99), 0.90), std::nullopt);
}

TEST(Percentile, MedianAndMean) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Mean({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(Percentile, KeyMediansIgnoreAKeysSlowStretch) {
  KeyedSamples s;
  // Key 0 ran five times; two of them on a slowed processor.
  for (double v : {10.0, 11.0, 30.0, 10.5, 31.0}) s.Add(0, v);
  s.Add(2, 50.0);  // Key 1 never ran.
  EXPECT_EQ(s.count(), 6u);
  EXPECT_EQ(s.SortedKeyMedians(), (std::vector<double>{11.0, 50.0}));
  EXPECT_EQ(s.SortedAll(),
            (std::vector<double>{10.0, 10.5, 11.0, 30.0, 31.0, 50.0}));
  KeyedSamples t;
  t.Add(2, 40.0);
  t.Merge(s);
  EXPECT_EQ(t.key(2), (std::vector<double>{40.0, 50.0}));
}

Rowset MakeRows(const std::vector<std::pair<int64_t, std::string>>& rows) {
  Schema schema({{"emp", temporadb::Type::Int()},
                 {"dept", temporadb::Type::String()}});
  Rowset out(schema, TemporalClass::kHistorical);
  int64_t day = 100;
  for (const auto& [emp, dept] : rows) {
    Row row;
    row.values = {Value(emp), Value(dept)};
    row.valid = Period(temporadb::Chronon(day), temporadb::Chronon(day + 7));
    EXPECT_TRUE(out.AddRow(row).ok());
  }
  return out;
}

TEST(Digest, IgnoresRowOrder) {
  const Rowset a = MakeRows({{1, "d1"}, {2, "d2"}, {3, "d3"}});
  const Rowset b = MakeRows({{3, "d3"}, {1, "d1"}, {2, "d2"}});
  EXPECT_EQ(ResultDigest(a), ResultDigest(b));
}

TEST(Digest, SeesContentAndMultiplicity) {
  const Rowset a = MakeRows({{1, "d1"}, {2, "d2"}});
  EXPECT_NE(ResultDigest(a), ResultDigest(MakeRows({{1, "d1"}, {2, "d3"}})));
  EXPECT_NE(ResultDigest(a), ResultDigest(MakeRows({{1, "d1"}})));
  EXPECT_NE(ResultDigest(a),
            ResultDigest(MakeRows({{1, "d1"}, {2, "d2"}, {2, "d2"}})));
  // A swapped pair of values is another row, not the same row reordered.
  EXPECT_NE(RowDigest(MakeRows({{1, "d2"}}).rows()[0]),
            RowDigest(MakeRows({{2, "d1"}}).rows()[0]));
}

TEST(Digest, KeyedCombinationIgnoresOrderButNotKeys) {
  const uint64_t ab = CombineKeyed(CombineKeyed(0, 1, 11), 2, 22);
  const uint64_t ba = CombineKeyed(CombineKeyed(0, 2, 22), 1, 11);
  EXPECT_EQ(ab, ba);
  EXPECT_NE(ab, CombineKeyed(CombineKeyed(0, 1, 22), 2, 11));
}

class CountingFsTest : public ::testing::Test {
 protected:
  // Under the working directory, which run.py sets to the checkout root.
  void SetUp() override {
    dir_ = ".bench_run/selftest-" + std::to_string(::getpid());
    std::filesystem::create_directories(".bench_run");
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CountingFsTest, PassesEveryCallThroughAndCounts) {
  CountingFileSystem fs(FileSystem::Default());
  const int64_t fs0 = CountingFileSystem::ThreadFsNs();
  const int64_t sync0 = CountingFileSystem::ThreadSyncNs();
  ASSERT_TRUE(fs.MakeDir(dir_).ok());
  EXPECT_TRUE(fs.DirExists(dir_));
  const std::string path = dir_ + "/f";
  {
    Result<std::unique_ptr<File>> f = fs.OpenFile(path, /*create=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(0, "hello", 5).ok());
    ASSERT_TRUE((*f)->WriteAt(5, " world", 6).ok());
    ASSERT_TRUE((*f)->Sync().ok());
    char buf[16] = {};
    Result<size_t> n = (*f)->ReadAt(0, buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf, *n), "hello world");
    Result<uint64_t> size = (*f)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 11u);
    ASSERT_TRUE((*f)->Truncate(5).ok());
  }
  ASSERT_TRUE(fs.SyncDir(dir_).ok());
  // What the wrapper wrote is what the underlying filesystem holds.
  Result<std::string> content = ReadFileToString(FileSystem::Default(), path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
  ASSERT_TRUE(fs.RenameFile(path, path + "2").ok());
  EXPECT_FALSE(fs.FileExists(path));
  EXPECT_TRUE(FileSystem::Default()->FileExists(path + "2"));
  Result<std::vector<std::string>> names = fs.ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"f2"});
  ASSERT_TRUE(fs.RemoveFile(path + "2").ok());
  ASSERT_TRUE(fs.RemoveDir(dir_).ok());
  EXPECT_FALSE(FileSystem::Default()->DirExists(dir_));

  const IoSnapshot io = fs.Snapshot();
  EXPECT_EQ(io.bytes_written, 11u);
  EXPECT_EQ(io.bytes_read, 11u);
  EXPECT_EQ(io.file_syncs, 1u);
  EXPECT_EQ(io.dir_syncs, 1u);
  EXPECT_GE(io.sync_ns, 0);
  // The thread's file-system time holds its sync time and more.
  const int64_t synced = CountingFileSystem::ThreadSyncNs() - sync0;
  EXPECT_EQ(synced, io.sync_ns);
  EXPECT_GT(CountingFileSystem::ThreadFsNs() - fs0, synced);
  // Errors from the base come back unchanged.
  EXPECT_TRUE(fs.OpenFile(dir_ + "/missing", /*create=*/false)
                  .status()
                  .IsNotFound());
}

TEST(Trace, SelfTimeSubtractsDirectChildren) {
  std::vector<Span> spans = {
      {"request", -1, 1, 0, 100},
      {"parse", 0, 1, 10, 30},
      {"eval", 0, 1, 30, 90},
      {"sync", 2, 1, 40, 50},
  };
  std::map<std::string, SelfTime> self;
  AccumulateSelfTimes(spans, &self);
  EXPECT_EQ(self["request"].self_ns, 20);
  EXPECT_EQ(self["parse"].self_ns, 20);
  EXPECT_EQ(self["eval"].self_ns, 50);
  EXPECT_EQ(self["sync"].self_ns, 10);
  EXPECT_EQ(self["eval"].calls, 1u);
}

TEST(Trace, SpansNestOnlyWhileBound) {
  TraceBuffer buf;
  { ScopedSpan ignored("before"); }
  buf.BeginRequest(7);
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  TraceBuffer::EndRequest();
  { ScopedSpan ignored("after"); }
  ASSERT_EQ(buf.spans().size(), 2u);
  EXPECT_STREQ(buf.spans()[0].name, "outer");
  EXPECT_EQ(buf.spans()[0].parent, -1);
  EXPECT_EQ(buf.spans()[1].parent, 0);
  EXPECT_EQ(buf.spans()[1].request, 7u);
  EXPECT_LE(buf.spans()[1].end_ns, buf.spans()[0].end_ns);
}

}  // namespace
}  // namespace perfbench
