// Tests for the LogEnv file abstraction and the fault-injection wrapper:
// the real env must round-trip bytes faithfully, and FaultLogEnv must
// model each crash mode exactly (that precision is what the recovery
// matrix in log_recovery_test.cc builds on).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "log/batch_log.h"
#include "log/fault_env.h"
#include "log/log_env.h"

namespace bohm {
namespace {

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bohm_log_env_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(TempDirTest, PosixEnvRoundTrip) {
  LogEnv* env = LogEnv::Default();
  ASSERT_TRUE(env->CreateDirIfMissing(dir_.string()).ok());
  ASSERT_TRUE(env->CreateDirIfMissing(dir_.string()).ok());  // idempotent

  std::unique_ptr<LogWritableFile> f;
  ASSERT_TRUE(env->NewWritableFile(Path("a.seg"), &f).ok());
  ASSERT_TRUE(f->Append("hello ", 6).ok());
  ASSERT_TRUE(f->Append("world", 5).ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());

  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(Path("a.seg"), &contents).ok());
  EXPECT_EQ(contents, "hello world");

  ASSERT_TRUE(env->TruncateFile(Path("a.seg"), 5).ok());
  ASSERT_TRUE(env->ReadFileToString(Path("a.seg"), &contents).ok());
  EXPECT_EQ(contents, "hello");

  std::vector<std::string> names;
  ASSERT_TRUE(env->ListDir(dir_.string(), &names).ok());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "a.seg");
}

TEST_F(TempDirTest, PosixEnvMissingPathsAreNotFound) {
  LogEnv* env = LogEnv::Default();
  std::vector<std::string> names;
  EXPECT_TRUE(env->ListDir(Path("nope"), &names).IsNotFound());
  std::string contents;
  EXPECT_TRUE(env->ReadFileToString(Path("nope.seg"), &contents).IsNotFound());
}

TEST_F(TempDirTest, CrashAfterBytesLeavesExactTornPrefix) {
  FaultLogEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing(dir_.string()).ok());
  std::unique_ptr<LogWritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(Path("a.seg"), &f).ok());

  env.CrashAfterBytes(10);
  ASSERT_TRUE(f->Append("0123456", 7).ok());   // within budget
  ASSERT_TRUE(f->Append("789abcd", 7).ok());   // cut at 3 bytes, crash
  EXPECT_TRUE(env.crashed());
  ASSERT_TRUE(f->Append("zzzz", 4).ok());      // lying success, dropped
  ASSERT_TRUE(f->Sync().ok());                 // lying success
  ASSERT_TRUE(f->Close().ok());

  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(Path("a.seg"), &contents).ok());
  EXPECT_EQ(contents, "0123456789");  // exactly the 10-byte budget
}

TEST_F(TempDirTest, CrashAtSyncDropsUnsyncedBytes) {
  FaultLogEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing(dir_.string()).ok());
  std::unique_ptr<LogWritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(Path("a.seg"), &f).ok());

  env.CrashAtSync(2);
  ASSERT_TRUE(f->Append("first.", 6).ok());
  ASSERT_TRUE(f->Sync().ok());  // sync #1 persists "first."
  ASSERT_TRUE(f->Append("second.", 7).ok());
  ASSERT_TRUE(f->Sync().ok());  // sync #2 crashes: "second." vanishes
  EXPECT_TRUE(env.crashed());
  ASSERT_TRUE(f->Append("third.", 6).ok());  // dropped
  ASSERT_TRUE(f->Close().ok());

  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(Path("a.seg"), &contents).ok());
  EXPECT_EQ(contents, "first.");
}

TEST_F(TempDirTest, CleanCloseFlushesUnsyncedBytes) {
  FaultLogEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing(dir_.string()).ok());
  std::unique_ptr<LogWritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(Path("a.seg"), &f).ok());
  ASSERT_TRUE(f->Append("unsynced", 8).ok());
  ASSERT_TRUE(f->Close().ok());  // clean shutdown persists
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(Path("a.seg"), &contents).ok());
  EXPECT_EQ(contents, "unsynced");
}

TEST_F(TempDirTest, FailWritesAfterBytesIsHonest) {
  FaultLogEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing(dir_.string()).ok());
  std::unique_ptr<LogWritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(Path("a.seg"), &f).ok());

  env.FailWritesAfterBytes(4);
  ASSERT_TRUE(f->Append("okok", 4).ok());
  Status st = f->Append("more", 4);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_FALSE(env.crashed());  // an honest error is not a crash
}

TEST_F(TempDirTest, FlipByteCorruptsExactlyOneByte) {
  FaultLogEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing(dir_.string()).ok());
  std::unique_ptr<LogWritableFile> f;
  ASSERT_TRUE(env.NewWritableFile(Path("a.seg"), &f).ok());
  ASSERT_TRUE(f->Append("abcdef", 6).ok());
  ASSERT_TRUE(f->Close().ok());

  ASSERT_TRUE(env.FlipByte(Path("a.seg"), 2, 0x01).ok());
  std::string contents;
  ASSERT_TRUE(env.ReadFileToString(Path("a.seg"), &contents).ok());
  EXPECT_EQ(contents, "abbdef");  // 'c' ^ 0x01 == 'b'
  EXPECT_TRUE(env.FlipByte(Path("a.seg"), 99, 0x01).IsInvalidArgument());
}

TEST_F(TempDirTest, BatchLogRotatesSegmentsAndStaysReadable) {
  LogEnv* env = LogEnv::Default();
  // Tiny segment budget: every record after the first in a segment
  // triggers rotation, so three appends span at least two files.
  BatchLog log(dir_.string(), env, /*segment_bytes=*/8, /*sync_every=*/8);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.Append(1, "one").ok());
  ASSERT_TRUE(log.Append(2, "two").ok());
  ASSERT_TRUE(log.Append(3, "three").ok());
  // Three records stay below the cadence: only the idle sync makes them
  // durable.
  EXPECT_EQ(log.durable_seqno(), 0u);
  ASSERT_TRUE(log.SyncIfUnsynced().ok());
  EXPECT_EQ(log.durable_seqno(), 3u);
  ASSERT_TRUE(log.Close().ok());
  EXPECT_EQ(log.records(), 3u);
  EXPECT_GE(log.fsyncs(), 1u);

  std::vector<std::string> names;
  ASSERT_TRUE(env->ListDir(dir_.string(), &names).ok());
  EXPECT_GE(names.size(), 2u);
  for (const std::string& name : names) {
    uint64_t first = 0;
    EXPECT_TRUE(ParseSegmentFileName(name, &first)) << name;
  }
}

}  // namespace
}  // namespace bohm
