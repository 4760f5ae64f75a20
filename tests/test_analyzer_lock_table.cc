// Unit tests for gknn_check's lock-table sync: the lock-order pass diffs
// the rank table of src/util/lockdep.h against the one in
// docs/CONCURRENCY.md in both directions. A rank drift, a class missing
// from the doc and a class only the doc lists each produce one finding;
// identical tables produce none, and a header without the table markers
// does not parse.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lock_table.h"
#include "passes.h"

namespace gknn::check {
namespace {

class LockTableSyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gknn_lock_table_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
    lockdep_path_ = (dir_ / "lockdep.h").string();
    doc_path_ = (dir_ / "CONCURRENCY.md").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void Write(const std::string& path, const std::string& text) {
    std::ofstream(path) << text;
  }

  // lockdep.h rows between the table markers.
  void WriteHeader(const std::string& rows) {
    Write(lockdep_path_, "// gknn-lockdep-table-begin\n" + rows +
                             "// gknn-lockdep-table-end\n");
  }

  // Parses both tables and runs the lock-order pass over an otherwise
  // empty program, so every finding comes from the table diff.
  std::vector<Finding> Diff(const std::string& doc_rows) {
    Write(doc_path_, "| Rank | Lockdep class | Lock |\n|---|---|---|\n" +
                         doc_rows);
    Program program;
    std::string error;
    EXPECT_TRUE(ParseLockdepHeader(lockdep_path_, &program.locks, &error))
        << error;
    EXPECT_TRUE(ParseConcurrencyDoc(doc_path_, &program.doc_locks, &error))
        << error;
    std::vector<Finding> findings;
    RunLockOrderPass(&program, lockdep_path_, doc_path_, &findings);
    return findings;
  }

  std::filesystem::path dir_;
  std::string lockdep_path_;
  std::string doc_path_;
};

constexpr char kHeaderRows[] =
    "inline constinit LockClass kServerIndexClass{\"server.index\", 100};\n"
    "inline constinit LockClass kObsRingClass{\"obs.ring\", 910, false, "
    "true};\n";

TEST_F(LockTableSyncTest, IdenticalTablesProduceNoFinding) {
  WriteHeader(kHeaderRows);
  EXPECT_TRUE(Diff("| 100 | `server.index` | `index_mutex_` |\n"
                   "| 910 | `obs.ring` | `ring_mu_` |\n")
                  .empty());
}

TEST_F(LockTableSyncTest, RankDriftIsAFinding) {
  WriteHeader(kHeaderRows);
  const auto findings = Diff("| 100 | `server.index` | `index_mutex_` |\n"
                             "| 911 | `obs.ring` | `ring_mu_` |\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_EQ(findings[0].file, doc_path_);
  EXPECT_NE(findings[0].message.find("'obs.ring' has rank 910"),
            std::string::npos)
      << findings[0].message;
}

TEST_F(LockTableSyncTest, ClassMissingFromDocIsAFinding) {
  WriteHeader(kHeaderRows);
  const auto findings = Diff("| 100 | `server.index` | `index_mutex_` |\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, doc_path_);
  EXPECT_NE(findings[0].message.find("'obs.ring' (rank 910) is in "
                                     "src/util/lockdep.h but missing"),
            std::string::npos)
      << findings[0].message;
}

TEST_F(LockTableSyncTest, DocOnlyClassIsAFinding) {
  WriteHeader(kHeaderRows);
  const auto findings = Diff("| 100 | `server.index` | `index_mutex_` |\n"
                             "| 910 | `obs.ring` | `ring_mu_` |\n"
                             "| 960 | `retired.lock` | `old_mu_` |\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, lockdep_path_);
  EXPECT_NE(findings[0].message.find("'retired.lock' is documented"),
            std::string::npos)
      << findings[0].message;
}

TEST_F(LockTableSyncTest, HeaderWithoutMarkersDoesNotParse) {
  Write(lockdep_path_, kHeaderRows);
  LockTable table;
  std::string error;
  EXPECT_FALSE(ParseLockdepHeader(lockdep_path_, &table, &error));
  EXPECT_NE(error.find("markers not found"), std::string::npos) << error;
}

}  // namespace
}  // namespace gknn::check
