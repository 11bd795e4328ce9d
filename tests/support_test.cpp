// The shared golden check (test::checkGolden) in a temporary directory: an
// equal file passes, and a drifted or missing one fails once, naming the
// first differing line with both versions and the command that regenerates
// the file. Without these, a check that regenerated instead of comparing
// would skip every golden test and never fail.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support.hpp"

namespace kalis {
namespace {

class GoldenFile : public ::testing::Test {
 protected:
  void SetUp() override {
    if (test::regenRequested()) {
      GTEST_SKIP() << "KALIS_REGEN_GOLDEN rewrites files instead of comparing";
    }
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& text) {
    std::ofstream(dir_ / "g.txt", std::ios::binary) << text;
  }

  const std::filesystem::path dir_ = test::tempPath(
      std::string("kalis_golden_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
};

TEST_F(GoldenFile, EqualFilePasses) {
  write("a\nb\n");
  test::checkGolden(dir_, "g.txt", std::vector<std::string>{"a", "b"});
}

TEST_F(GoldenFile, OneLineDriftNamesTheLineBothVersionsAndTheCommand) {
  write("a\nb\nc\n");
  const std::vector<std::string> produced = {"a", "B", "c"};
  EXPECT_NONFATAL_FAILURE(test::checkGolden(dir_, "g.txt", produced),
                          "drifted at line 2:\n  golden:   b\n  produced: B\n");
  EXPECT_NONFATAL_FAILURE(
      test::checkGolden(dir_, "g.txt", produced),
      "regenerate with\n  KALIS_REGEN_GOLDEN=1 ./build/tests/kalis_tests "
      "--gtest_filter="
      "'GoldenFile.OneLineDriftNamesTheLineBothVersionsAndTheCommand'");
}

TEST_F(GoldenFile, FrameDriftPrintsTheFrameRendering) {
  write("# one\nx\nY\n# two\nz\n");
  const std::vector<test::GoldenFrame> frames = {
      test::fullFrame("one", "x\ny\n"), test::fullFrame("two", "z\n")};
  EXPECT_NONFATAL_FAILURE(
      test::checkGolden(dir_, "g.txt", frames),
      "first frames that differ:\n# one\nx\ny\nIf the change is intended");
}

TEST_F(GoldenFile, MissingFileNamesTheCreateCommand) {
  EXPECT_NONFATAL_FAILURE(
      test::checkGolden(dir_, "absent.txt", std::vector<std::string>{"a"}),
      "create it with\n  KALIS_REGEN_GOLDEN=1 ./build/tests/kalis_tests "
      "--gtest_filter='GoldenFile.MissingFileNamesTheCreateCommand'");
}

}  // namespace
}  // namespace kalis
