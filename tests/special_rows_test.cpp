#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "base/error.hpp"
#include "core/special_rows.hpp"

namespace mgpusw {
namespace {

/// Fresh spill directory under the gtest temp root.
std::string make_spill_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "srw_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SpecialRowsTest, SaveAndAssembleSingleSegment) {
  core::SpecialRowStore store;
  store.save_segment(63, 0, {1, 2, 3, 4});
  const auto row = store.assemble_row(63, 4);
  EXPECT_EQ(row, (std::vector<sw::Score>{1, 2, 3, 4}));
}

TEST(SpecialRowsTest, SegmentsStitchInAnyOrder) {
  core::SpecialRowStore store;
  store.save_segment(10, 3, {30, 40});
  store.save_segment(10, 0, {0, 10, 20});
  store.save_segment(10, 5, {50});
  const auto row = store.assemble_row(10, 6);
  EXPECT_EQ(row, (std::vector<sw::Score>{0, 10, 20, 30, 40, 50}));
}

TEST(SpecialRowsTest, RowsSortedAndBytesTracked) {
  core::SpecialRowStore store;
  store.save_segment(7, 0, {1});
  store.save_segment(3, 0, {1, 2});
  EXPECT_EQ(store.rows(), (std::vector<std::int64_t>{3, 7}));
  EXPECT_EQ(store.bytes(),
            static_cast<std::int64_t>(3 * sizeof(sw::Score)));
  store.clear();
  EXPECT_TRUE(store.rows().empty());
  EXPECT_EQ(store.bytes(), 0);
}

TEST(SpecialRowsTest, GapDetected) {
  core::SpecialRowStore store;
  store.save_segment(5, 0, {1, 2});
  store.save_segment(5, 3, {4});  // column 2 missing
  EXPECT_THROW(store.assemble_row(5, 4), InternalError);
}

TEST(SpecialRowsTest, WrongTotalDetected) {
  core::SpecialRowStore store;
  store.save_segment(5, 0, {1, 2});
  EXPECT_THROW(store.assemble_row(5, 3), InternalError);
}

TEST(SpecialRowsTest, MissingRowDetected) {
  core::SpecialRowStore store;
  EXPECT_THROW(store.assemble_row(1, 1), InternalError);
}

TEST(SpecialRowsTest, ConcurrentSavesSafe) {
  core::SpecialRowStore store;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int row = 0; row < 50; ++row) {
        store.save_segment(row, t * 10,
                           std::vector<sw::Score>(10, static_cast<sw::Score>(t)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int row = 0; row < 50; ++row) {
    const auto assembled = store.assemble_row(row, 40);
    EXPECT_EQ(assembled.size(), 40u);
  }
}

TEST(SpecialRowsDiskTest, RoundTripsWithChecksums) {
  core::SpecialRowStore store(make_spill_dir("roundtrip"));
  store.save_segment(15, 0, {1, 2, 3}, {-9, -9, -9});
  store.save_segment(15, 3, {4, 5}, {-9, -9});
  EXPECT_EQ(store.assemble_row(15, 5),
            (std::vector<sw::Score>{1, 2, 3, 4, 5}));
  EXPECT_EQ(store.assemble_row_f(15, 5),
            (std::vector<sw::Score>{-9, -9, -9, -9, -9}));
}

TEST(SpecialRowsDiskTest, CorruptPayloadFailsLoudly) {
  const std::string dir = make_spill_dir("corrupt");
  core::SpecialRowStore store(dir);
  store.save_segment(31, 0, {10, 20, 30, 40}, {-1, -1, -1, -1});

  // Flip one payload byte behind the store's back; the next read must
  // detect it via the record CRC instead of feeding garbage to a resume.
  const std::string path = dir + "/row_31.srw";
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(32);  // first H byte, just past the record header
    const char evil = 0x5a;
    file.write(&evil, 1);
  }
  try {
    (void)store.assemble_row(31, 4);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
  }
}

TEST(SpecialRowsDiskTest, TruncatedRecordFailsLoudly) {
  const std::string dir = make_spill_dir("truncated");
  core::SpecialRowStore store(dir);
  store.save_segment(63, 0, {1, 2, 3, 4, 5, 6, 7, 8});
  const std::string path = dir + "/row_63.srw";
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 4);
  EXPECT_THROW((void)store.assemble_row(63, 8), IoError);
}

TEST(SpecialRowsDiskTest, OversizedCountIsRejectedBeforeAllocating) {
  const std::string dir = make_spill_dir("oversized");
  core::SpecialRowStore store(dir);
  store.save_segment(31, 0, {1, 2}, {-1, -1});
  store.save_segment(63, 0, {3, 4}, {-2, -2});
  // Rewrite row 63's count (the header's second field) to 2^40 values,
  // 4 TiB per payload: far more than the file holds, so every reader
  // must reject the record without allocating for it.
  const std::string path = dir + "/row_63.srw";
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(sizeof(std::int64_t));
    const std::int64_t count = std::int64_t{1} << 40;
    file.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  EXPECT_THROW((void)store.assemble_row(63, 2), IoError);
  EXPECT_EQ(store.last_restartable_row(2), 31);

  core::SpecialRowStore revived(dir);
  const auto report = revived.recover_existing();
  EXPECT_EQ(report.rows, 1);
  EXPECT_GT(report.truncated_bytes, 0);
  EXPECT_EQ(revived.rows(), (std::vector<std::int64_t>{31}));
  EXPECT_FALSE(std::filesystem::exists(path));  // no intact record left
}

TEST(SpecialRowsTest, LastRestartableRowPicksNewestIntactCheckpoint) {
  core::SpecialRowStore store;
  store.save_segment(31, 0, {1, 2, 3, 4}, {-1, -1, -1, -1});
  store.save_segment(63, 0, {5, 6, 7, 8}, {-2, -2, -2, -2});
  // Row 95 is incomplete: the run died while device 1 was still saving.
  store.save_segment(95, 0, {9, 10}, {-3, -3});
  EXPECT_EQ(store.last_restartable_row(4), 63);
}

TEST(SpecialRowsTest, LastRestartableRowRequiresFData) {
  core::SpecialRowStore store;
  store.save_segment(31, 0, {1, 2}, {-1, -1});
  store.save_segment(63, 0, {3, 4});  // H only: alignment row, no restart
  EXPECT_EQ(store.last_restartable_row(2), 31);
}

TEST(SpecialRowsTest, LastRestartableRowRespectsLimit) {
  core::SpecialRowStore store;
  store.save_segment(31, 0, {1, 2}, {-1, -1});
  store.save_segment(63, 0, {3, 4}, {-2, -2});
  EXPECT_EQ(store.last_restartable_row(2), 63);
  EXPECT_EQ(store.last_restartable_row(2, 63), 31);
  EXPECT_EQ(store.last_restartable_row(2, 31), -1);
}

TEST(SpecialRowsTest, LastRestartableRowEmptyStoreIsMinusOne) {
  core::SpecialRowStore store;
  EXPECT_EQ(store.last_restartable_row(4), -1);
}

TEST(SpecialRowsDiskTest, LastRestartableRowSkipsCorruptRows) {
  const std::string dir = make_spill_dir("skip_corrupt");
  core::SpecialRowStore store(dir);
  store.save_segment(31, 0, {1, 2}, {-1, -1});
  store.save_segment(63, 0, {3, 4}, {-2, -2});
  {
    std::fstream file(dir + "/row_63.srw",
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(32);
    const char evil = 0x7f;
    file.write(&evil, 1);
  }
  // The newest checkpoint fails its CRC; recovery falls back to row 31.
  EXPECT_EQ(store.last_restartable_row(2), 31);
}

// --- recover_existing: reviving another process's spill files --------------

TEST(SpecialRowsDiskTest, RecoverExistingRevivesIntactRows) {
  const std::string dir = make_spill_dir("recover_intact");
  {
    core::SpecialRowStore store(dir);
    store.save_segment(31, 0, {1, 2, 3}, {-1, -1, -1});
    store.save_segment(63, 0, {4, 5}, {-2, -2});
    store.save_segment(63, 2, {6}, {-2});
  }  // the writing process "dies"; the files stay behind
  core::SpecialRowStore revived(dir);
  const auto report = revived.recover_existing();
  EXPECT_EQ(report.rows, 2);
  EXPECT_EQ(report.truncated_bytes, 0);
  EXPECT_EQ(revived.rows(), (std::vector<std::int64_t>{31, 63}));
  EXPECT_EQ(revived.assemble_row(63, 3),
            (std::vector<sw::Score>{4, 5, 6}));
  EXPECT_EQ(revived.last_restartable_row(3), 63);
}

TEST(SpecialRowsDiskTest, RecoverExistingTruncatesCorruptTail) {
  const std::string dir = make_spill_dir("recover_torn");
  {
    core::SpecialRowStore store(dir);
    store.save_segment(31, 0, {1, 2}, {-1, -1});
    store.save_segment(63, 0, {3, 4}, {-2, -2});
  }
  // Tear the newest row file mid-record, as a crash mid-write would.
  const std::string path = dir + "/row_63.srw";
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 5);
  core::SpecialRowStore revived(dir);
  const auto report = revived.recover_existing();
  EXPECT_GT(report.truncated_bytes, 0);
  // Row 31 survives untouched; the torn row 63 lost its only record,
  // so it no longer qualifies as a checkpoint.
  EXPECT_EQ(revived.last_restartable_row(2), 31);
}

TEST(SpecialRowsDiskTest, RecoverExistingOnFreshDirIsEmpty) {
  core::SpecialRowStore store(make_spill_dir("recover_fresh"));
  const auto report = store.recover_existing();
  EXPECT_EQ(report.rows, 0);
  EXPECT_EQ(report.segments, 0);
  EXPECT_EQ(report.truncated_bytes, 0);
  EXPECT_TRUE(store.rows().empty());
}

}  // namespace
}  // namespace mgpusw
