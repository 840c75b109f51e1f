// Checkpoint/restart tests: stage 1 resumed from a saved (H, F) row must
// complete exactly as if it had never been interrupted.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <unistd.h>

#include "base/error.hpp"
#include "core/engine.hpp"
#include "core/special_rows.hpp"
#include "sw/kernel.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::EngineConfig;
using core::MultiDeviceEngine;
using core::SpecialRowStore;

EngineConfig checkpointing_config(SpecialRowStore* store) {
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.special_row_interval = 2;  // checkpoint every 64 rows
  config.special_rows = store;
  config.checkpoint_f = true;
  return config;
}

/// Best over the matrix prefix of rows [0, last_row] — what an
/// interrupted run would have recorded before dying.
sw::ScoreResult prefix_best(const seq::Sequence& query,
                            const seq::Sequence& subject,
                            std::int64_t last_row) {
  return sw::linear_score(sw::ScoreScheme{},
                          query.subsequence(0, last_row + 1), subject);
}

class ResumeProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ResumeProperty, PrefixPlusResumeEqualsFullRun) {
  const auto [device_count, seed] = GetParam();
  auto [a, b] = testutil::related_pair(
      320 + seed * 16, static_cast<std::uint64_t>(seed) + 130);

  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::vector<vgpu::Device*> pointers;
  for (int d = 0; d < device_count; ++d) {
    devices.push_back(std::make_unique<vgpu::Device>(
        vgpu::toy_device(10.0 + 3.0 * d)));
    pointers.push_back(devices.back().get());
  }

  SpecialRowStore store;
  MultiDeviceEngine engine(checkpointing_config(&store), pointers);
  const auto full = engine.run(a, b);

  const auto checkpoints = store.rows();
  ASSERT_GE(checkpoints.size(), 2u);
  // Resume from every checkpoint except ones at the very end of the
  // matrix (nothing left to compute).
  for (const std::int64_t row : checkpoints) {
    if (row + 1 >= a.size()) continue;
    const auto resumed = engine.resume(a, b, store, row);
    EXPECT_EQ(resumed.matrix_cells, (a.size() - row - 1) * b.size());

    sw::ScoreResult combined = prefix_best(a, b, row);
    if (sw::improves(resumed.best, combined)) combined = resumed.best;
    EXPECT_EQ(combined, full.best)
        << "resume from row " << row << " (seed " << seed << ", "
        << device_count << " devices)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSeeds, ResumeProperty,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Range(0, 3)));

TEST(ResumeTest, BestInResumedRegionIsFound) {
  // Self-comparison: the global best sits at the bottom-right corner,
  // inside every resumed region.
  const seq::Sequence s = testutil::random_sequence(512, 140);
  vgpu::Device device(vgpu::toy_device(10.0));
  SpecialRowStore store;
  MultiDeviceEngine engine(checkpointing_config(&store), {&device});
  const auto full = engine.run(s, s);
  EXPECT_EQ(full.best.score, 512);

  const auto resumed = engine.resume(s, s, store, 255);
  EXPECT_EQ(resumed.best, full.best);  // corner lies after row 255
}

TEST(ResumeTest, WorksWithDiskSpilledCheckpoints) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mgpusw_resume_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    auto [a, b] = testutil::related_pair(320, 141);
    vgpu::Device d0(vgpu::toy_device(10.0));
    vgpu::Device d1(vgpu::toy_device(15.0));
    SpecialRowStore store(dir.string());
    MultiDeviceEngine engine(checkpointing_config(&store), {&d0, &d1});
    const auto full = engine.run(a, b);

    const auto resumed = engine.resume(a, b, store, 63);
    sw::ScoreResult combined = prefix_best(a, b, 63);
    if (sw::improves(resumed.best, combined)) combined = resumed.best;
    EXPECT_EQ(combined, full.best);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ResumeTest, RejectsMisalignedRow) {
  auto [a, b] = testutil::related_pair(320, 142);
  vgpu::Device device(vgpu::toy_device(10.0));
  SpecialRowStore store;
  MultiDeviceEngine engine(checkpointing_config(&store), {&device});
  (void)engine.run(a, b);
  EXPECT_THROW((void)engine.resume(a, b, store, 100), InvalidArgument);
}

TEST(ResumeTest, RejectsCheckpointAtMatrixEnd) {
  const seq::Sequence s = testutil::random_sequence(320, 143);
  vgpu::Device device(vgpu::toy_device(10.0));
  SpecialRowStore store;
  MultiDeviceEngine engine(checkpointing_config(&store), {&device});
  (void)engine.run(s, s);
  EXPECT_THROW((void)engine.resume(s, s, store, 319), InvalidArgument);
}

TEST(ResumeTest, RejectsRowsSavedWithoutF) {
  auto [a, b] = testutil::related_pair(320, 144);
  vgpu::Device device(vgpu::toy_device(10.0));
  SpecialRowStore store;
  EngineConfig config = checkpointing_config(&store);
  config.checkpoint_f = false;  // retrieval-only special rows
  MultiDeviceEngine engine(config, {&device});
  (void)engine.run(a, b);
  EXPECT_THROW((void)engine.resume(a, b, store, 63), InternalError);
}

// Every registered kernel: a resumed run must merge to the same best as
// the uninterrupted run, bit for bit. Covers the scalar, SSE4.2, AVX2
// and AVX-512 SIMD backends wherever the host can run them.
class ResumeKernelSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ResumeKernelSweep, ResumeMatchesFullRunBitExactly) {
  const std::string& kernel = GetParam();
  auto [a, b] = testutil::related_pair(288, 146);
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(17.0));
  SpecialRowStore store;
  EngineConfig config = checkpointing_config(&store);
  config.kernel = kernel;
  MultiDeviceEngine engine(config, {&d0, &d1});
  const auto full = engine.run(a, b);
  EXPECT_EQ(full.best, sw::linear_score(sw::ScoreScheme{}, a, b));

  const auto checkpoints = store.rows();
  ASSERT_GE(checkpoints.size(), 2u);
  for (const std::int64_t row : checkpoints) {
    if (row + 1 >= a.size()) continue;
    const auto resumed = engine.resume(a, b, store, row);
    sw::ScoreResult combined = prefix_best(a, b, row);
    if (sw::improves(resumed.best, combined)) combined = resumed.best;
    EXPECT_EQ(combined, full.best)
        << "kernel " << kernel << ", resume from row " << row;
  }
}

std::vector<std::string> registered_kernel_names() {
  std::vector<std::string> names;
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    names.push_back(info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ResumeKernelSweep,
    ::testing::ValuesIn(registered_kernel_names()), [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mgpusw
