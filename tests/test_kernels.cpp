// Direct unit tests of the three kernels (core/kernels.hpp): auxiliary
// array contents after Stage 1, in-place exclusive row scans in Stage 2
// (both layouts), carry application in Stage 3, and the single-kernel
// direct path. These pin down the stage contracts the proposals rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/kernels.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace st = mgs::simt;
using mgs::core::Plus;
using mgs::core::ScanKind;

namespace {

st::Device make_device() { return st::Device(0, mgs::sim::k80_spec()); }

mc::ScanPlan paper_plan(int k) {
  auto plan = mc::derive_spl(mgs::sim::k80_spec(), 4).plan;
  plan.s13.k = k;
  return plan;
}

}  // namespace

TEST(ChunkReduce, AuxHoldsPerChunkTotals) {
  auto dev = make_device();
  const auto plan = paper_plan(2);
  const std::int64_t n = 3 * plan.s13.chunk() + 100;  // partial last chunk
  const std::int64_t g = 2;
  const auto lay = mc::make_layout(n, g, plan.s13);
  EXPECT_EQ(lay.bx, 4);

  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 1);
  auto in = dev.alloc<int>(n * g);
  auto aux = dev.alloc<int>(lay.aux_elems());
  std::copy(data.begin(), data.end(), in.host_span().begin());

  const auto t = mc::launch_chunk_reduce(dev, in, aux, lay, plan.s13,
                                         Plus<int>{});
  EXPECT_GT(t.seconds, 0.0);
  for (std::int64_t p = 0; p < g; ++p) {
    for (std::int64_t c = 0; c < lay.bx; ++c) {
      const std::int64_t lo = p * n + c * lay.chunk;
      const std::int64_t hi = p * n + std::min(n, (c + 1) * lay.chunk);
      const int want = std::accumulate(
          data.begin() + static_cast<std::ptrdiff_t>(lo),
          data.begin() + static_cast<std::ptrdiff_t>(hi), 0);
      ASSERT_EQ(aux.host_span()[static_cast<std::size_t>(p * lay.bx + c)],
                want)
          << "p=" << p << " c=" << c;
    }
  }
}

TEST(ChunkReduce, InputUntouched) {
  // Stage 1 is reduce-only: "the remaining elements are not modified".
  auto dev = make_device();
  const auto plan = paper_plan(1);
  const std::int64_t n = 5000;
  const auto lay = mc::make_layout(n, 1, plan.s13);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 2);
  auto in = dev.alloc<int>(n);
  auto aux = dev.alloc<int>(lay.aux_elems());
  std::copy(data.begin(), data.end(), in.host_span().begin());
  mc::launch_chunk_reduce(dev, in, aux, lay, plan.s13, Plus<int>{});
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(in.host_span()[i], data[i]);
  }
}

TEST(IntermediateScan, ExclusiveRowsInPlace) {
  auto dev = make_device();
  const auto plan = paper_plan(1);
  const std::int64_t rows = 7, len = 45;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(rows * len), 3);
  auto aux = dev.alloc<int>(rows * len);
  std::copy(data.begin(), data.end(), aux.host_span().begin());

  mc::launch_intermediate_scan(dev, aux, len, rows, plan.s2, Plus<int>{});
  for (std::int64_t r = 0; r < rows; ++r) {
    int acc = 0;
    for (std::int64_t i = 0; i < len; ++i) {
      ASSERT_EQ(aux.host_span()[static_cast<std::size_t>(r * len + i)], acc)
          << "r=" << r << " i=" << i;
      acc += data[static_cast<std::size_t>(r * len + i)];
    }
  }

  // Same input in uneven column chunks and two row slices, chunks of a row
  // in ascending order with the running carry: the full-row output.
  auto chunked = dev.alloc<int>(rows * len);
  auto carry = dev.alloc<int>(rows);
  std::copy(data.begin(), data.end(), chunked.host_span().begin());
  for (const auto& [g0, gn] : {std::pair<std::int64_t, std::int64_t>{0, 3},
                               {3, rows - 3}}) {
    for (std::int64_t c0 = 0; c0 < len; c0 += 13) {
      mc::launch_intermediate_scan(dev, chunked, len, rows, plan.s2,
                                   Plus<int>{}, g0, gn, c0,
                                   std::min<std::int64_t>(13, len - c0),
                                   &carry);
    }
  }
  EXPECT_TRUE(std::equal(chunked.host_span().begin(),
                         chunked.host_span().end(), aux.host_span().begin()));
}

TEST(IntermediateScanRanked, MatchesLogicalRowScan) {
  // Rank-major layout [rank][row][c]: the strided kernel must scan the
  // logical row (rank-major chunk order) exclusively.
  auto dev = make_device();
  const auto plan = paper_plan(1);
  const std::int64_t ranks = 4, rows = 3, bx = 5;
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(ranks * rows * bx), 4);
  auto aux = dev.alloc<int>(ranks * rows * bx);
  std::copy(data.begin(), data.end(), aux.host_span().begin());

  mc::launch_intermediate_scan_ranked(dev, aux, bx, ranks, rows, plan.s2,
                                      Plus<int>{});
  for (std::int64_t row = 0; row < rows; ++row) {
    int acc = 0;
    for (std::int64_t i = 0; i < ranks * bx; ++i) {
      const std::int64_t off = (i / bx) * (rows * bx) + row * bx + (i % bx);
      ASSERT_EQ(aux.host_span()[static_cast<std::size_t>(off)], acc)
          << "row=" << row << " i=" << i;
      acc += data[static_cast<std::size_t>(off)];
    }
  }

  // One column chunk per rank (the pipelined multinode cell), in rank
  // order with the running carry: the full-row output.
  auto chunked = dev.alloc<int>(ranks * rows * bx);
  auto carry = dev.alloc<int>(rows);
  std::copy(data.begin(), data.end(), chunked.host_span().begin());
  for (std::int64_t r = 0; r < ranks; ++r) {
    mc::launch_intermediate_scan_ranked(dev, chunked, bx, ranks, rows,
                                        plan.s2, Plus<int>{}, 0, rows, r * bx,
                                        bx, &carry);
  }
  EXPECT_TRUE(std::equal(chunked.host_span().begin(),
                         chunked.host_span().end(), aux.host_span().begin()));
}

TEST(IntermediateScanRanked, StridedAccessesCostMore) {
  auto dev1 = make_device();
  auto dev2 = make_device();
  const auto plan = paper_plan(1);
  const std::int64_t rows = 64, len = 1024;
  auto a = dev1.alloc<int>(rows * len);
  auto b = dev2.alloc<int>(rows * len);
  const auto t_contig =
      mc::launch_intermediate_scan(dev1, a, len, rows, plan.s2, Plus<int>{});
  const auto t_ranked = mc::launch_intermediate_scan_ranked(
      dev2, b, len / 8, 8, rows, plan.s2, Plus<int>{});
  EXPECT_GT(t_ranked.seconds, t_contig.seconds);
  EXPECT_LT(t_ranked.coalescing, t_contig.coalescing);
}

TEST(ScanAdd, AppliesAuxCarryPerChunk) {
  auto dev = make_device();
  const auto plan = paper_plan(1);
  const std::int64_t n = 2 * plan.s13.chunk();
  const auto lay = mc::make_layout(n, 1, plan.s13);
  ASSERT_EQ(lay.bx, 2);

  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  auto aux = dev.alloc<int>(lay.aux_elems());
  for (auto& x : in.host_span()) x = 1;
  // Pretend Stage 2 produced carries 0 and 5000 (not the true prefix, to
  // prove Stage 3 uses exactly what the aux array says).
  aux.host_span()[0] = 0;
  aux.host_span()[1] = 5000;

  mc::launch_scan_add(dev, in, out, aux, lay, plan.s13,
                      ScanKind::kInclusive, Plus<int>{});
  EXPECT_EQ(out.host_span()[0], 1);
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(lay.chunk - 1)],
            static_cast<int>(lay.chunk));
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(lay.chunk)], 5001);
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(n - 1)],
            5000 + static_cast<int>(lay.chunk));
}

TEST(DirectScan, SingleChunkFastPath) {
  auto dev = make_device();
  const auto plan = paper_plan(4);
  const std::int64_t n = plan.s13.chunk() - 37;
  const std::int64_t g = 3;
  const auto lay = mc::make_layout(n, g, plan.s13);
  ASSERT_EQ(lay.bx, 1);

  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 5);
  auto in = dev.alloc<int>(n * g);
  auto out = dev.alloc<int>(n * g);
  std::copy(data.begin(), data.end(), in.host_span().begin());
  mc::launch_direct_scan(dev, in, out, lay, plan.s13, ScanKind::kExclusive,
                         Plus<int>{});
  const auto want = mgs::baselines::reference_batch_scan<int>(
      data, n, g, ScanKind::kExclusive);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out.host_span()[i], want[i]);
  }
}

TEST(Kernels, Stage1And3UseSameGridAndResources) {
  // Section 3.1: B_x^1 = B_x^3, same SM resources.
  auto dev = make_device();
  const auto plan = paper_plan(2);
  const std::int64_t n = 1 << 20;  // large enough that launch overhead
                                   // does not mask the traffic ratio
  const auto lay = mc::make_layout(n, 2, plan.s13);
  auto in = dev.alloc<int>(n * 2);
  auto out = dev.alloc<int>(n * 2);
  auto aux = dev.alloc<int>(lay.aux_elems());
  const auto t1 = mc::launch_chunk_reduce(dev, in, aux, lay, plan.s13,
                                          Plus<int>{});
  const auto t3 = mc::launch_scan_add(dev, in, out, aux, lay, plan.s13,
                                      ScanKind::kInclusive, Plus<int>{});
  EXPECT_EQ(t1.occ.blocks_per_sm, t3.occ.blocks_per_sm);
  EXPECT_DOUBLE_EQ(t1.occ.warp_occupancy, t3.occ.warp_occupancy);
  // Stage 3 moves ~2x the data of Stage 1 (writes the scan back).
  EXPECT_GT(t3.seconds, 1.5 * t1.seconds);
}

TEST(Kernels, SizeValidation) {
  auto dev = make_device();
  const auto plan = paper_plan(1);
  const auto lay = mc::make_layout(1 << 14, 1, plan.s13);
  auto small = dev.alloc<int>(16);
  auto aux = dev.alloc<int>(lay.aux_elems());
  EXPECT_DEATH(mc::launch_chunk_reduce(dev, small, aux, lay, plan.s13,
                                       Plus<int>{}),
               "too small");
}
