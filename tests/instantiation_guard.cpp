// CI instantiation guard: force every proposal executor template through
// every (DType, OpTag) cell of the dispatch matrix, and through the
// packed segmented representation, in one TU. Ordinary TUs never
// instantiate the full matrix (the factory table lives only in
// executor.cpp), so a member function that fails to compile for, say,
// (float, Min) could otherwise hide until a caller first touches that
// cell. Explicit instantiation definitions instantiate *all* members.
//
// The static_assert mirrors executor.cpp's: the factory table must be
// dense, so adding a DType or OpTag enumerator without extending the rows
// breaks this build instead of null-dispatching at runtime.
//
// Runtime behavior is a smoke check only: one erased construction per
// proposal name proves the table dispatches.

#include <cstdint>
#include <cstdio>

#include "mgs/core/executor_impl.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/segmented_context.hpp"
#include "mgs/topo/topology.hpp"

// ---- the full proposal x dtype x op matrix, all members ----------------

#define MGS_GUARD_OPS(EXEC, T)                         \
  template class mgs::core::EXEC<T, mgs::core::Plus<T>>; \
  template class mgs::core::EXEC<T, mgs::core::Max<T>>;  \
  template class mgs::core::EXEC<T, mgs::core::Min<T>>;

#define MGS_GUARD_MATRIX(EXEC)       \
  MGS_GUARD_OPS(EXEC, std::int32_t)  \
  MGS_GUARD_OPS(EXEC, std::int64_t)  \
  MGS_GUARD_OPS(EXEC, std::uint32_t) \
  MGS_GUARD_OPS(EXEC, float)         \
  MGS_GUARD_OPS(EXEC, double)

// The shared protocol base, then the proposals. MpsExecutorT serves both
// Scan-MPS and Scan-MPS-direct; four class templates cover the five
// registry names.
MGS_GUARD_MATRIX(TypedScanExecutor)
MGS_GUARD_MATRIX(detail::SpExecutorT)
MGS_GUARD_MATRIX(detail::MpsExecutorT)
MGS_GUARD_MATRIX(detail::MppcExecutorT)
MGS_GUARD_MATRIX(detail::MultinodeExecutorT)

// ---- the packed segmented path (outside the erased matrix) -------------

template class mgs::core::SegmentedScan<double>;
template class mgs::core::SegmentedScan<std::int64_t,
                                        mgs::core::Max<std::int64_t>>;
template class mgs::core::detail::SpExecutorT<
    mgs::core::SegPair<float>,
    mgs::core::SegOp<float, mgs::core::Plus<float>>>;
template class mgs::core::detail::MpsExecutorT<
    mgs::core::SegPair<std::int32_t>,
    mgs::core::SegOp<std::int32_t, mgs::core::Min<std::int32_t>>>;

// ---- table density ------------------------------------------------------

namespace mgs::core::detail {

constexpr FactoryTable kGuardTable = make_table();

static_assert(table_is_dense(kGuardTable),
              "executor factory table has an unfilled (dtype, op) cell");

}  // namespace mgs::core::detail

int main() {
  namespace mc = mgs::core;
  auto cluster = mgs::topo::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  int built = 0;
  for (const auto& info : mc::all_executors()) {
    for (const auto dtype : {mc::DType::kI32, mc::DType::kF64}) {
      for (const auto op : {mc::OpTag::kPlus, mc::OpTag::kMax}) {
        mc::ExecutorParams p;
        p.dtype = dtype;
        p.op = op;
        auto ex = mc::make_executor(info.name, ctx, p);
        if (ex->dtype() != dtype || ex->op() != op) {
          std::fprintf(stderr, "guard: %s dispatched the wrong cell\n",
                       info.name.c_str());
          return 1;
        }
        ++built;
      }
    }
  }
  std::printf("instantiation guard: %d erased constructions dispatched, "
              "factory table dense\n",
              built);
  return 0;
}
