#pragma once
/// \file workspace.hpp
/// Per-device workspace pooling for the scan proposals. Every proposal
/// needs transient device buffers (auxiliary chunk-total arrays, the
/// master's combined array, and each run's staging: one buffer per placed
/// device, scanned in place); allocating them with `dev.alloc` on every
/// invocation is wasteful under repeated traffic. A WorkspacePool keeps
/// released buffers on a per-(type, device) free list and hands them back
/// to later acquisitions of the same or smaller size, so steady-state
/// runs allocate nothing and executors on the same devices share staging.
///
/// Pooling is a host-side optimization only: simulated device time never
/// includes allocation, so modeled results are bit-identical with and
/// without a pool. All proposal entry points accept an optional
/// `WorkspacePool*`; passing nullptr preserves the legacy alloc-per-call
/// behaviour.

#include <any>
#include <cstdint>
#include <map>
#include <typeindex>
#include <utility>
#include <vector>

#include "mgs/simt/device.hpp"

namespace mgs::core {

/// Reuse pool for DeviceBuffers, keyed by element type and device.
/// Single-threaded, like the rest of the host-side orchestration.
class WorkspacePool {
 public:
  /// RAII lease of a pooled buffer: returns the buffer to the pool on
  /// destruction (or simply drops it when detached from a pool, which is
  /// how the nullptr-pool compatibility path works). Converts implicitly
  /// to DeviceBuffer<T>& so leased buffers slot into the existing kernel
  /// launchers unchanged.
  template <typename T>
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept { *this = std::move(o); }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        buf_ = std::move(o.buf_);
        o.pool_ = nullptr;
        o.buf_ = simt::DeviceBuffer<T>{};
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    bool valid() const { return buf_.valid(); }
    std::int64_t size() const { return buf_.size(); }
    simt::DeviceBuffer<T>& buffer() { return buf_; }
    const simt::DeviceBuffer<T>& buffer() const { return buf_; }
    operator simt::DeviceBuffer<T>&() { return buf_; }
    operator const simt::DeviceBuffer<T>&() const { return buf_; }
    simt::GlobalView<T> view() const { return buf_.view(); }
    std::span<T> host_span() { return buf_.host_span(); }
    std::span<const T> host_span() const { return buf_.host_span(); }

    /// Return the buffer to its pool now (no-op when empty/detached).
    void release() {
      if (pool_ != nullptr && buf_.valid()) pool_->put_back<T>(buf_);
      pool_ = nullptr;
      buf_ = simt::DeviceBuffer<T>{};
    }

   private:
    friend class WorkspacePool;
    Handle(WorkspacePool* pool, simt::DeviceBuffer<T> buf)
        : pool_(pool), buf_(std::move(buf)) {}

    WorkspacePool* pool_ = nullptr;
    simt::DeviceBuffer<T> buf_;
  };

  /// Lease a buffer of at least `elems` elements on `dev`: the smallest
  /// sufficient pooled buffer when one exists, a fresh device allocation
  /// otherwise. Deterministic (best-fit over an ordered free list).
  template <typename T>
  Handle<T> acquire(simt::Device& dev, std::int64_t elems) {
    MGS_REQUIRE(elems >= 0, "WorkspacePool::acquire: negative size");
    auto& list = free_[std::type_index(typeid(T))];
    int best = -1;
    for (int i = 0; i < static_cast<int>(list.size()); ++i) {
      const Entry& e = list[static_cast<std::size_t>(i)];
      if (e.device_id != dev.id() || e.elems < elems) continue;
      if (best < 0 || e.elems < list[static_cast<std::size_t>(best)].elems) {
        best = i;
      }
    }
    if (best >= 0) {
      auto buf = std::any_cast<simt::DeviceBuffer<T>>(
          std::move(list[static_cast<std::size_t>(best)].buffer));
      list.erase(list.begin() + best);
      ++reuses_;
      return Handle<T>(this, std::move(buf));
    }
    ++device_allocations_;
    return Handle<T>(this, dev.alloc<T>(elems));
  }

  /// Pool-or-alloc entry point used by the proposal implementations:
  /// lease from `pool` when one is provided, otherwise fall back to a
  /// plain allocation freed when the handle drops (legacy behaviour).
  template <typename T>
  static Handle<T> lease(WorkspacePool* pool, simt::Device& dev,
                         std::int64_t elems) {
    if (pool != nullptr) return pool->acquire<T>(dev, elems);
    return Handle<T>(nullptr, dev.alloc<T>(elems));
  }

  /// Fresh `dev.alloc` calls made on behalf of acquisitions. Flat across
  /// repeated identically-shaped runs once the pool is warm.
  std::uint64_t device_allocations() const { return device_allocations_; }
  /// Acquisitions served from the free list.
  std::uint64_t reuses() const { return reuses_; }
  /// Buffers currently parked in the pool.
  std::size_t pooled_buffers() const {
    std::size_t n = 0;
    for (const auto& [type, list] : free_) n += list.size();
    return n;
  }
  /// Drop every pooled buffer (returns their memory budget to the devices).
  void clear() { free_.clear(); }

 private:
  struct Entry {
    int device_id = -1;
    std::int64_t elems = 0;
    std::any buffer;  ///< holds a simt::DeviceBuffer<T>
  };

  template <typename T>
  void put_back(const simt::DeviceBuffer<T>& buf) {
    free_[std::type_index(typeid(T))].push_back(
        Entry{buf.device_id(), buf.size(), std::any(buf)});
  }

  std::map<std::type_index, std::vector<Entry>> free_;
  std::uint64_t device_allocations_ = 0;
  std::uint64_t reuses_ = 0;
};

/// Free-function spelling of WorkspacePool::lease (keeps the call sites
/// inside the proposals readable).
template <typename T>
WorkspacePool::Handle<T> acquire_workspace(WorkspacePool* pool,
                                           simt::Device& dev,
                                           std::int64_t elems) {
  return WorkspacePool::lease<T>(pool, dev, elems);
}

}  // namespace mgs::core
