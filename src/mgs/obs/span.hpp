#pragma once
/// \file span.hpp
/// Hierarchical span tracing for simulated runs. A TraceSession collects
/// a DAG of spans -- run > plan/stage > kernel/transfer/collective, with
/// fault-recovery events as annotated children -- in *simulated* time.
/// Producers (simt::launch, topo::TransferEngine, msg::Communicator, the
/// core executors) consult TraceSession::current() and record only when a
/// session is installed, so the no-session path costs one branch per
/// event (the same guarantee the fault subsystem makes).
///
/// Parentage: the session keeps a stack of open spans on the orchestration
/// thread; a span opened (or a complete event added) while another span is
/// open becomes its child. Simulated clocks of different devices overlap
/// freely inside one parent -- nesting reflects the host-side call
/// structure, timestamps reflect the modeled timeline.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mgs/obs/metrics.hpp"

namespace mgs::obs {

enum class SpanKind {
  kRun,         ///< one ScanExecutor::run invocation
  kPlan,        ///< executor prepare(): plan lookup + placement
  kStage,       ///< bulk-synchronous phase (Stage1, AuxGather, ...)
  kKernel,      ///< one simt::launch
  kTransfer,    ///< one TransferEngine copy
  kCollective,  ///< one MPI-like collective / point-to-point op
  kFault,       ///< fault-recovery event (retry, reroute, re-plan, ...)
};

const char* to_string(SpanKind kind);

/// Makespan attribution category -- the axes of the paper's Figure 14.
enum class Category {
  kCompute,     ///< kernel execution
  kP2P,         ///< peer-to-peer PCIe traffic
  kHostStaged,  ///< D2H+H2D staged traffic (and device-local copies)
  kMpi,         ///< MPI messages, collectives and software overhead
  kIdle,        ///< waiting at a synchronization point
  kOther,       ///< everything else (plans, fault bookkeeping)
};

constexpr int kNumCategories = 6;

const char* to_string(Category c);
/// Inverse of to_string; kOther for unknown names.
Category category_from_string(const std::string& name);

struct SpanRecord {
  std::uint64_t id = 0;      ///< 1-based; 0 = invalid
  std::uint64_t parent = 0;  ///< 0 = root span
  std::string name;
  SpanKind kind = SpanKind::kStage;
  Category category = Category::kOther;
  int device = -1;      ///< primary device (transfers: destination)
  int src_device = -1;  ///< transfers: source endpoint
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t alu_ops = 0;
  double occupancy = 0.0;
  /// Free-form key/value annotations (plan describe, fault detail, ...).
  std::vector<std::pair<std::string, std::string>> notes;

  double duration() const { return end_seconds - start_seconds; }
};

class TraceSession {
 public:
  /// Installs this session as the process-wide current one; the
  /// constructor saves the previously installed session (if any) and the
  /// destructor restores it, so sessions nest like scopes.
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The installed session, or nullptr -- the producers' single branch.
  static TraceSession* current() { return current_; }

  /// Open a span; it becomes a child of the innermost open span unless
  /// rec.parent is already set. Returns the span id for close_span.
  std::uint64_t open_span(SpanRecord rec);
  /// Close an open span at `end_seconds` (simulated). Out-of-order closes
  /// are tolerated (exception unwinding); the id must be open.
  void close_span(std::uint64_t id, double end_seconds);
  /// Record a complete span (start and end already known). Parent defaults
  /// to the innermost open span. Returns the id.
  std::uint64_t add_event(SpanRecord rec);
  /// Append a key/value note to a recorded span.
  void annotate(std::uint64_t id, std::string key, std::string value);

  /// Copy of every span in insertion order (open spans have end < start
  /// meaning "not closed yet"; exporters clamp).
  std::vector<SpanRecord> spans() const;
  std::size_t size() const;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> stack_;  ///< ids of open spans, outermost first
  std::uint64_t next_id_ = 1;
  MetricsRegistry metrics_;
  TraceSession* prev_ = nullptr;
  static TraceSession* current_;
};

/// RAII span for scopes that may unwind: closes at the given end time, or
/// zero-length at the start time if the scope exits before close().
/// Inactive (all no-ops) when no session is installed.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  explicit ScopedSpan(SpanRecord rec) {
    if (TraceSession* ts = TraceSession::current()) {
      ts_ = ts;
      start_ = rec.start_seconds;
      id_ = ts->open_span(std::move(rec));
    }
  }
  ~ScopedSpan() {
    if (ts_ != nullptr && open_) ts_->close_span(id_, start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& o) noexcept
      : ts_(o.ts_), id_(o.id_), start_(o.start_), open_(o.open_) {
    o.ts_ = nullptr;
  }
  ScopedSpan& operator=(ScopedSpan&& o) noexcept {
    if (this != &o) {
      if (ts_ != nullptr && open_) ts_->close_span(id_, start_);
      ts_ = o.ts_;
      id_ = o.id_;
      start_ = o.start_;
      open_ = o.open_;
      o.ts_ = nullptr;
    }
    return *this;
  }

  void close(double end_seconds) {
    if (ts_ != nullptr && open_) {
      ts_->close_span(id_, end_seconds);
      open_ = false;
    }
  }
  void annotate(std::string key, std::string value) {
    if (ts_ != nullptr) ts_->annotate(id_, std::move(key), std::move(value));
  }
  std::uint64_t id() const { return id_; }
  explicit operator bool() const { return ts_ != nullptr; }

 private:
  TraceSession* ts_ = nullptr;
  std::uint64_t id_ = 0;
  double start_ = 0.0;
  bool open_ = true;
};

/// Open a kStage span starting at simulated time `start` (inactive without
/// a session). Close with .close(phase_end) at the stage boundary -- the
/// same instant the breakdown entry uses, so stage spans tile the run
/// exactly like Figure 14's phases.
inline ScopedSpan open_stage(const char* name, double start,
                             int device = -1) {
  if (TraceSession::current() == nullptr) return ScopedSpan{};
  SpanRecord rec;
  rec.name = name;
  rec.kind = SpanKind::kStage;
  rec.category = Category::kOther;
  rec.device = device;
  rec.start_seconds = start;
  return ScopedSpan(std::move(rec));
}

/// Record a zero-duration kFault event under the innermost open span and
/// bump the matching `fault_events_total{kind=...}` counter. No-op without
/// a session. Used by the executors for degraded-placement re-plans; the
/// transfer/comm layers record their richer retry spans directly.
void note_fault(const std::string& name,
                std::vector<std::pair<std::string, std::string>> notes,
                double at_seconds = 0.0, int device = -1);

}  // namespace mgs::obs
