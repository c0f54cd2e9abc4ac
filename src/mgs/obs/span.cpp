#include "mgs/obs/span.hpp"

#include <algorithm>

#include "mgs/util/check.hpp"

namespace mgs::obs {

TraceSession* TraceSession::current_ = nullptr;

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "run";
    case SpanKind::kPlan:
      return "plan";
    case SpanKind::kStage:
      return "stage";
    case SpanKind::kKernel:
      return "kernel";
    case SpanKind::kTransfer:
      return "transfer";
    case SpanKind::kCollective:
      return "collective";
    case SpanKind::kFault:
      return "fault";
  }
  return "?";
}

const char* to_string(Category c) {
  switch (c) {
    case Category::kCompute:
      return "compute";
    case Category::kP2P:
      return "p2p";
    case Category::kHostStaged:
      return "host-staged";
    case Category::kMpi:
      return "mpi";
    case Category::kIdle:
      return "idle";
    case Category::kOther:
      return "other";
  }
  return "?";
}

Category category_from_string(const std::string& name) {
  for (int i = 0; i < kNumCategories; ++i) {
    const Category c = static_cast<Category>(i);
    if (name == to_string(c)) return c;
  }
  return Category::kOther;
}

TraceSession::TraceSession() : prev_(current_) { current_ = this; }

TraceSession::~TraceSession() { current_ = prev_; }

std::uint64_t TraceSession::open_span(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = next_id_++;
  if (rec.parent == 0 && !stack_.empty()) rec.parent = stack_.back();
  if (rec.end_seconds < rec.start_seconds) rec.end_seconds = rec.start_seconds;
  stack_.push_back(rec.id);
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void TraceSession::close_span(std::uint64_t id, double end_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  MGS_REQUIRE(it != stack_.end(), "TraceSession::close_span: span not open");
  stack_.erase(it);
  SpanRecord& rec = spans_[static_cast<std::size_t>(id - 1)];
  rec.end_seconds = std::max(rec.start_seconds, end_seconds);
}

std::uint64_t TraceSession::add_event(SpanRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = next_id_++;
  if (rec.parent == 0 && !stack_.empty()) rec.parent = stack_.back();
  if (rec.end_seconds < rec.start_seconds) rec.end_seconds = rec.start_seconds;
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void TraceSession::annotate(std::uint64_t id, std::string key,
                            std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  MGS_REQUIRE(id >= 1 && id <= spans_.size(),
              "TraceSession::annotate: unknown span id");
  spans_[static_cast<std::size_t>(id - 1)].notes.emplace_back(
      std::move(key), std::move(value));
}

std::vector<SpanRecord> TraceSession::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t TraceSession::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void note_fault(const std::string& name,
                std::vector<std::pair<std::string, std::string>> notes,
                double at_seconds, int device) {
  TraceSession* ts = TraceSession::current();
  if (ts == nullptr) return;
  SpanRecord rec;
  rec.name = name;
  rec.kind = SpanKind::kFault;
  rec.category = Category::kOther;
  rec.device = device;
  rec.start_seconds = at_seconds;
  rec.end_seconds = at_seconds;
  rec.notes = std::move(notes);
  ts->add_event(std::move(rec));
  ts->metrics().inc("fault_events_total", {{"kind", name}});
}

}  // namespace mgs::obs
