#include "obs/request_trace.h"

#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace osrs::obs {

uint64_t DeriveTraceId(uint64_t request_id) {
  return Mix64(request_id + 0x9E3779B97F4A7C15ULL);
}

const char* RequestSpanKindName(RequestSpanKind kind) {
  switch (kind) {
    case RequestSpanKind::kServe:
      return "serve";
    case RequestSpanKind::kCacheProbe:
      return "cache_probe";
    case RequestSpanKind::kAdmission:
      return "admission";
    case RequestSpanKind::kQueueWait:
      return "queue_wait";
    case RequestSpanKind::kShedDecision:
      return "shed_decision";
    case RequestSpanKind::kSolve:
      return "solve";
    case RequestSpanKind::kStaleFallback:
      return "stale_fallback";
    case RequestSpanKind::kCoalescedWait:
      return "coalesced_wait";
  }
  return "unknown";
}

size_t RequestTrace::BeginSpan(RequestSpanKind kind) {
  RequestSpan span;
  span.kind = kind;
  span.depth = open_depth_;
  span.start_ns = watch_.ElapsedNanos();
  ++open_depth_;
  spans_.push_back(span);
  return spans_.size() - 1;
}

void RequestTrace::EndSpan(size_t index) {
  OSRS_CHECK(index < spans_.size());
  OSRS_CHECK(spans_[index].duration_ns < 0);
  spans_[index].duration_ns = watch_.ElapsedNanos() - spans_[index].start_ns;
  --open_depth_;
}

void RequestTrace::AddSpan(RequestSpanKind kind, int64_t start_ns,
                           int64_t duration_ns) {
  RequestSpan span;
  span.kind = kind;
  span.depth =
      open_depth_ > 0 ? open_depth_ : (spans_.empty() ? 0 : 1);
  span.start_ns = start_ns;
  span.duration_ns = duration_ns < 0 ? 0 : duration_ns;
  spans_.push_back(span);
}

void RequestTrace::AttachSolverStats(SolverStats stats) {
  if (stats.empty()) return;
  solver_stats_ = std::move(stats);
  has_solver_stats_ = true;
}

bool RequestTrace::balanced() const {
  if (open_depth_ != 0) return false;
  for (const RequestSpan& span : spans_) {
    if (span.duration_ns < 0) return false;
  }
  return true;
}

bool RequestTrace::HasSpan(RequestSpanKind kind) const {
  for (const RequestSpan& span : spans_) {
    if (span.kind == kind) return true;
  }
  return false;
}

int64_t RequestTrace::SpanDurationNs(RequestSpanKind kind) const {
  int64_t total = 0;
  for (const RequestSpan& span : spans_) {
    if (span.kind == kind && span.duration_ns >= 0) {
      total += span.duration_ns;
    }
  }
  return total;
}

std::string RequestTrace::ToJson() const {
  std::string out = StrFormat(
      "{\"trace_id\":\"%016llx\",\"request_id\":%llu,\"spans\":[",
      static_cast<unsigned long long>(context.trace_id),
      static_cast<unsigned long long>(context.request_id));
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"kind\":\"%s\",\"depth\":%d,\"start_ns\":%lld,"
        "\"duration_ns\":%lld}",
        RequestSpanKindName(spans_[i].kind), spans_[i].depth,
        static_cast<long long>(spans_[i].start_ns),
        static_cast<long long>(spans_[i].duration_ns));
  }
  out += ']';
  if (has_solver_stats_) {
    out += ",\"solver\":";
    out += solver_stats_.ToJson();
  }
  out += '}';
  return out;
}

void TraceRing::Push(RequestTrace trace) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  while (traces_.size() >= capacity_) traces_.pop_front();
  traces_.push_back(std::move(trace));
}

std::vector<RequestTrace> TraceRing::Snapshot() const {
  MutexLock lock(mutex_);
  return std::vector<RequestTrace>(traces_.begin(), traces_.end());
}

size_t TraceRing::size() const {
  MutexLock lock(mutex_);
  return traces_.size();
}

}  // namespace osrs::obs
