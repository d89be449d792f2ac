#include "obs/span.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace bsobs {

const char* ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSend: return "send";
    case SpanKind::kInject: return "inject";
    case SpanKind::kReceive: return "recv";
    case SpanKind::kDrop: return "drop";
    case SpanKind::kShed: return "shed";
    case SpanKind::kMisbehavior: return "misbehavior";
    case SpanKind::kBan: return "ban";
    case SpanKind::kConnected: return "connected";
    case SpanKind::kDisconnected: return "disconnected";
    case SpanKind::kReconnect: return "reconnect";
    case SpanKind::kRxShed: return "rx-shed";
    case SpanKind::kEvicted: return "evicted";
    case SpanKind::kFeeler: return "feeler";
    case SpanKind::kAnchor: return "anchor";
    case SpanKind::kStaleTip: return "stale-tip";
    case SpanKind::kPartitionProbe: return "partition-probe";
    case SpanKind::kPartitionSuspected: return "partition-suspected";
    case SpanKind::kPartitionRecovered: return "partition-recovered";
    case SpanKind::kPenaltyDeferred: return "penalty-deferred";
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void SpanLog::Record(const SpanRecord& rec) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
  } else {
    ring_[next_] = rec;  // overwrite the oldest
    next_ = (next_ + 1) % capacity_;
  }
  ++recorded_;
}

std::size_t SpanLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t SpanLog::Recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t SpanLog::Dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - ring_.size();
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // next_ is the oldest slot once the ring has wrapped, 0 before.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

std::string SpanLog::Render(std::size_t max_records) const {
  const std::vector<SpanRecord> records = Snapshot();
  const std::size_t first =
      records.size() > max_records ? records.size() - max_records : 0;
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "span log: %zu/%zu retained, %" PRIu64 " recorded, %" PRIu64
                " dropped\n",
                records.size(), capacity_, Recorded(), Dropped());
  out += line;
  for (std::size_t i = first; i < records.size(); ++i) {
    const SpanRecord& rec = records[i];
    std::snprintf(line, sizeof(line),
                  "  t=%.6fs %-19s peer=%" PRIu64 " a=%" PRId64 " b=%" PRId64,
                  bsim::ToSeconds(rec.time), ToString(rec.kind), rec.peer_id, rec.a,
                  rec.b);
    out += line;
    if (rec.trace_id != 0) {
      std::snprintf(line, sizeof(line),
                    " trace=%" PRIu64 " span=%" PRIu64 " parent=%" PRIu64,
                    rec.trace_id, rec.span_id, rec.parent_span);
      out += line;
    }
    out += '\n';
  }
  return out;
}

SpanTracer::SpanTracer(std::size_t log_capacity) : log_(log_capacity) {}

TraceContext SpanTracer::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  return TraceContext{next_trace_++, next_span_++};
}

TraceContext SpanTracer::Child(const TraceContext& parent) {
  std::lock_guard<std::mutex> lock(mu_);
  return TraceContext{parent.trace_id, next_span_++};
}

void SpanTracer::NoteFrameSent(const SpanStreamKey& stream, std::uint64_t offset,
                               std::uint32_t len, const TraceContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& q = pending_[stream];
  if (q.size() >= kMaxPendingPerStream) {
    q.pop_front();
    --pending_count_;
    ++pending_dropped_;
  }
  q.push_back(PendingFrame{offset, len, ctx});
  ++pending_count_;
}

void SpanTracer::NoteForeignFrame(const SpanStreamKey& stream, std::uint32_t len,
                                  const TraceContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& q = pending_[stream];
  if (q.size() >= kMaxPendingPerStream) {
    q.pop_front();
    --pending_count_;
    ++pending_dropped_;
  }
  q.push_back(PendingFrame{kForeignOffset, len, ctx});
  ++pending_count_;
}

SpanClaim SpanTracer::ClaimFrame(const SpanStreamKey& stream, std::uint64_t offset,
                                 std::uint32_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanClaim claim;
  auto it = pending_.find(stream);
  if (it == pending_.end()) return claim;
  auto& q = it->second;

  // Entries wholly before the claimed offset can never match again (the
  // receiver decodes the app stream strictly in order): count them lost.
  // Foreign (offset-unknown) entries are exempt — they wait for a length
  // match.
  while (!q.empty() && q.front().start != kForeignOffset &&
         q.front().start + q.front().len <= offset) {
    q.pop_front();
    --pending_count_;
    ++pending_dropped_;
    ++claim.lost;
  }
  if (q.empty()) {
    pending_.erase(it);
    return claim;
  }

  const PendingFrame& front = q.front();
  if (front.start == offset && front.len == len) {
    // Exact stream-position match: the normal honest-traffic path.
    claim.ctx = front.ctx;
    q.pop_front();
    --pending_count_;
  } else if (front.len == len) {
    // Offsets disagree but the next in-flight frame has exactly this length.
    // This is the injected-frame path: a spoofed frame shifted the receive
    // stream relative to what the (foreign) sender could register. Match by
    // length and flag the resync so forensics can see the splice point.
    claim.ctx = front.ctx;
    claim.resync = true;
    q.pop_front();
    --pending_count_;
  }
  // else: orphan — leave the queue alone (the registered frame is still in
  // flight and will match a later, larger offset).
  if (q.empty()) pending_.erase(it);
  return claim;
}

std::size_t SpanTracer::PendingFrames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_count_;
}

std::uint64_t SpanTracer::PendingDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_dropped_;
}

}  // namespace bsobs
