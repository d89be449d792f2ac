#include "core/partition.hpp"

namespace bsnet {

namespace {

/// EWMA smoothing factor for observed inter-block intervals.
constexpr double kEwmaAlpha = 0.3;
/// The staleness signal saturates at this many EWMA intervals without a tip
/// advance (below one interval it contributes nothing).
constexpr double kStaleMultiple = 4.0;
/// Height gap to a probe-reported tip that counts as divergence.
constexpr int kDivergenceBlocks = 2;
/// Suspicion hysteresis band: the high threshold arms the recovery ladder,
/// the low threshold disarms it.
constexpr double kSuspicionHigh = 0.5;
constexpr double kSuspicionLow = 0.2;
/// Signal fusion weights (need not sum to 1; suspicion is clamped to [0,1]).
constexpr double kWeightStale = 0.45;
constexpr double kWeightDiversity = 0.15;
constexpr double kWeightDivergence = 0.55;

}  // namespace

const char* ToString(PartitionMonitor::Stage stage) {
  switch (stage) {
    case PartitionMonitor::Stage::kNone: return "none";
    case PartitionMonitor::Stage::kFeelerBurst: return "feeler-burst";
    case PartitionMonitor::Stage::kAnchorRedial: return "anchor-redial";
    case PartitionMonitor::Stage::kEmergencySlot: return "emergency-slot";
    case PartitionMonitor::Stage::kRotate: return "rotate";
  }
  return "?";
}

void PartitionMonitor::OnTipAdvance(bsim::SimTime now, int height) {
  if (last_tip_advance_ > 0) {
    const bsim::SimTime interval = now - last_tip_advance_;
    if (ewma_interval_ <= 0) {
      ewma_interval_ = interval;
    } else {
      ewma_interval_ = static_cast<bsim::SimTime>(
          kEwmaAlpha * static_cast<double>(interval) +
          (1.0 - kEwmaAlpha) * static_cast<double>(ewma_interval_));
    }
  }
  last_tip_advance_ = now > 0 ? now : 1;
  tip_height_ = height;
}

void PartitionMonitor::OnProbeObservation(bsim::SimTime now, std::uint64_t peer_id,
                                          std::int32_t remote_height) {
  observations_[peer_id] = Observation{now, remote_height};
}

void PartitionMonitor::ForgetPeer(std::uint64_t peer_id) {
  observations_.erase(peer_id);
}

void PartitionMonitor::NoteNetgroupDiversity(std::size_t distinct_groups) {
  diversity_current_ = distinct_groups;
  diversity_watermark_ = std::max(diversity_watermark_, distinct_groups);
}

void PartitionMonitor::PruneStale(bsim::SimTime now) {
  for (auto it = observations_.begin(); it != observations_.end();) {
    if (now - it->second.time > kProbeFreshness) {
      it = observations_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<std::int32_t> PartitionMonitor::BestRemoteHeight() const {
  std::optional<std::int32_t> best;
  for (const auto& [id, obs] : observations_) {
    if (!best || obs.height > *best) best = obs.height;
  }
  return best;
}

std::optional<std::uint64_t> PartitionMonitor::MostDivergentPeer(
    int our_height) const {
  std::optional<std::uint64_t> worst;
  std::int32_t worst_height = 0;
  for (const auto& [id, obs] : observations_) {
    if (obs.height >= our_height) continue;  // ahead of or level with us
    if (!worst || obs.height < worst_height) {
      worst = id;
      worst_height = obs.height;
    }
  }
  return worst;
}

double PartitionMonitor::Update(bsim::SimTime now, int our_height,
                                bool* recovered) {
  if (recovered != nullptr) *recovered = false;
  last_update_ = now;
  PruneStale(now);

  // External tip advances (blocks we mined, restarts restoring a higher tip)
  // must reset the staleness clock even if the caller never routed them
  // through OnTipAdvance.
  if (our_height > tip_height_ && last_tip_advance_ > 0) {
    OnTipAdvance(now, our_height);
  }
  if (last_tip_advance_ == 0) {
    // First tick: arm the clock without treating startup as a stall.
    last_tip_advance_ = now > 0 ? now : 1;
    tip_height_ = our_height;
  }

  const bsim::SimTime ewma =
      ewma_interval_ > 0 ? ewma_interval_ : params_.expected_block_interval;

  // Signal 1: staleness. Zero up to one EWMA interval (a block being a bit
  // late is normal), saturating at kStaleMultiple intervals without progress.
  const double since = static_cast<double>(now - last_tip_advance_);
  const double one = static_cast<double>(ewma);
  const double span = one * (kStaleMultiple - 1.0);
  stale_signal_ = std::clamp((since - one) / span, 0.0, 1.0);

  // Signal 2: netgroup-diversity drawdown against the watermark.
  diversity_signal_ =
      diversity_watermark_ > 0
          ? std::clamp(1.0 - static_cast<double>(diversity_current_) /
                                 static_cast<double>(diversity_watermark_),
                       0.0, 1.0)
          : 0.0;

  // Signal 3: tip-probe disagreement. A fresh reply kDivergenceBlocks or
  // more ahead of our tip is hard evidence we are behind; the signal ramps
  // with the gap.
  divergence_signal_ = 0.0;
  if (const auto best = BestRemoteHeight()) {
    const int gap = *best - our_height;
    if (gap >= kDivergenceBlocks) {
      divergence_signal_ = std::clamp(
          static_cast<double>(gap) / static_cast<double>(2 * kDivergenceBlocks),
          0.0, 1.0);
    }
  }

  suspicion_ = std::clamp(kWeightStale * stale_signal_ +
                              kWeightDiversity * diversity_signal_ +
                              kWeightDivergence * divergence_signal_,
                          0.0, 1.0);

  // Hysteresis + ladder clock. Between the thresholds the current state
  // holds, so suspicion oscillating around one threshold cannot flap the
  // recovery machinery.
  if (!high_ && suspicion_ >= kSuspicionHigh) {
    high_ = true;
    high_since_ = now;
  } else if (high_ && suspicion_ <= kSuspicionLow) {
    high_ = false;
    high_since_ = 0;
    stage_ = Stage::kNone;
    if (recovered != nullptr) *recovered = true;
  }
  if (high_) {
    const bsim::SimTime held = now - high_since_;
    const bsim::SimTime step = std::max<bsim::SimTime>(params_.ladder_step, 1);
    const int raw = 1 + static_cast<int>(held / step);
    stage_ = static_cast<Stage>(
        std::min(raw, static_cast<int>(Stage::kRotate)));
  }
  return suspicion_;
}

void PartitionMonitor::Reset() {
  ewma_interval_ = 0;
  last_tip_advance_ = 0;
  tip_height_ = 0;
  diversity_current_ = 0;
  // Reset is the crash/stop path: a replacement node re-learns its own
  // diversity baseline rather than inheriting a watermark it never held.
  diversity_watermark_ = 0;
  observations_.clear();
  suspicion_ = stale_signal_ = diversity_signal_ = divergence_signal_ = 0.0;
  high_ = false;
  high_since_ = 0;
  last_update_ = 0;
  stage_ = Stage::kNone;
}

}  // namespace bsnet
