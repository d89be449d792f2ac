#include "detect/engine.hpp"

#include <algorithm>

#include "util/serialize.hpp"

namespace bsdetect {

namespace {
// Format tag so stale/foreign baseline payloads are rejected cleanly.
constexpr std::uint32_t kProfileMagic = 0x50524631;  // "PRF1"
}  // namespace

void StatEngine::AttachMetrics(bsobs::MetricsRegistry& registry) {
  m_detections_total_ =
      registry.GetCounter("bs_detect_detections_total", "Windows tested");
  m_anomalies_total_ =
      registry.GetCounter("bs_detect_anomalies_total", "Windows flagged anomalous");
  m_trainings_total_ =
      registry.GetCounter("bs_detect_trainings_total", "Profile (re)trainings");
  m_detect_seconds_ =
      registry.GetHistogram("bs_detect_detect_seconds", bsobs::LatencyBucketsSeconds(),
                            "Per-window detection latency");
  m_train_seconds_ =
      registry.GetHistogram("bs_detect_train_seconds", bsobs::LatencyBucketsSeconds(),
                            "Profile training latency");
}

bool StatEngine::Train(const std::vector<FeatureWindow>& windows) {
  bsobs::ScopedTimer timer(m_train_seconds_);
  if (windows.size() < 2) return false;

  Profile p;
  p.tau_c_low = windows[0].c;
  p.tau_c_high = windows[0].c;
  p.tau_n_low = windows[0].n;
  p.tau_n_high = windows[0].n;
  p.tau_b_low = windows[0].b;
  p.tau_b_high = windows[0].b;

  // Reference profile: mean of normalized distributions. Window maps are
  // sorted, so the accumulation is a merge-join over a sorted key vector —
  // one linear pass per window, no per-key map lookups (this training pass
  // is exactly what Fig. 11's latency comparison measures).
  std::vector<std::string> keys;
  std::vector<double> sums;
  for (const FeatureWindow& w : windows) {
    p.tau_c_low = std::min(p.tau_c_low, w.c);
    p.tau_c_high = std::max(p.tau_c_high, w.c);
    p.tau_n_low = std::min(p.tau_n_low, w.n);
    p.tau_n_high = std::max(p.tau_n_high, w.n);
    p.tau_b_low = std::min(p.tau_b_low, w.b);
    p.tau_b_high = std::max(p.tau_b_high, w.b);
    double total = 0.0;
    for (const auto& [cmd, n] : w.counts) total += n;
    if (total <= 0.0) continue;
    std::size_t k = 0;
    for (const auto& [cmd, n] : w.counts) {
      while (k < keys.size() && keys[k] < cmd) ++k;
      if (k == keys.size() || keys[k] != cmd) {
        keys.insert(keys.begin() + static_cast<std::ptrdiff_t>(k), cmd);
        sums.insert(sums.begin() + static_cast<std::ptrdiff_t>(k), 0.0);
      }
      sums[k] += n / total;
      ++k;
    }
  }
  for (std::size_t k = 0; k < keys.size(); ++k) {
    p.reference.emplace(keys[k], sums[k] / static_cast<double>(windows.size()));
  }

  // Apply the range margin so the envelope tolerates unseen-but-normal noise.
  const double n_margin = p.range_margin * std::max(1.0, p.tau_n_high);
  p.tau_n_low = std::max(0.0, p.tau_n_low - n_margin);
  p.tau_n_high += n_margin;
  const double b_margin = p.range_margin * std::max(1.0, p.tau_b_high);
  p.tau_b_low = std::max(0.0, p.tau_b_low - b_margin);
  p.tau_b_high += b_margin;
  p.tau_c_high += std::max(0.5, p.range_margin * p.tau_c_high);
  p.tau_c_low = 0.0;

  profile_ = p;
  trained_ = true;  // needed before Correlation() below

  // τ_Λ: the weakest correlation any normal window shows to the reference,
  // via the same merge-join (keys and window maps are both sorted).
  const std::vector<double> ref_vec = bsutil::NormalizeDistribution(sums);

  double tau_lambda = 1.0;
  std::vector<double> obs(keys.size());
  for (const FeatureWindow& w : windows) {
    std::fill(obs.begin(), obs.end(), 0.0);
    std::size_t k = 0;
    for (const auto& [cmd, n] : w.counts) {
      while (k < keys.size() && keys[k] < cmd) ++k;
      if (k == keys.size()) break;
      if (keys[k] == cmd) obs[k] = n;
    }
    // Pearson correlation is invariant under positive scaling, so the raw
    // counts correlate identically to the normalized distribution.
    tau_lambda = std::min(tau_lambda, bsutil::PearsonCorrelation(ref_vec, obs));
  }
  // Small slack below the observed minimum. Correlation lives in [-1, 1];
  // when the normal profile itself is weakly self-correlated (flat
  // distributions), the threshold legitimately goes negative.
  profile_.tau_lambda = std::max(-1.0, tau_lambda - 0.5 * (1.0 - tau_lambda));
  if (m_trainings_total_ != nullptr) m_trainings_total_->Inc();
  return true;
}

bsutil::ByteVec StatEngine::SerializeProfile() const {
  if (!trained_) return {};
  bsutil::Writer w;
  w.WriteU32(kProfileMagic);
  w.WriteDouble(profile_.tau_c_low);
  w.WriteDouble(profile_.tau_c_high);
  w.WriteDouble(profile_.tau_n_low);
  w.WriteDouble(profile_.tau_n_high);
  w.WriteDouble(profile_.tau_b_low);
  w.WriteDouble(profile_.tau_b_high);
  w.WriteDouble(profile_.tau_lambda);
  w.WriteDouble(profile_.range_margin);
  w.WriteCompactSize(profile_.reference.size());
  for (const auto& [cmd, share] : profile_.reference) {
    w.WriteVarString(cmd);
    w.WriteDouble(share);
  }
  return w.TakeData();
}

bool StatEngine::LoadProfile(bsutil::ByteSpan data) {
  try {
    bsutil::Reader r(data);
    if (r.ReadU32() != kProfileMagic) return false;
    Profile p;
    p.tau_c_low = r.ReadDouble();
    p.tau_c_high = r.ReadDouble();
    p.tau_n_low = r.ReadDouble();
    p.tau_n_high = r.ReadDouble();
    p.tau_b_low = r.ReadDouble();
    p.tau_b_high = r.ReadDouble();
    p.tau_lambda = r.ReadDouble();
    p.range_margin = r.ReadDouble();
    const std::uint64_t count = r.ReadCompactSize();
    if (count > 1'000'000) return false;  // allocation guard
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string cmd = r.ReadVarString();
      const double share = r.ReadDouble();
      p.reference.emplace(std::move(cmd), share);
    }
    if (!r.AtEnd()) return false;
    profile_ = std::move(p);
    trained_ = true;
    return true;
  } catch (const bsutil::DeserializeError&) {
    return false;
  }
}

double StatEngine::Correlation(const FeatureWindow& window) const {
  if (!trained_) return 0.0;
  const auto [ref, obs] = bsutil::AlignedDistributions(profile_.reference, window.counts);
  return bsutil::PearsonCorrelation(ref, obs);
}

DetectionResult StatEngine::Detect(const FeatureWindow& window) const {
  bsobs::ScopedProbe probe(profiler_, bsobs::HotStage::kDetectTick);
  bsobs::ScopedTimer timer(m_detect_seconds_);
  if (m_detections_total_ != nullptr) m_detections_total_->Inc();
  DetectionResult result;
  result.n = window.n;
  result.c = window.c;
  result.b = window.b;
  result.rho = Correlation(window);
  if (!trained_) return result;

  const bool n_violation = window.n < profile_.tau_n_low || window.n > profile_.tau_n_high;
  // b only alarms upward: byte floods. (A byte-rate *drop* shadows the
  // message-rate drop that n already covers.)
  const bool b_violation = window.b > profile_.tau_b_high;
  const bool lambda_violation = result.rho < profile_.tau_lambda;
  const bool c_violation = window.c > profile_.tau_c_high;

  result.bmdos_suspected = n_violation || b_violation || lambda_violation;
  result.defamation_suspected = c_violation;
  result.anomalous = result.bmdos_suspected || result.defamation_suspected;
  if (result.anomalous && m_anomalies_total_ != nullptr) m_anomalies_total_->Inc();
  return result;
}

DetectionResult StatEngine::DetectAndAlert(const FeatureWindow& window) {
  const DetectionResult result = Detect(window);
  if (result.anomalous && on_alert) on_alert(result);
  return result;
}

}  // namespace bsdetect
