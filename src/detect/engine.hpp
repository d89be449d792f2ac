// The Analysis Engine of Fig. 9: statistical (not ML) anomaly detection.
//
// Training over normally-collected windows fixes three thresholds:
//   τ_c — the observed range of the outbound reconnection rate;
//   τ_n — the observed range of the overall message rate;
//   τ_Λ — the minimum Pearson correlation any training window's message
//         distribution achieved against the mean reference profile.
// (The paper's 35-hour Mainnet training run produced τ_c=[0,2.1],
// τ_n=[252,390], τ_Λ=0.993; ours are retrained on the synthetic Mainnet.)
//
// Detection flags a window when any feature leaves its threshold, and
// attributes the anomaly: rate/distribution violations indicate BM-DoS,
// reconnection-rate violations indicate Defamation.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "detect/features.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"

namespace bsdetect {

struct Profile {
  double tau_c_low = 0.0, tau_c_high = 0.0;
  double tau_n_low = 0.0, tau_n_high = 0.0;
  /// Byte-rate envelope (extension feature b; see features.hpp).
  double tau_b_low = 0.0, tau_b_high = 0.0;
  double tau_lambda = 0.0;
  /// Mean normalized message-count distribution of the training windows.
  std::map<std::string, double> reference;
  /// Slack multipliers applied at training time so the thresholds tolerate
  /// sampling noise beyond the observed envelope.
  double range_margin = 0.05;
};

struct DetectionResult {
  bool anomalous = false;
  bool bmdos_suspected = false;       // n, b or Λ violated
  bool defamation_suspected = false;  // c violated
  double n = 0.0;
  double c = 0.0;
  double b = 0.0;
  double rho = 0.0;  // correlation against the reference profile
};

class StatEngine {
 public:
  /// Train the reference profile. Returns false (and stays untrained) when
  /// fewer than two windows are supplied.
  bool Train(const std::vector<FeatureWindow>& windows);

  bool Trained() const { return trained_; }
  const Profile& GetProfile() const { return profile_; }

  // ---- Persistence (the durable-store baseline payload) ----
  /// Serialize the trained profile (empty vector when untrained). A 35-hour
  /// Mainnet training run is state worth surviving a crash.
  bsutil::ByteVec SerializeProfile() const;
  /// Restore a previously serialized profile; the engine becomes trained.
  /// Returns false on malformed input (state is then unchanged).
  bool LoadProfile(bsutil::ByteSpan data);

  /// Test one window against the profile.
  DetectionResult Detect(const FeatureWindow& window) const;

  /// Correlation of `window`'s normalized distribution with the reference.
  double Correlation(const FeatureWindow& window) const;

  /// Alert sink invoked by Detect (via DetectAndAlert) on anomalies — wire
  /// this to the node's response (e.g. drop-and-rebuild connections).
  std::function<void(const DetectionResult&)> on_alert;
  DetectionResult DetectAndAlert(const FeatureWindow& window);

  /// Publish engine metrics into `registry` (bs_detect_* series), including
  /// the per-call detection-latency histogram.
  void AttachMetrics(bsobs::MetricsRegistry& registry);
  /// Hot-path profiler: each Detect() is timed under HotStage::kDetectTick.
  /// Null (the default) disables. Not owned.
  void SetProfiler(bsobs::HotpathProfiler* profiler) { profiler_ = profiler; }

 private:
  bool trained_ = false;
  Profile profile_;
  bsobs::HotpathProfiler* profiler_ = nullptr;

  // Observability (null / empty until attached).
  bsobs::Counter* m_detections_total_ = nullptr;
  bsobs::Counter* m_anomalies_total_ = nullptr;
  bsobs::Counter* m_trainings_total_ = nullptr;
  bsobs::Histogram* m_detect_seconds_ = nullptr;
  bsobs::Histogram* m_train_seconds_ = nullptr;
};

}  // namespace bsdetect
