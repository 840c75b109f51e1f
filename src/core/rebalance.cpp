#include "core/rebalance.hpp"

#include <algorithm>
#include <utility>

#include "base/error.hpp"

namespace mgpusw::core {

namespace {

/// How far apart equal devices can measure on a sample under
/// kTrustedBusyNs. A short sample must show that much more skew than the
/// policy threshold before the controller acts on it.
constexpr double kShortSampleSpread = 1.3;

}  // namespace

std::vector<double> estimate_rates(
    const std::vector<vgpu::RateSample>& samples) {
  std::vector<double> rates;
  rates.reserve(samples.size());
  for (const vgpu::RateSample& sample : samples) {
    if (sample.cells <= 0 || sample.busy_ns <= 0) return {};
    rates.push_back(static_cast<double>(sample.cells) * 1e9 /
                    static_cast<double>(sample.busy_ns));
  }
  return rates;
}

double split_imbalance(const std::vector<double>& planned_shares,
                       const std::vector<double>& observed_rates) {
  MGPUSW_REQUIRE(!planned_shares.empty(), "no shares to judge");
  MGPUSW_REQUIRE(planned_shares.size() == observed_rates.size(),
                 "one observed rate per planned share required");
  // Projected finish time of device d's slice is share_d / rate_d; the
  // pipeline drains at the slowest device's pace, so the spread of these
  // projections is exactly what a re-split can recover.
  double slowest = 0.0;
  double fastest = 0.0;
  for (std::size_t d = 0; d < planned_shares.size(); ++d) {
    MGPUSW_REQUIRE(planned_shares[d] > 0.0, "shares must be positive");
    MGPUSW_REQUIRE(observed_rates[d] > 0.0, "rates must be positive");
    const double finish = planned_shares[d] / observed_rates[d];
    slowest = d == 0 ? finish : std::max(slowest, finish);
    fastest = d == 0 ? finish : std::min(fastest, finish);
  }
  return slowest / fastest - 1.0;
}

std::vector<double> normalize_weights(std::vector<double> weights) {
  double sum = 0.0;
  for (double w : weights) sum += w;
  MGPUSW_REQUIRE(sum > 0.0, "weights must have a positive sum");
  for (double& w : weights) w /= sum;
  return weights;
}

RebalanceController::RebalanceController(const RebalancePolicy& policy)
    : policy_(policy),
      next_check_(std::max<std::int64_t>(1, policy.check_every_rows)) {}

void RebalanceController::set_planned_shares(std::vector<double> shares) {
  std::lock_guard lock(mu_);
  shares_ = normalize_weights(std::move(shares));
  if (states_.size() < shares_.size()) states_.resize(shares_.size());
}

void RebalanceController::observe(const ProgressEvent& event) {
  if (stop_.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(mu_);
  const auto d = static_cast<std::size_t>(event.device_index);
  if (states_.size() <= d) states_.resize(d + 1);
  DeviceState& state = states_[d];
  if (!state.seen) {
    state.seen = true;
    // Resumed runs report completed_units from mid-matrix; progress is
    // measured against what was already done when we started watching.
    state.baseline_units = event.completed_units - 1;
  }
  state.units = event.completed_units;
  const std::vector<double> unit_rate =
      estimate_rates({{event.device_cells_done - state.total.cells,
                       event.busy_ns - state.total.busy_ns}});
  if (!unit_rate.empty()) state.unit_rates.push_back(unit_rate.front());
  state.total = {event.device_cells_done, event.busy_ns};

  if (shares_.empty() || states_.size() < shares_.size()) return;
  std::int64_t min_progress = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!states_[i].seen) return;  // some device has not reported yet
    const std::int64_t progress =
        states_[i].units - states_[i].baseline_units;
    min_progress = i == 0 ? progress : std::min(min_progress, progress);
  }
  if (min_progress < next_check_) return;
  next_check_ += std::max<std::int64_t>(1, policy_.check_every_rows);
  evaluate_locked();
}

void RebalanceController::evaluate_locked() {
  std::vector<double> rates;
  rates.reserve(states_.size());
  for (DeviceState& state : states_) {
    // e.g. a fully-pruned slice: no kernel time yet
    if (state.unit_rates.empty()) return;
    const auto upper_quartile =
        state.unit_rates.begin() +
        static_cast<std::ptrdiff_t>(state.unit_rates.size() * 3 / 4);
    std::nth_element(state.unit_rates.begin(), upper_quartile,
                     state.unit_rates.end());
    rates.push_back(*upper_quartile);
  }
  ++checks_;
  last_imbalance_ = split_imbalance(shares_, rates);
  const bool short_sample = std::any_of(
      states_.begin(), states_.end(), [](const DeviceState& state) {
        return state.total.busy_ns < kTrustedBusyNs;
      });
  const double threshold =
      short_sample
          ? (1.0 + policy_.min_imbalance) * kShortSampleSpread - 1.0
          : policy_.min_imbalance;
  if (last_imbalance_ <= threshold) return;
  rates_ = rates;
  stop_.store(true, std::memory_order_release);
}

std::vector<double> RebalanceController::observed_weights() const {
  std::lock_guard lock(mu_);
  MGPUSW_CHECK(!rates_.empty());
  return normalize_weights(rates_);
}

double RebalanceController::last_imbalance() const {
  std::lock_guard lock(mu_);
  return last_imbalance_;
}

int RebalanceController::checks_run() const {
  std::lock_guard lock(mu_);
  return checks_;
}

}  // namespace mgpusw::core
