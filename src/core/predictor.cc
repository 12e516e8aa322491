#include "src/core/predictor.h"

#include <algorithm>
#include <cassert>

namespace dcs {
namespace {

double ClampUtilization(double u) { return std::clamp(u, 0.0, 1.0); }

}  // namespace

PastPredictor::PastPredictor() : name_("PAST") {}

double PastPredictor::Update(double utilization) {
  last_ = ClampUtilization(utilization);
  return last_;
}

std::unique_ptr<UtilizationPredictor> PastPredictor::Clone() const {
  auto clone = std::make_unique<PastPredictor>();
  clone->last_ = last_;
  return clone;
}

AvgNPredictor::AvgNPredictor(int n) : n_(n), name_("AVG" + std::to_string(n)) {
  assert(n >= 0);
}

double AvgNPredictor::Update(double utilization) {
  weighted_ = (n_ * weighted_ + ClampUtilization(utilization)) / (n_ + 1);
  return weighted_;
}

std::unique_ptr<UtilizationPredictor> AvgNPredictor::Clone() const {
  auto clone = std::make_unique<AvgNPredictor>(n_);
  clone->weighted_ = weighted_;
  return clone;
}

SlidingWindowPredictor::SlidingWindowPredictor(int window)
    : window_(window), name_("WIN" + std::to_string(window)) {
  assert(window >= 1);
  ring_.resize(static_cast<std::size_t>(window));
}

double SlidingWindowPredictor::Update(double utilization) {
  const double u = ClampUtilization(utilization);
  sum_ += u;
  if (count_ == ring_.size()) {
    sum_ -= ring_[next_];  // the oldest sample leaves the window
  } else {
    ++count_;
  }
  ring_[next_] = u;
  if (++next_ == ring_.size()) {
    next_ = 0;
  }
  return Current();
}

double SlidingWindowPredictor::Current() const {
  if (count_ == 0) {
    return 0.0;
  }
  return sum_ / static_cast<double>(count_);
}

void SlidingWindowPredictor::Reset() {
  next_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

std::unique_ptr<UtilizationPredictor> SlidingWindowPredictor::Clone() const {
  return std::make_unique<SlidingWindowPredictor>(*this);
}

void SlidingWindowPredictor::SaveState(SnapshotWriter* w) const {
  w->U64(count_);
  for (std::size_t i = ring_.size() - count_; i < ring_.size(); ++i) {
    w->F64(ring_[(next_ + i) % ring_.size()]);
  }
  w->F64(sum_);
}

void SlidingWindowPredictor::LoadState(SnapshotReader* r) {
  const std::uint64_t n = r->U64();
  if (n > ring_.size()) {
    r->Fail();  // an image from a wider window
    return;
  }
  count_ = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < count_; ++i) {
    ring_[i] = r->F64();
  }
  next_ = count_ % ring_.size();
  sum_ = r->F64();
}

}  // namespace dcs
