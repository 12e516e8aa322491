#include "src/hw/power_tape.h"

#include <algorithm>
#include <cassert>

namespace dcs {

void PowerTape::Set(SimTime now, double watts) {
  assert((segments_.empty() || now >= segments_.back().start) &&
         "PowerTape segments must be time-ordered");
  if (!segments_.empty() && segments_.back().watts == watts) {
    return;
  }
  if (!segments_.empty() && segments_.back().start == now) {
    // Multiple state changes at the same instant collapse to the last one.
    // Only the still-open last segment changes, and prefix_ never includes
    // the open segment's contribution, so the prefix stays valid.
    segments_.back().watts = watts;
    // Collapsing can expose a merge with the (new) previous segment.
    if (segments_.size() >= 2 && segments_[segments_.size() - 2].watts == watts) {
      segments_.pop_back();
      prefix_.pop_back();
    }
    return;
  }
  // Appending closes the previous segment: fold its full contribution into
  // the prefix.  The expression mirrors the energy integration term exactly
  // (same subtraction, same ToSeconds, same multiply, added left-to-right)
  // so prefix-based queries are bitwise-identical to the old full scan.
  if (segments_.empty()) {
    prefix_.push_back(0.0);
  } else {
    const Segment& prev = segments_.back();
    prefix_.push_back(prefix_.back() + prev.watts * (now - prev.start).ToSeconds());
  }
  segments_.push_back(Segment{now, watts});
}

double PowerTape::WattsAt(SimTime t) const {
  if (segments_.empty() || t < segments_.front().start) {
    return 0.0;
  }
  if (t >= segments_.back().start) {
    // The open last segment: what the battery sync asks for on every tick.
    return segments_.back().watts;
  }
  auto it = std::upper_bound(segments_.begin(), segments_.end(), t,
                             [](SimTime x, const Segment& s) { return x < s.start; });
  return std::prev(it)->watts;
}

double PowerTape::EnergyJoules(SimTime begin, SimTime end) const {
  if (segments_.empty() || end <= begin) {
    return 0.0;
  }
  if (begin <= segments_.front().start) {
    if (end <= segments_.front().start) {
      return 0.0;
    }
    // The window covers every segment from the first: its energy is the
    // prefix up to the segment containing `end` plus that segment's partial
    // tail.  k is the last segment starting strictly before `end`.
    const auto it = std::lower_bound(
        segments_.begin(), segments_.end(), end,
        [](const Segment& s, SimTime x) { return s.start < x; });
    const std::size_t k = static_cast<std::size_t>(it - segments_.begin()) - 1;
    return prefix_[k] + segments_[k].watts * (end - segments_[k].start).ToSeconds();
  }
  // The window opens mid-tape: sum only the overlapped segments, starting at
  // the last segment whose start is <= begin.  Loop body identical to the
  // old full scan, so the result rounds identically.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), begin,
                             [](SimTime x, const Segment& s) { return x < s.start; });
  double joules = 0.0;
  for (std::size_t i = static_cast<std::size_t>(it - segments_.begin()) - 1;
       i < segments_.size() && segments_[i].start < end; ++i) {
    const SimTime seg_begin = std::max(segments_[i].start, begin);
    const SimTime seg_end =
        std::min(i + 1 < segments_.size() ? segments_[i + 1].start : end, end);
    if (seg_end > seg_begin) {
      joules += segments_[i].watts * (seg_end - seg_begin).ToSeconds();
    }
  }
  return joules;
}

double PowerTape::AverageWatts(SimTime begin, SimTime end) const {
  if (end <= begin) {
    return 0.0;
  }
  return EnergyJoules(begin, end) / (end - begin).ToSeconds();
}

}  // namespace dcs
