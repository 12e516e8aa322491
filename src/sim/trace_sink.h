// Time-series recording: every experiment and bench captures (time, value)
// samples — utilization per quantum, clock frequency, instantaneous power —
// through this sink, then renders them as CSV or ASCII plots.

#ifndef SRC_SIM_TRACE_SINK_H_
#define SRC_SIM_TRACE_SINK_H_

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace dcs {

// One sample of a recorded series.
struct TracePoint {
  SimTime at;
  double value = 0.0;

  bool operator==(const TracePoint&) const = default;
};

// A single named (time, value) series.  Samples must be appended in
// non-decreasing time order (enforced).
class TraceSeries {
 public:
  explicit TraceSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<TracePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  // Appends a sample; `at` must be >= the previous sample's time.
  void Append(SimTime at, double value);

  // Pre-sizes the backing store (capacity only, no semantic effect).  Hot
  // recording loops reserve their expected sample count up front so Append
  // never reallocates mid-run.
  void Reserve(std::size_t points) { points_.reserve(points); }

  // Value as of time `at` under sample-and-hold semantics (the value of the
  // most recent sample at or before `at`).  Returns `fallback` before the
  // first sample — unlike TimeWeightedMean, which extends the first point's
  // value backwards instead of consulting a fallback.
  double ValueAt(SimTime at, double fallback = 0.0) const;

  // Min / max / time-weighted mean over [begin, end) under sample-and-hold
  // semantics.  The series value before its first point is taken as the first
  // point's value (deliberately different from ValueAt's fallback: a mean of
  // "whatever the series starts at" is more useful than mixing in a sentinel).
  // Returns 0 for an empty series or an empty window.
  double Min() const;
  double Max() const;
  double TimeWeightedMean(SimTime begin, SimTime end) const;

  // Downsamples to a fixed-interval moving average: the mean of all samples
  // whose time falls in each [k*interval, (k+1)*interval) bucket.  Buckets
  // with no samples repeat the previous bucket's value.
  TraceSeries Rebucket(SimTime interval) const;

  // Device-snapshot support (src/sim/snapshot.h): the points as one raw POD
  // span.  LoadState restores in place — shrinking back to the snapshot
  // length reuses the reserved capacity, so fleet device cycling never
  // reallocates a series.
  void SaveState(SnapshotWriter* w) const {
    w->U64(points_.size());
    if (!points_.empty()) {
      w->Bytes(points_.data(), points_.size() * sizeof(TracePoint));
    }
  }
  void LoadState(SnapshotReader* r) {
    const std::size_t n = static_cast<std::size_t>(r->U64());
    points_.resize(n);
    if (n > 0) {
      r->Bytes(points_.data(), n * sizeof(TracePoint));
    }
  }

 private:
  std::string name_;
  std::vector<TracePoint> points_;
};

// A named collection of series.
class TraceSink {
 public:
  // Returns the series with `name`, creating it on first use.
  TraceSeries& Series(const std::string& name);

  // Read-only lookup; nullptr if the series does not exist.
  const TraceSeries* Find(const std::string& name) const;

  // All series names, sorted.
  std::vector<std::string> Names() const;

  // Writes one series as two-column CSV ("time_us,value").
  void WriteCsv(const std::string& name, std::ostream& os) const;

  // Device-snapshot support: positional restore over the sorted series map,
  // each entry verified by name hash (the series set is fixed once the
  // kernel has bound and reserved its traces).
  void SaveState(SnapshotWriter* w) const {
    w->U64(series_.size());
    for (const auto& [name, series] : series_) {
      w->U64(Fnv1a64(name));
      series.SaveState(w);
    }
  }
  void LoadState(SnapshotReader* r) {
    if (r->U64() != series_.size()) {
      r->Fail();
      return;
    }
    for (auto& [name, series] : series_) {
      if (r->U64() != Fnv1a64(name)) {
        r->Fail();
        return;
      }
      series.LoadState(r);
    }
  }

 private:
  std::map<std::string, TraceSeries> series_;
};

}  // namespace dcs

#endif  // SRC_SIM_TRACE_SINK_H_
