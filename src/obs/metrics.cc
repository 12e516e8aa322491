#include "src/obs/metrics.h"

#include <charconv>
#include <cstdio>

namespace dcs {

double LogHistogram::ApproxQuantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  // A NaN quantile slips through std::clamp unchanged, and casting it to an
  // integer rank below is UB; empty-stream callers that compute q from a
  // zero denominator must degrade to p0, not garbage.
  if (std::isnan(q)) {
    q = 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen > rank) {
      return BucketUpperBound(i);
    }
  }
  return max_;
}

void LogHistogram::MergeFrom(const LogHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] += other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, counter] : other.counters_) {
    counters_[name].Inc(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    gauges_[name].MergeFrom(gauge);
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].MergeFrom(histogram);
  }
}

namespace {

constexpr std::uint32_t kMetricsTag = 0x4D455452u;  // "METR"

}  // namespace

void MetricsRegistry::SaveState(SnapshotWriter* w) const {
  w->Tag(kMetricsTag);
  w->U64(counters_.size());
  for (const auto& [name, counter] : counters_) {
    w->U64(Fnv1a64(name));
    w->U64(counter.value());
  }
  w->U64(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    w->U64(Fnv1a64(name));
    w->F64(gauge.sum());
    w->U64(gauge.samples());
  }
  w->U64(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    w->U64(Fnv1a64(name));
    w->Bytes(histogram.buckets().data(), sizeof(std::uint64_t) * LogHistogram::kBuckets);
    w->U64(histogram.count());
    w->F64(histogram.sum());
    w->F64(histogram.min());
    w->F64(histogram.max());
  }
}

void MetricsRegistry::LoadState(SnapshotReader* r) {
  r->Tag(kMetricsTag);
  bool aligned = true;
  if (r->U64() != counters_.size()) {
    aligned = false;
  }
  for (auto& [name, counter] : counters_) {
    if (!aligned) break;
    aligned = r->U64() == Fnv1a64(name);
    counter.Restore(r->U64());
  }
  if (aligned && r->U64() != gauges_.size()) {
    aligned = false;
  }
  for (auto& [name, gauge] : gauges_) {
    if (!aligned) break;
    aligned = r->U64() == Fnv1a64(name);
    const double sum = r->F64();
    gauge.Restore(sum, r->U64());
  }
  if (aligned && r->U64() != histograms_.size()) {
    aligned = false;
  }
  std::array<std::uint64_t, LogHistogram::kBuckets> buckets;
  for (auto& [name, histogram] : histograms_) {
    if (!aligned) break;
    aligned = r->U64() == Fnv1a64(name);
    r->Bytes(buckets.data(), sizeof(std::uint64_t) * LogHistogram::kBuckets);
    const std::uint64_t count = r->U64();
    const double sum = r->F64();
    const double min = r->F64();
    const double max = r->F64();
    histogram.Restore(buckets, count, sum, min, max);
  }
  if (!aligned) {
    // The registry's key set does not match the image's (a producer bound
    // after the snapshot was taken, or vice versa).
    r->Fail();
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) {
    return "0";
  }
  return std::string(buf, end);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void WriteHistogramJson(std::ostream& os, const LogHistogram& h) {
  os << "{\"count\":" << h.count() << ",\"sum\":" << JsonNumber(h.sum())
     << ",\"min\":" << JsonNumber(h.min()) << ",\"max\":" << JsonNumber(h.max())
     << ",\"mean\":" << JsonNumber(h.mean())
     << ",\"p50\":" << JsonNumber(h.ApproxQuantile(0.50))
     << ",\"p95\":" << JsonNumber(h.ApproxQuantile(0.95))
     << ",\"p99\":" << JsonNumber(h.ApproxQuantile(0.99))
     << ",\"p999\":" << JsonNumber(h.ApproxQuantile(0.999)) << ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < LogHistogram::kBuckets; ++i) {
    const std::uint64_t n = h.buckets()[static_cast<std::size_t>(i)];
    if (n == 0) {
      continue;
    }
    os << (first ? "" : ",") << "[" << JsonNumber(LogHistogram::BucketUpperBound(i)) << ","
       << n << "]";
    first = false;
  }
  os << "]}";
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << counter.value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << JsonNumber(gauge.value());
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":";
    WriteHistogramJson(os, histogram);
    first = false;
  }
  os << "}}";
}

void MetricsRegistry::WriteText(std::ostream& os) const {
  for (const auto& [name, counter] : counters_) {
    os << name << " " << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << name << " " << JsonNumber(gauge.value()) << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    os << name << " count=" << histogram.count() << " mean=" << JsonNumber(histogram.mean())
       << " min=" << JsonNumber(histogram.min()) << " max=" << JsonNumber(histogram.max())
       << " p50=" << JsonNumber(histogram.ApproxQuantile(0.50))
       << " p95=" << JsonNumber(histogram.ApproxQuantile(0.95))
       << " p99=" << JsonNumber(histogram.ApproxQuantile(0.99))
       << " p999=" << JsonNumber(histogram.ApproxQuantile(0.999)) << "\n";
  }
}

}  // namespace dcs
