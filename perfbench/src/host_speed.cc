#include "perfbench/src/host_speed.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

constexpr int kEvents = 2048;
constexpr int kSteps = 12000;
constexpr std::uint32_t kStateSlots = 1u << 15;
constexpr int kTranscendentals = 20000;
constexpr std::size_t kCopyBytes = 512u << 10;
constexpr int kCopies = 4;
constexpr std::size_t kChecksumBytes = 128u << 10;

using Event = std::pair<std::uint64_t, std::uint32_t>;  // (due time, id)

// An event loop like the simulator's: a binary heap of timed events, each
// pop updating a hashed state slot and pushing a follow-up.
std::uint64_t EventLoop(HostSpeed::Buffers& b) {
  const auto later = [](const Event& a, const Event& c) { return a.first > c.first; };
  std::vector<Event>& heap = b.heap;
  heap.clear();
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    heap.push_back({next() & 0xffff, i});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::uint64_t now = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event ev = heap.back();
    heap.pop_back();
    now = ev.first;
    std::uint64_t& s = b.state[(ev.second * 2654435761u) & (kStateSlots - 1)];
    s = s * 6364136223846793005ULL + now;
    const bool short_delay = (s & 1) != 0;
    heap.push_back({now + 1 + (next() & (short_delay ? 0x3ff : 0xfff)),
                    short_delay ? ev.second : ev.second ^ 1});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return now + b.state[now & (kStateSlots - 1)];
}

// libm log/cos, as in the DAQ's Box-Muller noise.
double Transcendentals() {
  double acc = 0.0;
  double u = 0.5;
  for (int i = 0; i < kTranscendentals; ++i) {
    u = u * 0.999 + 1e-4;
    acc += std::log(u) * std::cos(acc + u);
  }
  return acc;
}

// A bulk copy, as in journal reads and snapshot restores.
char Copy(HostSpeed::Buffers& b) {
  for (int i = 0; i < kCopies; ++i) {
    std::memcpy(b.to.data(), b.from.data(), kCopyBytes);
    b.from[kCopyBytes / 2] = b.to[kCopyBytes / 2 + 1];
  }
  return b.to[kCopyBytes / 2];
}

// A table-driven CRC-32 over part of a buffer, as in the journal's frame
// check.
std::uint32_t Checksum(const HostSpeed::Buffers& b) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(b.to[i])) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

// One run of the reference kernel; returns its time in milliseconds.
double KernelMs(HostSpeed::Buffers& buffers) {
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t a = EventLoop(buffers);
  const double b = Transcendentals();
  const char c = Copy(buffers);
  const std::uint32_t d = Checksum(buffers);
  const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
  volatile double sink = static_cast<double>(a) + b + c + d;
  (void)sink;
  return ms;
}

}  // namespace

HostSpeed::Buffers::Buffers()
    : state(kStateSlots), heap(kEvents), from(kCopyBytes, 1), to(kCopyBytes, 0) {}

HostSpeed::HostSpeed(int threads) : buffers_(static_cast<std::size_t>(threads)) {}

void HostSpeed::Sample() {
  const std::size_t threads = buffers_.size();
  std::vector<double> ms(threads);
  std::vector<std::thread> others;
  // The first run only warms the kernel's buffers and code: a workload that
  // leaves the caches colder would otherwise slow the kernel with it and so
  // cancel part of its own slowdown in the adjusted figures.
  const auto timed = [this, &ms](std::size_t t) {
    KernelMs(buffers_[t]);
    ms[t] = KernelMs(buffers_[t]);
  };
  for (std::size_t t = 1; t < threads; ++t) {
    others.emplace_back(timed, t);
  }
  timed(0);
  for (std::thread& t : others) {
    t.join();
  }
  double sum = 0.0;
  for (const double m : ms) {
    sum += m;
  }
  samples_ms_.push_back(sum / static_cast<double>(threads));
  last_ = Clock::now();
}

double HostSpeed::factor() const {
  std::vector<double> sorted = samples_ms_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t trim = sorted.size() / 10;
  double sum = 0.0;
  for (std::size_t i = trim; i < sorted.size() - trim; ++i) {
    sum += sorted[i];
  }
  return sum / static_cast<double>(sorted.size() - 2 * trim) / kNominalMs;
}

void HostSpeed::MaybeSample() {
  if (SecondsBetween(last_, Clock::now()) >= kIntervalS) {
    Sample();
  }
}

}  // namespace perfbench
