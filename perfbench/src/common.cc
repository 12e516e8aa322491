#include "perfbench/src/common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

bool Goldens::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    if (line.empty() || line[0] == '#' || !(fields >> key >> hex)) {
      continue;
    }
    table_[key] = std::stoull(hex, nullptr, 16);
  }
  return true;
}

bool Goldens::Check(const std::string& key, std::uint64_t digest) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (recording_) {
    const auto [it, fresh] = table_.emplace(key, digest);
    return fresh || it->second == digest;
  }
  const auto it = table_.find(key);
  return it != table_.end() && it->second == digest;
}

bool Goldens::Write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "# Recorded output digests of every benchmark job (FNV-1a 64 over the\n"
               "# job's SerializeResult bytes, or over RenderFleetJson for fleets).\n"
               "# Regenerate with: python3 perfbench/run.py --record\n");
  for (const auto& [key, digest] : table_) {
    std::fprintf(f, "%s %016" PRIx64 "\n", key.c_str(), digest);
  }
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
