// Crash-safe file output for campaign artifacts.
//
// Every result/report/artifact writer in the harness funnels through
// AtomicWriteFile: content is rendered in memory, written to a
// pid-disambiguated temp file next to the destination, fsync'd, and renamed
// into place.  A process killed at any instant therefore leaves either the
// previous file or the new one — never a torn prefix — and a failed write
// (full disk, missing directory, stream error) removes the temp file and
// surfaces the failing path instead of returning success over a partial
// directory.
//
// Text reports can additionally carry a trailing "# crc32=XXXXXXXX" comment
// over the preceding bytes, so a consumer (or VerifyTrailingCrc) can prove a
// copied/archived report was not truncated in transit.  The same CRC32
// (IEEE 802.3, the zlib polynomial) frames every campaign journal record
// (see journal.h).

#ifndef SRC_EXP_ATOMIC_IO_H_
#define SRC_EXP_ATOMIC_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>

namespace dcs {

// CRC32 (reflected, polynomial 0xEDB88320) of `len` bytes, continuing from
// `seed` (pass a previous return value to checksum in chunks; 0 to start).
std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t seed = 0);
inline std::uint32_t Crc32(std::string_view s, std::uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

struct AtomicWriteOptions {
  // Append "# crc32=XXXXXXXX\n" over everything the writer produced.  Meant
  // for line-oriented text reports; leave off for JSON consumed by external
  // viewers (atomic rename alone already rules out torn files).
  bool trailing_crc = false;
};

// Renders `write(os)` into memory, then publishes it at `path` via temp file
// + fsync + rename.  Returns false — removing any temp file and leaving a
// pre-existing `path` untouched — if the writer reports a stream error or
// any filesystem step fails; `*error` (when non-null) then names the failing
// path and operation.
bool AtomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& write,
                     std::string* error = nullptr,
                     const AtomicWriteOptions& options = {});

// Convenience overload for pre-rendered content.
bool AtomicWriteFile(const std::string& path, const std::string& content,
                     std::string* error = nullptr,
                     const AtomicWriteOptions& options = {});

// Checks a trailing-CRC report: the last line must be "# crc32=XXXXXXXX" and
// match the CRC32 of every byte before it.  Returns false on a missing or
// mismatched trailer.
bool VerifyTrailingCrc(const std::string& content);

}  // namespace dcs

#endif  // SRC_EXP_ATOMIC_IO_H_
