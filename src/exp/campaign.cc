#include "src/exp/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/exp/atomic_io.h"
#include "src/obs/metrics.h"
#include "src/sim/arena.h"
#include "src/sim/simulator.h"

namespace dcs {
namespace {

std::string FingerprintHex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

void Note(const std::string& message) {
  std::fprintf(stderr, "[campaign] %s\n", message.c_str());
}

}  // namespace

CampaignRunner::CampaignRunner(SweepOptions options) : options_(std::move(options)) {}

SweepJobResult CampaignRunner::RunJobWithWatchdog(const ExperimentConfig& config,
                                                  std::uint32_t* attempts,
                                                  bool* quarantined) {
  const CampaignOptions& campaign = options_.campaign;
  const int max_attempts = campaign.max_retries + 1;
  SweepJobResult slot;
  *quarantined = false;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    *attempts = static_cast<std::uint32_t>(attempt) + 1;
    if (attempt > 0) {
      // Bounded exponential backoff before each retry — the same 2^k shape
      // as Kernel::RetryTransition, in wall milliseconds instead of quanta.
      const double backoff_ms = campaign.retry_backoff_ms * static_cast<double>(1 << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
    }

    std::atomic<bool> cancel{false};
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    std::thread watchdog;
    ExperimentConfig job = config;
    if (campaign.job_timeout > 0.0) {
      job.cancel = &cancel;
      watchdog = std::thread([&] {
        std::unique_lock<std::mutex> lock(mutex);
        const auto budget = std::chrono::duration<double>(campaign.job_timeout);
        if (!cv.wait_for(lock, budget, [&] { return finished; })) {
          cancel.store(true, std::memory_order_relaxed);
        }
      });
    }

    // Worker-local arena, reused across every job and retry this thread
    // runs (campaign workers are long-lived sweep threads).  Reset before
    // the run, not after, so a thrown attempt — whose arena-bound state has
    // already unwound — still recycles its blocks.
    static thread_local Arena arena;
    arena.Reset();
    job.arena = &arena;

    bool permanent = false;
    slot = SweepJobResult{};
    try {
      slot.result = job_fn_ ? job_fn_(job) : RunExperiment(job);
    } catch (const CancelledError& e) {
      slot.error = "watchdog timeout after " + std::to_string(campaign.job_timeout) +
                   "s: " + e.what();
    } catch (const std::invalid_argument& e) {
      // A config the harness rejects fails the same way every time; retrying
      // it only burns wall clock.
      slot.error = e.what();
      permanent = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }

    if (watchdog.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        finished = true;
      }
      cv.notify_all();
      watchdog.join();
    }

    if (slot.ok() || permanent) {
      break;
    }
  }

  if (!slot.ok()) {
    *quarantined = true;
  }
  return slot;
}

std::vector<SweepJobResult> CampaignRunner::Run(const std::vector<ExperimentConfig>& configs) {
  const CampaignOptions& campaign = options_.campaign;
  const std::uint32_t job_count = static_cast<std::uint32_t>(configs.size());
  std::vector<std::uint64_t> config_fps(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    config_fps[i] = ConfigFingerprint(configs[i]);
  }
  const std::uint64_t grid_fp = GridFingerprint(config_fps);

  report_ = CampaignReport{};
  report_.jobs = static_cast<int>(job_count);
  sweep_metrics_ = SweepMetrics{};
  std::vector<SweepJobResult> results(configs.size());
  std::vector<char> done(configs.size(), 0);
  std::vector<std::uint32_t> attempts(configs.size(), 0);
  std::vector<char> quarantined(configs.size(), 0);

  // An ObsCapture (full power tape + scheduler log) is deliberately not
  // journaled; a grid that wants captures runs unjournaled.
  bool journaling = !campaign.resume.empty();
  for (const ExperimentConfig& config : configs) {
    if (config.capture_obs && journaling) {
      journaling = false;
      Note("grid requests capture_obs; journaling to '" + campaign.resume + "' disabled");
    }
  }

  // --- Replay ---------------------------------------------------------------
  std::unique_ptr<JournalWriter> journal;
  if (journaling) {
    report_.journal_path = campaign.resume;
    const JournalReadResult prior = ReadJournal(campaign.resume);
    for (const std::string& violation : prior.violations) {
      Note("journal '" + campaign.resume + "': " + violation);
    }
    if (prior.truncated) {
      Note("journal '" + campaign.resume + "' has a torn tail (killed mid-append); "
           "dropping it and resuming from the last complete record");
    }
    if (prior.readable) {
      const std::vector<const JournalRecord*> records =
          prior.MatchingRecords(grid_fp, job_count);
      for (const JournalRecord* record : records) {
        const std::size_t slot = record->slot;
        if (done[slot] != 0 || config_fps[slot] != record->config_fingerprint) {
          continue;
        }
        if (record->ok) {
          results[slot].result = record->result;
        } else {
          results[slot].error = record->error;
        }
        done[slot] = 1;
        attempts[slot] = record->attempts;
        quarantined[slot] = record->quarantined ? 1 : 0;
        ++report_.replayed;
      }
      report_.resumed = !records.empty();
      if (!records.empty()) {
        Note("resuming campaign " + FingerprintHex(grid_fp) + ": " +
             std::to_string(report_.replayed) + "/" + std::to_string(job_count) +
             " jobs replayed from '" + campaign.resume + "'");
      } else {
        report_.journal_mismatch = !prior.segments.empty();
        if (report_.journal_mismatch) {
          Note("journal '" + campaign.resume + "' matches no segment of campaign " +
               FingerprintHex(grid_fp) + " (different grid?); running fresh");
        }
      }
      std::string io_error;
      journal = JournalWriter::Append(campaign.resume, prior.valid_bytes, &io_error);
      if (journal == nullptr) {
        throw std::runtime_error("cannot append to " + io_error);
      }
    } else {
      std::string io_error;
      journal = JournalWriter::Create(campaign.resume, &io_error);
      if (journal == nullptr) {
        throw std::runtime_error("cannot " + io_error);
      }
    }
  }

  // --- Execute the remainder ------------------------------------------------
  std::vector<int> pending;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (done[i] == 0) {
      pending.push_back(static_cast<int>(i));
    }
  }
  report_.executed = static_cast<int>(pending.size());

  if (!pending.empty()) {
    if (journal != nullptr) {
      JournalHeader header;
      header.grid_fingerprint = grid_fp;
      header.jobs = job_count;
      header.label = configs.front().app + " x" + std::to_string(job_count);
      std::string io_error;
      if (!journal->AppendHeader(header, &io_error)) {
        throw std::runtime_error("cannot " + io_error);
      }
    }

    std::vector<ExperimentConfig> sub;
    sub.reserve(pending.size());
    for (const int slot : pending) {
      sub.push_back(configs[static_cast<std::size_t>(slot)]);
    }

    std::mutex journal_mutex;
    bool journal_failed = false;
    SweepJobHooks hooks;
    hooks.execute = [&](const ExperimentConfig& config, int sub_index) {
      const std::size_t slot = static_cast<std::size_t>(pending[static_cast<std::size_t>(sub_index)]);
      bool was_quarantined = false;
      SweepJobResult result =
          RunJobWithWatchdog(config, &attempts[slot], &was_quarantined);
      quarantined[slot] = was_quarantined ? 1 : 0;
      return result;
    };
    if (journal != nullptr) {
      hooks.on_result = [&](int sub_index, const SweepJobResult& slot_result) {
        const std::size_t slot = static_cast<std::size_t>(pending[static_cast<std::size_t>(sub_index)]);
        JournalRecord record;
        record.slot = static_cast<std::uint32_t>(slot);
        record.config_fingerprint = config_fps[slot];
        record.ok = slot_result.ok();
        record.quarantined = quarantined[slot] != 0;
        record.attempts = attempts[slot];
        record.error = slot_result.error;
        if (slot_result.ok()) {
          record.result = *slot_result.result;
        }
        const std::lock_guard<std::mutex> lock(journal_mutex);
        if (journal_failed) {
          return;
        }
        std::string io_error;
        if (!journal->AppendRecord(record, &io_error)) {
          // Persistence degrades, the campaign itself keeps running: losing
          // the checkpoint must never lose the computation.
          journal_failed = true;
          Note("cannot " + io_error + "; continuing without checkpointing");
        }
      };
    }

    SweepOptions sub_options = options_;
    sub_options.campaign = CampaignOptions{};  // no recursion
    SweepRunner engine(sub_options);
    std::vector<SweepJobResult> sub_results = engine.Run(sub, hooks);
    sweep_metrics_ = engine.metrics();
    for (std::size_t k = 0; k < sub_results.size(); ++k) {
      results[static_cast<std::size_t>(pending[k])] = std::move(sub_results[k]);
    }
    // Retries counted from per-slot attempts after the join — each slot is
    // written by exactly one worker, so no shared counter is needed.
    for (const int slot : pending) {
      const std::uint32_t a = attempts[static_cast<std::size_t>(slot)];
      if (a > 1) {
        report_.retries += a - 1;
      }
    }
  }

  // --- Quarantine report ----------------------------------------------------
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (quarantined[i] == 0) {
      continue;
    }
    QuarantineEntry entry;
    entry.slot = static_cast<int>(i);
    entry.app = configs[i].app;
    entry.governor = configs[i].governor;
    entry.seed = configs[i].seed;
    entry.config_fingerprint = config_fps[i];
    entry.attempts = static_cast<int>(attempts[i]);
    entry.error = results[i].error;
    report_.quarantined.push_back(std::move(entry));
  }
  const std::string quarantine_path = campaign.QuarantinePath();
  if (!quarantine_path.empty()) {
    report_.quarantine_path = quarantine_path;
    std::string io_error;
    if (!AtomicWriteFile(quarantine_path,
                         RenderQuarantineJson(grid_fp, static_cast<int>(job_count),
                                              report_.quarantined),
                         &io_error)) {
      throw std::runtime_error("cannot write quarantine report: " + io_error);
    }
    if (!report_.quarantined.empty()) {
      Note(std::to_string(report_.quarantined.size()) + " config(s) quarantined; see " +
           quarantine_path);
    }
  }
  return results;
}

std::string RenderQuarantineJson(std::uint64_t grid_fingerprint, int jobs,
                                 const std::vector<QuarantineEntry>& entries) {
  std::ostringstream os;
  os << "{\"campaign\":\"" << FingerprintHex(grid_fingerprint) << "\",\"jobs\":" << jobs
     << ",\"quarantined\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const QuarantineEntry& e = entries[i];
    os << (i == 0 ? "" : ",") << "{\"slot\":" << e.slot << ",\"app\":\""
       << JsonEscape(e.app) << "\",\"governor\":\"" << JsonEscape(e.governor)
       << "\",\"seed\":" << e.seed << ",\"fingerprint\":\""
       << FingerprintHex(e.config_fingerprint) << "\",\"attempts\":" << e.attempts
       << ",\"error\":\"" << JsonEscape(e.error) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace dcs
