#include "src/sim/simulator.h"

#include <utility>

namespace dcs {

// Publishes a loop's deadline to FireInline for the loop's lifetime and
// restores the enclosing one on exit, a throwing callback included.
class Simulator::LoopScope {
 public:
  LoopScope(Simulator* sim, SimTime deadline)
      : sim_(sim), outer_(std::exchange(sim->loop_deadline_, deadline)) {}
  LoopScope(const LoopScope&) = delete;
  LoopScope& operator=(const LoopScope&) = delete;
  ~LoopScope() { sim_->loop_deadline_ = outer_; }

 private:
  Simulator* sim_;
  SimTime outer_;
};

bool Simulator::FireInline(SimTime at) {
  assert(at >= now_ && "FireInline in the past");
  if (at > loop_deadline_ || stop_requested_ || CancelRequested() ||
      (!queue_.Empty() && queue_.NextTime() <= at)) {
    return false;
  }
  now_ = at;
  queue_.SkipSeq();
  ++events_executed_;
  return true;
}

bool Simulator::Cancel(EventId id) {
  const bool cancelled = queue_.Cancel(id);
  if (cancelled) {
    ++events_cancelled_;
  }
  return cancelled;
}

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  EventQueue::Entry entry = queue_.Pop();
  now_ = entry.at;
  ++events_executed_;
  entry.fn();
  return true;
}

void Simulator::Run() {
  // A stop requested before the loop starts (or during a previous callback)
  // is sticky: it halts this run immediately and is consumed on exit, so the
  // next Run()/RunUntil() proceeds normally.  A cancellation token is
  // checked between events too but is never consumed.
  const LoopScope loop(this, SimTime::Max());
  while (!stop_requested_ && !CancelRequested() && Step()) {
  }
  stop_requested_ = false;
}

void Simulator::RunUntil(SimTime deadline) {
  const LoopScope loop(this, deadline);
  while (!stop_requested_ && !CancelRequested() && !queue_.Empty() &&
         queue_.NextTime() <= deadline) {
    Step();
  }
  const bool stopped = std::exchange(stop_requested_, false);
  // A cancelled run leaves now_ wherever the last event put it: the
  // simulation did not reach the deadline and must not pretend it did.
  if (!stopped && !CancelRequested() && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace dcs
