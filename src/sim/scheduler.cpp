#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace daosim::sim {

void Scheduler::Ring::grow() {
  std::vector<Item> bigger(buf_.empty() ? 64 : 2 * buf_.size());
  for (std::size_t i = 0; i < size_; ++i) bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
  buf_ = std::move(bigger);
  head_ = 0;
}

void Scheduler::push_later(Time at, std::uintptr_t ptr) {
  DAOSIM_REQUIRE(at > now_, "scheduling into the past (at=%llu now=%llu)",
                 static_cast<unsigned long long>(at), static_cast<unsigned long long>(now_));
  heap_.push_back(Item{at, seq_++, ptr});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

Timer Scheduler::schedule_callback(Time at, std::function<void()> fn) {
  Timer handle(new Timer::State{std::move(fn)});
  push(at, reinterpret_cast<std::uintptr_t>(handle.state_) | kTimerTag);
  ++handle.state_->refs;  // the queue entry's reference
  return handle;
}

Scheduler::Detached Scheduler::run_detached(CoTask<void> t) {
  try {
    co_await std::move(t);
  } catch (...) {
    errors_.push_back(std::current_exception());
  }
  --live_;
}

void Scheduler::spawn(CoTask<void> t) {
  ++live_;
  Detached d = run_detached(std::move(t));
  d.h.promise().sched = this;
  d.h.promise().slot = detached_.size();
  detached_.push_back(d.h);
  schedule(now_, d.h);
}

void Scheduler::unregister_detached(std::size_t slot) noexcept {
  detached_[slot] = detached_.back();
  detached_[slot].promise().slot = slot;
  detached_.pop_back();
}

Scheduler::~Scheduler() {
  // Processes still suspended here would otherwise leak their frames. destroy()
  // runs the frame's local destructors (unwinding the owned CoTask chain) but
  // not final_suspend, so null the back-pointer and tear down back-to-front.
  while (!detached_.empty()) {
    auto h = detached_.back();
    detached_.pop_back();
    h.promise().sched = nullptr;
    h.destroy();
  }
  // Queued timers hold a reference each; handles may still hold theirs.
  auto release = [](const Item& it) {
    if (it.ptr & kTimerTag) Timer::release(reinterpret_cast<Timer::State*>(it.ptr & ~kTimerTag));
  };
  while (!ready_.empty()) release(ready_.pop_front());
  for (const Item& it : heap_) release(it);
}

bool Scheduler::pop_next(Time limit, Item& out) {
  // A heap entry at now_ was pushed before the clock reached now_, so its seq
  // is below every ready-lane seq: it goes first. Then the ready lane, in
  // FIFO (= seq) order. Only with both drained does the clock advance.
  if (now_ <= limit && !ready_.empty() && (heap_.empty() || heap_.front().at != now_)) {
    out = ready_.pop_front();
    return true;
  }
  if (heap_.empty() || heap_.front().at > limit) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  out = heap_.back();
  heap_.pop_back();
  return true;
}

void Scheduler::dispatch(const Item& it) {
  if constexpr (kAuditEnabled) {
    DAOSIM_REQUIRE(events_ == 0 || it > last_,
                   "audit: event (at=%llu seq=%llu) dispatched after (at=%llu seq=%llu)",
                   static_cast<unsigned long long>(it.at),
                   static_cast<unsigned long long>(it.seq),
                   static_cast<unsigned long long>(last_.at),
                   static_cast<unsigned long long>(last_.seq));
    last_ = it;
  }
  now_ = it.at;
  ++events_;
  fold_trace(it.at);
  fold_trace(it.seq);
  if (!(it.ptr & kTimerTag)) {
    fold_trace(std::uint64_t(EventKind::resume));
    std::coroutine_handle<>::from_address(reinterpret_cast<void*>(it.ptr)).resume();
    return;
  }
  // Drop the queue's reference once the callback returns (or throws); the
  // callback may itself drop the last handle, e.g. by re-arming it.
  struct Release {
    Timer::State* s;
    ~Release() { Timer::release(s); }
  } state{reinterpret_cast<Timer::State*>(it.ptr & ~kTimerTag)};
  if (state.s->cancelled) {
    fold_trace(std::uint64_t(EventKind::cancelled));
    return;
  }
  fold_trace(std::uint64_t(EventKind::callback));
  state.s->fired = true;
  state.s->fn();
}

void Scheduler::finish_run() {
  if (!errors_.empty()) {
    auto e = errors_.front();
    errors_.clear();
    std::rethrow_exception(e);
  }
}

void Scheduler::run() {
  Item it{};
  while (pop_next(std::numeric_limits<Time>::max(), it)) {
    dispatch(it);
    if (!errors_.empty()) finish_run();
  }
  finish_run();
  if (live_ > 0) {
    raise(strfmt("deadlock: %zu process(es) blocked with no pending events", live_));
  }
}

bool Scheduler::run_until(Time t) {
  Item it{};
  while (pop_next(t, it)) {
    dispatch(it);
    if (!errors_.empty()) finish_run();
  }
  finish_run();
  if (now_ < t) now_ = t;
  return !ready_.empty() || !heap_.empty();
}

}  // namespace daosim::sim
