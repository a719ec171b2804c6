// The discrete-event scheduler: (time, sequence) ordered events driving
// coroutine resumptions and plain callbacks under a virtual clock. Events for
// the current instant wait in a FIFO ready lane; only future events go through
// the binary heap. Single-threaded and fully deterministic.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/co_task.hpp"
#include "sim/time.hpp"

namespace daosim::sim {

class Scheduler;

/// Causal trace context: identifies one span inside one trace tree. A context
/// is allocated at a trace root (a sampled client op, a DTX commit, a rebuild
/// assignment, a SWIM probe round) and handed down the call chain; each hop
/// derives a child with `child()`. All-zero means "not traced" — span ids are
/// never 0, so `active()` distinguishes sampled from unsampled work, and a
/// child of an inactive context stays inactive (sampling decisions propagate
/// for free). Plain value type: copying or dropping one never schedules.
struct TraceContext {
  std::uint64_t trace_id = 0;   ///< root span id of the whole tree
  std::uint64_t span_id = 0;    ///< this span
  std::uint64_t parent_id = 0;  ///< enclosing span (0 for the root)

  bool active() const { return trace_id != 0; }
  /// Derives the context of a child span with the given freshly-allocated id
  /// (see Scheduler::alloc_span_id). Inactive contexts stay inactive.
  TraceContext child(std::uint64_t id) const {
    return active() ? TraceContext{trace_id, id, span_id} : TraceContext{};
  }
  /// Starts a new trace tree rooted at span `id`. The only sanctioned way to
  /// originate a context (see the orphan-span lint rule): everything below a
  /// root must derive via child(), so every span id has a reachable parent.
  static TraceContext root(std::uint64_t id) { return TraceContext{id, id, 0}; }
};

/// Passive receiver for structured trace spans (RPCs, media transfers,
/// rebuild tasks). Implementations record the span; they must not touch the
/// scheduler — a sink never schedules events, so attaching one cannot change
/// `trace_hash()` or any simulated timing.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  /// One completed span: `category` is a static label ("rpc", "xfer",
  /// "media", "rebuild", "op", "svc", "queue", "vos", ...), `name` a
  /// human-readable description, `pid`/`tid` a process/track grouping
  /// (typically node id / opcode or stream), [begin, end] the simulated-time
  /// interval and `ctx` the causal linkage (inactive when the work was not
  /// sampled into a trace tree).
  virtual void span(const char* category, std::string name, std::uint32_t pid,
                    std::uint64_t tid, Time begin, Time end, TraceContext ctx = {}) = 0;
};

/// Handle to a cancellable callback timer (see Scheduler::schedule_callback).
/// The timer's state is shared, by a plain reference count, between every
/// handle copy and the scheduler's queue entry; whichever lets go last frees
/// it, so a handle may outlive its scheduler.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer& o) : state_(o.state_) {
    if (state_) ++state_->refs;
  }
  Timer(Timer&& o) noexcept : state_(std::exchange(o.state_, nullptr)) {}
  Timer& operator=(Timer o) noexcept {
    std::swap(state_, o.state_);
    return *this;
  }
  ~Timer() { release(state_); }

  /// Cancels the timer; a cancelled timer's callback never fires.
  void cancel() {
    if (state_) state_->cancelled = true;
    release(std::exchange(state_, nullptr));
  }
  bool armed() const { return state_ && !state_->cancelled && !state_->fired; }

 private:
  friend class Scheduler;
  struct State {
    std::function<void()> fn;
    std::uint32_t refs = 1;
    bool cancelled = false;
    bool fired = false;
  };
  static_assert(alignof(State) >= 2, "queue entries tag State pointers in their low bit");
  static void release(State* s) noexcept {
    if (s && --s->refs == 0) delete s;
  }
  explicit Timer(State* s) : state_(s) {}
  State* state_ = nullptr;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Destroys the frames of detached processes still suspended at teardown
  /// (e.g. blocked forever after a deadlock, or parked beyond the horizon of
  /// the last run_until). Each root frame owns its CoTask chain, so this
  /// unwinds whole processes. Then releases every timer still queued.
  ~Scheduler();

  Time now() const { return now_; }

  /// Resumes `h` at virtual time `at` (>= now). Events with equal time fire
  /// in scheduling order.
  void schedule(Time at, std::coroutine_handle<> h) {
    const auto frame = reinterpret_cast<std::uintptr_t>(h.address());
    DAOSIM_REQUIRE((frame & kTimerTag) == 0, "coroutine frame %p is not 2-aligned", h.address());
    push(at, frame);
  }

  /// Runs `fn` at virtual time `at` unless the returned Timer is cancelled.
  Timer schedule_callback(Time at, std::function<void()> fn);

  /// Launches `t` as a detached top-level process starting at the current
  /// time. Exceptions escaping the process abort run().
  void spawn(CoTask<void> t);

  /// Spawns a callable returning CoTask<void>. The callable is moved into a
  /// wrapper coroutine frame so lambda captures stay alive for the process's
  /// lifetime — always prefer this over spawning `lambda()` directly, which
  /// dangles the closure (CppCoreGuidelines CP.51).
  template <typename F>
    requires requires(F f) {
      { f() } -> std::same_as<CoTask<void>>;
    }
  void spawn(F f) {
    spawn(invoke_holding(std::move(f)));
  }

  /// Awaitable that suspends the current coroutine for `dt` virtual time.
  auto delay(Time dt) {
    struct Awaiter {
      Scheduler& s;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { s.schedule(s.now_ + dt, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Awaitable that reschedules the current coroutine behind all events
  /// already pending at the current time.
  auto yield() { return delay(0); }

  /// Drains the event queue. Throws the first exception that escaped a
  /// spawned process, or DaosimError if processes remain blocked (deadlock).
  void run();

  /// Runs until the virtual clock would pass `t`; returns true if events
  /// remain. Processes blocked on future events keep their state.
  bool run_until(Time t);

  std::size_t live_processes() const { return live_; }
  std::uint64_t events_processed() const { return events_; }

  /// Determinism-audit digest: an FNV-1a hash folding every dispatched event
  /// as the tuple (virtual time, sequence number, kind). Two runs of the same
  /// scenario must produce bit-identical digests; any divergence means hidden
  /// nondeterminism (wall-clock input, hash-order iteration, an unseeded RNG)
  /// leaked into event scheduling.
  std::uint64_t trace_hash() const { return trace_hash_; }

  /// Folds an externally-observed simulation fact into the trace digest —
  /// fault injections, recovery actions, pool-map transitions. Anything that
  /// changes the course of a run but is not itself a queue event must be
  /// noted here so fault runs stay bit-reproducible end to end.
  void trace_note(std::uint64_t v) { fold_trace(v); }

  /// Opt-in structured tracing: when a sink is attached, instrumented
  /// components emit spans to it. Null (the default) disables emission; the
  /// sink is observed-only, never owned, and never scheduled, so toggling it
  /// leaves `trace_hash()` and all timings bit-identical.
  void set_span_sink(SpanSink* sink) { span_sink_ = sink; }
  SpanSink* span_sink() const { return span_sink_; }

  /// Allocates a fresh nonzero span id for trace contexts. A bare counter
  /// increment: it never schedules and never feeds the trace digest, and it
  /// is bumped unconditionally at instrumentation sites (whether or not a
  /// sink is attached or the op was sampled), so span ids — and therefore
  /// trace JSON — are bit-identical across same-seed runs and unchanged by
  /// toggling the sink.
  std::uint64_t alloc_span_id() { return ++next_span_id_; }

 private:
  struct Detached {
    struct promise_type {
      Detached get_return_object() {
        return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept {
        // The frame self-destroys after this; drop it from the live registry.
        if (sched) sched->unregister_detached(slot);
        return {};
      }
      void return_void() noexcept {}
      void unhandled_exception() noexcept { std::terminate(); }  // body catches
      Scheduler* sched = nullptr;
      std::size_t slot = 0;
    };
    std::coroutine_handle<promise_type> h;
  };
  Detached run_detached(CoTask<void> t);
  void unregister_detached(std::size_t slot) noexcept;

  template <typename F>
  static CoTask<void> invoke_holding(F f) {
    co_await f();
  }

  /// A queue entry: 24 bytes. `ptr` is a coroutine frame address, or a
  /// Timer::State* with its low bit set; both are at least 2-aligned.
  struct Item {
    Time at;
    std::uint64_t seq;
    std::uintptr_t ptr;
    bool operator>(const Item& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  static_assert(sizeof(Item) == 24);
  static constexpr std::uintptr_t kTimerTag = 1;

  /// The ready lane: a FIFO ring of events scheduled for the current instant.
  /// It only grows, so a steady state allocates nothing.
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    void push_back(const Item& it) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_++) & (buf_.size() - 1)] = it;
    }
    Item pop_front() {
      const Item it = buf_[head_];
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
      return it;
    }

   private:
    void grow();
    std::vector<Item> buf_;  // capacity is zero or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// What a dispatched event did, folded into the trace digest.
  enum class EventKind : std::uint8_t { resume = 0, callback = 1, cancelled = 2 };

  void push(Time at, std::uintptr_t ptr) {
    if (at == now_) {
      ready_.push_back(Item{at, seq_++, ptr});
    } else {
      push_later(at, ptr);
    }
  }
  void push_later(Time at, std::uintptr_t ptr);
  bool pop_next(Time limit, Item& out);
  void dispatch(const Item& it);
  void finish_run();
  void fold_trace(std::uint64_t v) {
    // FNV-1a over the value's 8 little-endian bytes.
    for (int i = 0; i < 8; ++i) {
      trace_hash_ ^= (v >> (8 * i)) & 0xFF;
      trace_hash_ *= 0x100000001B3ULL;
    }
  }

  Ring ready_;              // events at now_, in seq order
  std::vector<Item> heap_;  // later events (or at now_, pushed earlier); min-heap
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::size_t live_ = 0;
  std::uint64_t trace_hash_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  std::uint64_t next_span_id_ = 0;
  Item last_{0, 0, 0};  // last dispatched event, for the DAOSIM_AUDIT order check
  std::vector<std::exception_ptr> errors_;
  std::vector<std::coroutine_handle<Detached::promise_type>> detached_;
  SpanSink* span_sink_ = nullptr;
};

}  // namespace daosim::sim
