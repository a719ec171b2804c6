// Fixture: rebuild-idempotency — a handler of the typed RebuildDone command
// must be duplicate-apply guarded. Reports are retried on lost replies and
// re-driven tasks, so the same (engine, version) reaches apply() more than
// once.
#pragma once

#include <map>
#include <set>

namespace fixture {

struct RebuildDone {
  unsigned engine = 0;
  unsigned version = 0;
};
enum class Outcome { counted, dup, stale };

struct Task {
  std::set<unsigned> done;
};

struct GuardedSm {
  std::map<unsigned, Task> rebuilds;

  // Declarations carry no body and are not handlers.
  Outcome exec(const RebuildDone& c);
};

// GOOD: insert(..).second absorbs the duplicate before it can count.
inline Outcome GuardedSm::exec(const RebuildDone& c) {
  auto it = rebuilds.find(c.version);
  if (it == rebuilds.end()) return Outcome::stale;
  if (!it->second.done.insert(c.engine).second) return Outcome::dup;
  return Outcome::counted;
}

struct MembershipSm {
  std::map<unsigned, Task> rebuilds;

  // GOOD: contains() membership test before mutating.
  Outcome exec(const RebuildDone& c) {
    if (rebuilds[c.version].done.contains(c.engine)) return Outcome::dup;
    rebuilds[c.version].done.emplace(c.engine);
    return Outcome::counted;
  }
};

struct UnguardedSm {
  std::map<unsigned, Task> rebuilds;
  unsigned reports = 0;

  // BAD: a retried report re-runs the body and double-counts the engine.
  Outcome exec(const RebuildDone& c) {  // EXPECT-LINT: rebuild-idempotency
    rebuilds[c.version].done.emplace(c.engine);
    ++reports;
    return Outcome::counted;
  }

  // BAD: the same handler written as a visitor lambda.
  Outcome dispatch(unsigned engine, unsigned version) {
    auto handler = [this](const RebuildDone& d) {  // EXPECT-LINT: rebuild-idempotency
      rebuilds[d.version].done.emplace(d.engine);
      return Outcome::counted;
    };
    return handler(RebuildDone{engine, version});
  }
};

}  // namespace fixture
