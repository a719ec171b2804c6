// Fixture: ignored-result — Errno propagation must not be dropped.
#pragma once

namespace fixture {

enum class Errno : int { ok = 0, io };

template <typename T>
class Result {
 public:
  Result(T) {}
  Result(Errno) {}
  bool ok() const { return true; }
};

// Declarations mimicking src/ headers: the linter collects these names.
Result<int> frob_fixture(int fd);
Result<int> unlink_fixture(const char* path);

struct Dir {
  Result<int> remove_fixture(const char* name);
};

inline void cases(Dir& d) {
  // BAD: bare expression statement — the Errno vanishes.
  frob_fixture(3);  // EXPECT-LINT: ignored-result

  // BAD: method call through a receiver, same silent drop.
  d.remove_fixture("x");  // EXPECT-LINT: ignored-result

  // BAD: (void) hides the drop from [[nodiscard]] but not from the linter;
  // intentional discards must carry a lint-allow comment instead.
  (void)unlink_fixture("/tmp/y");  // EXPECT-LINT: ignored-result

  // GOOD: captured.
  auto r1 = frob_fixture(4);
  (void)r1;

  // GOOD: checked inline.
  if (d.remove_fixture("z").ok()) {
    frob_fixture(5).ok();
  }

  // GOOD (suppressed): best-effort cleanup where failure is acceptable.
  unlink_fixture("/tmp/scratch");  // daosim-lint: allow(ignored-result): best-effort cleanup, ENOENT is fine

  // BAD: a control-clause prefix does not make the statement any less bare —
  // the drop is just conditional.
  if (d.remove_fixture("w").ok()) unlink_fixture("/tmp/w");  // EXPECT-LINT: ignored-result
  while (frob_fixture(6).ok()) frob_fixture(7);  // EXPECT-LINT: ignored-result

  // GOOD: the call's value is consumed by the condition itself.
  if (frob_fixture(8).ok()) {
  }
}

// BAD: a call-expression receiver (`dir().x()`) is still a bare statement.
inline Dir& dir();
inline void receiver_cases() {
  dir().remove_fixture("r");  // EXPECT-LINT: ignored-result

  // GOOD: chained past the call — the Result is consumed.
  if (!dir().remove_fixture("s").ok()) {
  }
}

// A name declared with a Result and with a non-Result return type is
// ambiguous, so the rule drops it. `SubmitResult` only contains the word: a
// `CoTask<SubmitResult>` return is not a Result.
struct SubmitResult {};
template <typename T>
class CoTask {};
Result<int> submit(int n);
struct Node {
  CoTask<SubmitResult> submit(int term, int n);
};
Result<int> settle(int n);

inline void ambiguous_cases(Node& node) {
  // GOOD: `submit` is ambiguous by name, so neither call is judged.
  submit(1);
  (void)node.submit(2, 3);

  // BAD: `settle` is only ever a Result.
  settle(4);  // EXPECT-LINT: ignored-result
}

}  // namespace fixture
