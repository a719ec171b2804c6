// Typed pool-service commands: the kOpPoolSvc request/reply format, the way
// CaRT declares typed RPC formats rather than strings parsed at both ends.
// A caller sends one Command in a PoolSvcReq; the Raft leader commits it as
// a net::Body and every replica's PoolMetaSm applies it. The Reply carries
// the state machine's Errno and, when ok, the payload named below:
//
//   ContCreate {cont, props}     -> ok | exists
//   ContOpen {cont}              -> ContProps | no_entry
//   ContDestroy {cont}           -> ok | no_entry
//   AllocOids {cont, count}      -> OidBase (first of `count` ids) | no_entry
//   ListConts {}                 -> ContList
//   PoolEvict {engine}           -> MapVersion   (idempotent)
//   PoolReint {engine}           -> MapVersion   (idempotent)
//   MapQuery {}                  -> MapState
//   RebuildDone {engine, version}-> DoneOutcome (counted | dup | stale)
//   SnapCreate {cont, epoch}     -> ok | no_entry (re-creating is a no-op)
//   SnapDestroy {cont, epoch}    -> ok | no_entry
//   SnapList {cont}              -> SnapEpochs (ascending) | no_entry
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "net/rpc.hpp"
#include "pool/pool_map.hpp"

namespace daosim::pool {

struct ContCreate {
  vos::Uuid cont;
  ContProps props;
};
struct ContOpen {
  vos::Uuid cont;
};
struct ContDestroy {
  vos::Uuid cont;
};
struct AllocOids {
  vos::Uuid cont;
  std::uint64_t count = 0;
};
struct ListConts {};
struct PoolEvict {
  net::NodeId engine = 0;
};
struct PoolReint {
  net::NodeId engine = 0;
};
struct MapQuery {};
struct RebuildDone {
  net::NodeId engine = 0;
  std::uint32_t version = 0;  // map version of the task being reported
};
struct SnapCreate {
  vos::Uuid cont;
  vos::Epoch epoch = 0;
};
struct SnapDestroy {
  vos::Uuid cont;
  vos::Epoch epoch = 0;
};
struct SnapList {
  vos::Uuid cont;
};

using Command = std::variant<ContCreate, ContOpen, ContDestroy, AllocOids, ListConts, PoolEvict,
                             PoolReint, MapQuery, RebuildDone, SnapCreate, SnapDestroy, SnapList>;

// Reply payloads.
struct OidBase {
  std::uint64_t base = 0;
  bool operator==(const OidBase&) const = default;
};
struct ContList {
  std::vector<vos::Uuid> conts;
  bool operator==(const ContList&) const = default;
};
struct MapVersion {
  std::uint32_t version = 0;
  bool operator==(const MapVersion&) const = default;
};
struct MapState {
  std::uint32_t version = 0;
  std::set<net::NodeId> excluded;
  bool operator==(const MapState&) const = default;
};
/// rebuild_done outcome: counted, a duplicate report, or a report for a task
/// that no longer exists.
enum class DoneOutcome : std::uint8_t { counted, dup, stale };
struct SnapEpochs {
  std::vector<vos::Epoch> epochs;
  bool operator==(const SnapEpochs&) const = default;
};

using ReplyBody = std::variant<std::monostate, ContProps, OidBase, ContList, MapVersion, MapState,
                               DoneOutcome, SnapEpochs>;

struct Reply {
  Errno status = Errno::ok;
  ReplyBody body;  // std::monostate unless status is ok and the command has a payload
  bool operator==(const Reply&) const = default;
};

/// Modelled encoding sizes: each field at its fixed width, lists at their
/// element count. Header bytes are charged separately by the sender.
std::uint64_t wire_bytes(const Command& cmd);
std::uint64_t wire_bytes(const Reply& reply);

/// Fixed request header of every kOpPoolSvc message.
constexpr std::uint64_t kSvcMsgBytes = 128;

struct PoolSvcReq {
  Command command;
};

struct PoolSvcResp {
  Reply reply;                               // meaningful when the RPC status is ok
  std::optional<net::NodeId> leader_hint{};  // when redirected
};

/// A pool-service round trip as one Errno: the transport error, else the
/// state machine's status.
inline Errno reply_status(const Result<Reply>& r) { return r.ok() ? r->status : r.error(); }

/// The payload of a successful round trip, or its reply_status().
template <typename T>
Result<T> reply_as(const Result<Reply>& r) {
  if (const Errno st = reply_status(r); st != Errno::ok) return st;
  return std::get<T>(r->body);
}

/// An engine-side service's route to the pool service: the replica list and
/// the last leader that answered.
class SvcRoute {
 public:
  SvcRoute(net::RpcEndpoint& ep, std::vector<net::NodeId> replicas)
      : ep_(ep), replicas_(std::move(replicas)) {}

  bool empty() const { return replicas_.empty(); }
  /// The leader may have moved (e.g. while this engine was down).
  void forget_leader() { hint_.reset(); }

  /// Sends `cmd` to the last leader that answered, else to replica
  /// `attempt % n`, following redirect hints, for at most `attempts` tries
  /// 50 ms apart. Errno::timed_out when no leader answered.
  sim::CoTask<Result<Reply>> request(Command cmd, int attempts);

 private:
  net::RpcEndpoint& ep_;
  std::vector<net::NodeId> replicas_;
  std::optional<net::NodeId> hint_;
};

}  // namespace daosim::pool
