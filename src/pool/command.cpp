#include "pool/command.hpp"

#include "engine/proto.hpp"

namespace daosim::pool {

namespace {
constexpr sim::Time kSvcRetryDelay = 50 * sim::kMs;

struct PayloadBytes {
  std::uint64_t operator()(std::monostate) const { return 0; }
  std::uint64_t operator()(const ContList& l) const { return 4 + 16 * l.conts.size(); }
  std::uint64_t operator()(const MapState& m) const { return 8 + 4 * m.excluded.size(); }
  std::uint64_t operator()(const SnapEpochs& s) const { return 4 + 8 * s.epochs.size(); }
  std::uint64_t operator()(const auto& fixed) const { return sizeof(fixed); }
};
}  // namespace

std::uint64_t wire_bytes(const Command& cmd) {
  // A one-byte command tag, then the struct's fixed-width fields.
  return 1 + std::visit([](const auto& c) -> std::uint64_t { return sizeof(c); }, cmd);
}

std::uint64_t wire_bytes(const Reply& reply) {
  return sizeof(Errno) + std::visit(PayloadBytes{}, reply.body);
}

sim::CoTask<Result<Reply>> SvcRoute::request(Command cmd, int attempts) {
  DAOSIM_REQUIRE(!replicas_.empty(), "no pool service replicas");
  const std::uint64_t wire = kSvcMsgBytes + wire_bytes(cmd);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const net::NodeId dst = hint_ ? *hint_ : replicas_[std::size_t(attempt) % replicas_.size()];
    net::Body body = net::Body::make(PoolSvcReq{cmd});
    net::Reply r = co_await ep_.call(dst, engine::kOpPoolSvc, std::move(body), wire);
    if (r.status == Errno::ok) {
      hint_ = dst;
      co_return r.body.get<PoolSvcResp>().reply;
    }
    hint_.reset();
    if (r.status == Errno::again && r.body.has_value()) {
      hint_ = r.body.get<PoolSvcResp>().leader_hint;
    }
    co_await ep_.domain().scheduler().delay(kSvcRetryDelay);
  }
  co_return Errno::timed_out;
}

}  // namespace daosim::pool
