// Fixture: direct-map-query — the pool-service MapQuery point query may only
// be built in client/refresh.cpp (the IV fallback). Every other client site
// must learn map versions passively from reply stamps and pull deltas from
// engines (docs/membership.md). The rule matches constructions of the typed
// command, so comment mentions — like this sentence's MapQuery{} — and
// non-constructing uses (references, std::get<MapQuery>) never fire. The
// refresh.cpp exemption is path-based and therefore not representable in a
// fixture.
#pragma once

#include <utility>
#include <variant>

namespace fixture {

struct MapQuery {};
struct PoolEvict {
  unsigned engine = 0;
};
struct PoolReint {
  unsigned engine = 0;
};
struct MapState {
  unsigned version = 0;
};
using Command = std::variant<MapQuery, PoolEvict, PoolReint>;

int svc_command(Command cmd);

inline bool is_query(const MapQuery&) { return true; }

inline void cases() {
  auto a = svc_command(MapQuery{});                           // EXPECT-LINT: direct-map-query
  MapQuery q;                                                 // EXPECT-LINT: direct-map-query
  const MapQuery q2{};                                        // EXPECT-LINT: direct-map-query
  Command b = MapQuery();                                     // EXPECT-LINT: direct-map-query
  Command c{std::in_place_type<MapQuery>};                    // EXPECT-LINT: direct-map-query
  Command d;
  d.emplace<MapQuery>();                                      // EXPECT-LINT: direct-map-query

  // GOOD: other pool-service commands are not map point queries, and
  // inspecting a command or reply builds nothing.
  auto e = svc_command(PoolReint{4});
  auto f = svc_command(PoolEvict{4});
  const bool g = std::holds_alternative<MapQuery>(b) && is_query(std::get<MapQuery>(b));
  MapState state{};

  // GOOD: the one sanctioned bootstrap site may suppress explicitly.
  auto h = svc_command(MapQuery{});  // daosim-lint: allow(direct-map-query): fixture proves the suppression path

  (void)a; (void)q; (void)q2; (void)c; (void)e; (void)f; (void)g; (void)state; (void)h;
}

}  // namespace fixture
