// compiled_routes.hpp — Per-(src, dst) forwarding tables compiled from any
// Router, stored interval-compressed.
//
// Every simulated message used to pay a virtual Router::route(s, d) call
// (plus route validation and hop expansion) on the replayer's hot path.  A
// CompiledRoutes handle is the compile-once/route-many split packet-routing
// simulators rely on: routes are built once per (topology, scheme, seed),
// validated exactly once, and looked up by (s, d) afterwards.
//
// The paper's oblivious schemes choose up-ports by arithmetic on node
// labels, so for a fixed guide column (the destination for d-mod-k-style
// schemes, the source for s-mod-k-style ones — chosen by deterministic
// sampling) the route is piecewise-constant in the other endpoint:
// consecutive ranks sharing the same up-port vector collapse into sorted
// half-open intervals, each carrying one copy of the ports.  lookup(s, d) is
// a branch-free binary search over the column's intervals.  Columns compile
// lazily in 64-column chunks on first touch — a sweep job only pays for the
// destinations it routes to — and compileAll() builds every chunk up front
// for callers that touch all pairs.  Tables shrink from O(H^2) entries to
// O(H * levels * distinct-choices); schemes with per-pair randomness
// (Random) do not compress, which estimateCompressedBytes() detects so the
// engine routes them virtually instead.
//
// The handle is immutable after compile() up to the lazily-built chunks,
// which are published atomically and never mutated afterwards, so it is
// freely shared across threads and campaign jobs (the engine memoizes it
// next to the router).  The trace layer's RouteSetResolver expands an
// upPorts() span and interns it into the network's RouteStore once per
// shared route set (see shareRep()), so repeat sends are a pure record
// append with no per-message table walk.  The same per-pair interning backs
// virtual routing for schemes the engine does not compile, which keeps
// route construction off the per-message hot path in every mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "routing/router.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace core {

class CompiledRoutes {
 public:
  /// Guide columns per lazily-compiled chunk.
  static constexpr std::uint32_t kChunkCols = 64;

  /// The ordered-pair table of @p router.  Nothing compiles up front: chunks
  /// build on first lookup, or all at once through compileAll().  Every
  /// route is validated against the topology as its chunk builds; a
  /// malformed route throws std::invalid_argument from that lookup.  The
  /// router (and through it the topology) is kept alive by the returned
  /// handle.  Host ranks are 32-bit: a topology with 2^32 hosts or more
  /// throws std::invalid_argument.
  [[nodiscard]] static std::shared_ptr<const CompiledRoutes> compile(
      std::shared_ptr<const routing::Router> router);

  /// Route supplier for compileWith(): fills @p route for (s, d) —
  /// overwriting it fully, as Router::route(s, d, out) does — and returns
  /// true, or returns false to mark the pair unroutable (upPorts() returns
  /// an empty span and unroutable() is true).  Called concurrently from the
  /// compile workers, each with its own reused buffer, so it must be
  /// thread-safe; s != d always, and every ordered pair is queried exactly
  /// once.
  using PairRoute =
      std::function<bool(xgft::NodeIndex, xgft::NodeIndex, xgft::Route&)>;

  /// compile() with @p routeFor supplying each pair's route instead of the
  /// router's own — the degraded-topology recompilation path
  /// (fault::compileDegraded).  An empty @p routeFor means the router's
  /// routes.  Supplied routes are validated exactly like compile(); pairs it
  /// declines are recorded unroutable instead of throwing.  Every chunk
  /// builds before this call returns, across @p threads workers (0 means
  /// hardware concurrency; the result is identical for any thread count):
  /// @p routeFor may reference caller-stack state, so no lazy chunk may
  /// outlive this call.
  [[nodiscard]] static std::shared_ptr<const CompiledRoutes> compileWith(
      std::shared_ptr<const routing::Router> router, const PairRoute& routeFor,
      std::uint32_t threads = 1);

  /// Bytes of a dense per-pair table for a topology (H^2 pairs of `height`
  /// port words and one length byte) — the engine's budget yardstick: a
  /// scheme whose estimateCompressedBytes() exceeds it gains nothing from a
  /// table and routes virtually.  Saturates at UINT64_MAX instead of
  /// wrapping (2^32 hosts make 2^64 pairs).
  [[nodiscard]] static std::uint64_t tableBytes(const xgft::Topology& topo);

  /// Deterministic sampled estimate of @p router's table footprint: a
  /// handful of guide columns are compressed along both axes and the denser
  /// axis' per-column bytes extrapolate to the full table.  Schemes with
  /// per-pair randomness estimate near (or above) tableBytes(), which is how
  /// the engine keeps them on virtual routing.  Throws
  /// std::invalid_argument where compile() would (2^32 hosts or more).
  [[nodiscard]] static std::uint64_t estimateCompressedBytes(
      const routing::Router& router);

  /// The ascending port choices for (s, d); length == ncaLevel(s, d), empty
  /// when s == d — and also empty for pairs a compileWith override marked
  /// unroutable.  Valid for the handle's lifetime.  A first touch of an
  /// uncompiled column builds its chunk (and may throw what compilation
  /// would have thrown).
  [[nodiscard]] std::span<const std::uint32_t> upPorts(
      xgft::NodeIndex s, xgft::NodeIndex d) const;

  /// True iff a compileWith override declared (s, d) unreachable.  A valid
  /// route for s != d always has length ncaLevel(s, d) >= 1, so a zero
  /// length is unambiguous.
  [[nodiscard]] bool unroutable(xgft::NodeIndex s, xgft::NodeIndex d) const {
    return s != d && upPorts(s, d).empty();
  }

  /// Materializes the xgft::Route for (s, d) — for analysis-style callers.
  [[nodiscard]] xgft::Route route(xgft::NodeIndex s, xgft::NodeIndex d) const;

  /// Compiles every not-yet-built chunk across @p threads workers (0 means
  /// hardware concurrency; at most one worker per chunk); chunk contents are
  /// thread-count independent.
  /// Replay-style callers that touch all pairs use this to keep compilation
  /// off the simulation path.
  void compileAll(std::uint32_t threads = 1) const;

  /// The representative source whose (rep, d) route set is bit-identical to
  /// (s, d)'s: the start of s's source interval, clipped to s's leaf group
  /// (same leaf switch + same up-ports => same switch-tail path).  Resolvers
  /// key their per-pair memos by (rep, d) so every source in the interval
  /// shares one interned route set.  s itself when the columns are
  /// source-oriented, and for s == d.
  [[nodiscard]] xgft::NodeIndex shareRep(xgft::NodeIndex s,
                                         xgft::NodeIndex d) const;

  /// Bytes currently resident for the forwarding state: the built chunks'
  /// intervals and port arenas plus the chunk directory (grows as lazy
  /// chunks build; equals the full footprint after compileAll()).
  [[nodiscard]] std::uint64_t forwardingBytes() const;
  /// Chunks built so far.
  [[nodiscard]] std::size_t builtChunks() const;
  [[nodiscard]] std::size_t numChunks() const { return numChunks_; }

  [[nodiscard]] const routing::Router& router() const { return *router_; }
  [[nodiscard]] const xgft::Topology& topology() const {
    return router_->topology();
  }
  [[nodiscard]] std::size_t numHosts() const { return numHosts_; }

 private:
  /// Which endpoint indexes the columns: guide = destination
  /// (runs over sources — destination-oriented schemes like d-mod-k) or
  /// guide = source (runs over destinations — s-mod-k and friends).
  enum class Axis : std::uint8_t { kByDst, kBySrc };

  /// One maximal run of ranks sharing a route within a guide column.
  struct Interval {
    std::uint32_t begin = 0;     ///< First rank of the run.
    std::uint32_t portsOff = 0;  ///< Offset of the ports in Chunk::ports.
    std::uint32_t len = 0;       ///< Route length; 0 = unroutable/diagonal.
  };

  /// kChunkCols consecutive guide columns, immutable once published.
  struct Chunk {
    std::vector<std::uint32_t> colOff;  ///< Per-local-column interval bounds.
    std::vector<Interval> intervals;
    std::vector<std::uint32_t> ports;
  };

  explicit CompiledRoutes(std::shared_ptr<const routing::Router> router);

  [[nodiscard]] const Interval& intervalOf(const Chunk& chunk,
                                           std::uint32_t guide,
                                           std::uint32_t pos) const;
  /// The one per-pair step of every compile path: fills @p route for
  /// (s, d) from @p routeFor (the router when empty) and validates it.
  /// Returns false for a pair @p routeFor declines; throws
  /// std::invalid_argument for a malformed route.
  bool supplyRoute(const PairRoute& routeFor, xgft::NodeIndex s,
                   xgft::NodeIndex d, xgft::Route& route) const;
  /// The chunk covering guide column @p guide, building it on first touch.
  [[nodiscard]] const Chunk& chunkFor(std::uint32_t guide) const;
  /// Appends column @p guide's intervals and ports to @p chunk, using
  /// @p route as the per-pair buffer.
  void appendColumn(std::uint32_t guide, const PairRoute& routeFor,
                    xgft::Route& route, Chunk& chunk) const;
  [[nodiscard]] std::unique_ptr<Chunk> makeChunk(
      std::size_t idx, const PairRoute& routeFor) const;
  /// Publishes @p chunk as chunk @p idx unless one is already installed.
  const Chunk& publishChunk(std::size_t idx,
                            std::unique_ptr<Chunk> chunk) const;
  void compileAllWith(const PairRoute& routeFor, std::uint32_t threads) const;

  std::shared_ptr<const routing::Router> router_;
  std::size_t numHosts_ = 0;
  Axis axis_ = Axis::kByDst;
  std::size_t numChunks_ = 0;
  /// Built chunks, published with release ordering; null until built.
  std::unique_ptr<std::atomic<const Chunk*>[]> chunks_;
  mutable Mutex chunkMu_;
  /// Owns every published chunk (readers go through chunks_, never here).
  mutable std::vector<std::unique_ptr<const Chunk>> chunkOwner_
      XGFT_GUARDED_BY(chunkMu_);
  mutable std::atomic<std::uint64_t> builtBytes_{0};
  mutable std::atomic<std::size_t> builtChunks_{0};
};

}  // namespace core
