#include "core/compiled_routes.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace core {

namespace {

/// First exception thrown by any compile worker (annotated so the
/// thread-safety build proves every access happens under the lock).
struct FailureSink {
  Mutex mu;
  std::exception_ptr first XGFT_GUARDED_BY(mu);

  void capture(std::exception_ptr e) {
    LockGuard lock(mu);
    if (!first) first = std::move(e);
  }
  void rethrowIfSet() {
    LockGuard lock(mu);
    if (first) std::rethrow_exception(first);
  }
};

/// Interval runs and stored port words one guide column would compress to.
/// Router-only (no supplier, no validation): used for axis sampling and
/// footprint estimation, where calling a PairRoute supplier would
/// double-trigger its side effects (fault::compileDegraded records
/// unreachable pairs).
struct ColumnCost {
  std::uint64_t intervals = 0;
  std::uint64_t portWords = 0;
};

ColumnCost scanColumn(const routing::Router& r, bool byDst,
                      std::uint32_t guide, std::uint32_t numHosts) {
  ColumnCost cost;
  xgft::Route prev;
  xgft::Route cur;
  bool havePrev = false;
  for (std::uint32_t pos = 0; pos < numHosts; ++pos) {
    if (pos == guide) {  // Diagonal: its own zero-length run.
      ++cost.intervals;
      havePrev = false;
      continue;
    }
    if (byDst) {
      r.route(pos, guide, cur);
    } else {
      r.route(guide, pos, cur);
    }
    if (!havePrev || cur.up != prev.up) {
      ++cost.intervals;
      cost.portWords += cur.up.size();
      std::swap(prev, cur);
      havePrev = true;
    }
  }
  return cost;
}

/// @p topo's host count as a 32-bit rank.  Interval ranks and guide
/// columns are 32-bit, so a topology with 2^32 hosts or more has no table.
std::uint32_t hostRanks(const xgft::Topology& topo, const char* caller) {
  const xgft::Count n = topo.numHosts();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        std::string(caller) + ": " + std::to_string(n) +
        " hosts exceed the 32-bit host ranks of a forwarding table");
  }
  return static_cast<std::uint32_t>(n);
}

}  // namespace

CompiledRoutes::CompiledRoutes(std::shared_ptr<const routing::Router> router)
    : router_(std::move(router)),
      numHosts_(static_cast<std::size_t>(router_->topology().numHosts())),
      numChunks_((numHosts_ + kChunkCols - 1) / kChunkCols),
      chunks_(std::make_unique<std::atomic<const Chunk*>[]>(numChunks_)) {
  // Axis by deterministic sampling: three spread guide columns scanned both
  // ways; fewer total runs wins, a tie keeps kByDst.  Always scans the
  // healthy router — a degraded table differs from it on few pairs, and a
  // PairRoute supplier must not be probed twice for any pair.
  const std::uint32_t hosts = static_cast<std::uint32_t>(numHosts_);
  std::uint64_t byDstRuns = 0;
  std::uint64_t bySrcRuns = 0;
  std::uint32_t last = ~0u;
  for (const std::uint32_t guide :
       {0u, hosts / 2, hosts == 0 ? 0u : hosts - 1}) {
    if (guide == last) continue;
    last = guide;
    byDstRuns += scanColumn(*router_, true, guide, hosts).intervals;
    bySrcRuns += scanColumn(*router_, false, guide, hosts).intervals;
  }
  axis_ = bySrcRuns < byDstRuns ? Axis::kBySrc : Axis::kByDst;
}

std::uint64_t CompiledRoutes::tableBytes(const xgft::Topology& topo) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t hosts = topo.numHosts();
  const std::uint64_t pairBytes =
      static_cast<std::uint64_t>(topo.height()) * sizeof(std::uint32_t) +
      sizeof(std::uint8_t);
  // Saturates: at 2^32 hosts the pair count alone wraps 64 bits.
  if (hosts != 0 && hosts > kMax / hosts) return kMax;
  const std::uint64_t pairs = hosts * hosts;
  if (pairs > kMax / pairBytes) return kMax;
  return pairs * pairBytes;
}

std::uint64_t CompiledRoutes::estimateCompressedBytes(
    const routing::Router& router) {
  const std::uint32_t n =
      hostRanks(router.topology(), "CompiledRoutes::estimateCompressedBytes");
  if (n == 0) return 0;
  // Up to 8 evenly spaced guide columns per axis; the cheaper axis' average
  // per-column bytes extrapolates to all n columns — mirroring the axis
  // choice compile() makes, so the estimate tracks the real footprint.
  std::uint64_t best = ~0ull;
  for (const bool byDst : {true, false}) {
    std::uint64_t bytes = 0;
    std::uint64_t sampled = 0;
    std::uint32_t last = ~0u;
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::uint32_t guide =
          n < 2 ? 0
                : static_cast<std::uint32_t>(
                      static_cast<std::uint64_t>(i) * (n - 1) / 7);
      if (guide == last) continue;
      last = guide;
      const ColumnCost cost = scanColumn(router, byDst, guide, n);
      bytes += sizeof(std::uint32_t) + cost.intervals * sizeof(Interval) +
               cost.portWords * sizeof(std::uint32_t);
      ++sampled;
    }
    best = std::min(best, bytes / sampled * n);
  }
  return best;
}

std::shared_ptr<const CompiledRoutes> CompiledRoutes::compile(
    std::shared_ptr<const routing::Router> router) {
  if (!router) {
    throw std::invalid_argument("CompiledRoutes::compile: null router");
  }
  (void)hostRanks(router->topology(), "CompiledRoutes::compile");
  return std::shared_ptr<CompiledRoutes>(new CompiledRoutes(std::move(router)));
}

std::shared_ptr<const CompiledRoutes> CompiledRoutes::compileWith(
    std::shared_ptr<const routing::Router> router, const PairRoute& routeFor,
    std::uint32_t threads) {
  std::shared_ptr<const CompiledRoutes> table = compile(std::move(router));
  table->compileAllWith(routeFor, threads);
  return table;
}

bool CompiledRoutes::supplyRoute(const PairRoute& routeFor, xgft::NodeIndex s,
                                 xgft::NodeIndex d, xgft::Route& route) const {
  if (!routeFor) {
    router_->route(s, d, route);
  } else if (!routeFor(s, d, route)) {
    return false;
  }
  std::string error;
  if (!xgft::validateRoute(topology(), s, d, route, &error)) {
    throw std::invalid_argument("CompiledRoutes(" + router_->name() +
                                "): " + error);
  }
  return true;
}

void CompiledRoutes::appendColumn(std::uint32_t guide,
                                  const PairRoute& routeFor,
                                  xgft::Route& route, Chunk& chunk) const {
  const std::uint32_t n = static_cast<std::uint32_t>(numHosts_);
  std::uint32_t prevOff = 0;
  std::uint32_t prevLen = 0;
  bool havePrev = false;
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    bool routable = false;
    if (pos != guide) {
      const xgft::NodeIndex s = axis_ == Axis::kByDst ? pos : guide;
      const xgft::NodeIndex d = axis_ == Axis::kByDst ? guide : pos;
      routable = supplyRoute(routeFor, s, d, route);
    }
    if (routable) {
      const std::uint32_t len = static_cast<std::uint32_t>(route.up.size());
      if (havePrev && prevLen == len &&
          std::equal(route.up.begin(), route.up.end(),
                     chunk.ports.begin() + prevOff)) {
        continue;  // Extends the previous run.
      }
      prevOff = static_cast<std::uint32_t>(chunk.ports.size());
      prevLen = len;
      havePrev = true;
      chunk.intervals.push_back({pos, prevOff, len});
      chunk.ports.insert(chunk.ports.end(), route.up.begin(), route.up.end());
    } else {  // Diagonal or supplier-declined pair: zero-length run.
      if (havePrev && prevLen == 0) continue;
      prevLen = 0;
      havePrev = true;
      chunk.intervals.push_back({pos, 0, 0});
    }
  }
}

std::unique_ptr<CompiledRoutes::Chunk> CompiledRoutes::makeChunk(
    std::size_t idx, const PairRoute& routeFor) const {
  auto chunk = std::make_unique<Chunk>();
  xgft::Route route;  // One buffer for the whole chunk.
  const std::uint32_t gBegin = static_cast<std::uint32_t>(idx * kChunkCols);
  const std::uint32_t gEnd = static_cast<std::uint32_t>(
      std::min(numHosts_, (idx + 1) * static_cast<std::size_t>(kChunkCols)));
  chunk->colOff.reserve(gEnd - gBegin + 1);
  chunk->colOff.push_back(0);
  for (std::uint32_t guide = gBegin; guide < gEnd; ++guide) {
    appendColumn(guide, routeFor, route, *chunk);
    chunk->colOff.push_back(
        static_cast<std::uint32_t>(chunk->intervals.size()));
  }
  return chunk;
}

const CompiledRoutes::Chunk& CompiledRoutes::publishChunk(
    std::size_t idx, std::unique_ptr<Chunk> chunk) const {
  LockGuard lock(chunkMu_);
  if (const Chunk* existing = chunks_[idx].load(std::memory_order_relaxed)) {
    return *existing;  // Raced build: identical content, drop the duplicate.
  }
  builtBytes_.fetch_add(
      chunk->colOff.size() * sizeof(std::uint32_t) +
          chunk->intervals.size() * sizeof(Interval) +
          chunk->ports.size() * sizeof(std::uint32_t),
      std::memory_order_relaxed);
  builtChunks_.fetch_add(1, std::memory_order_relaxed);
  const Chunk* raw = chunk.get();
  chunkOwner_.push_back(std::move(chunk));
  chunks_[idx].store(raw, std::memory_order_release);
  return *raw;
}

const CompiledRoutes::Chunk& CompiledRoutes::chunkFor(
    std::uint32_t guide) const {
  const std::size_t idx = guide / kChunkCols;
  if (const Chunk* built = chunks_[idx].load(std::memory_order_acquire)) {
    return *built;
  }
  // First touch: build outside the lock (a concurrent first touch builds a
  // bit-identical duplicate that publishChunk then discards).
  return publishChunk(idx, makeChunk(idx, PairRoute{}));
}

const CompiledRoutes::Interval& CompiledRoutes::intervalOf(
    const Chunk& chunk, std::uint32_t localCol, std::uint32_t pos) const {
  const std::uint32_t first = chunk.colOff[localCol];
  // Branch-free lower bound over the column's sorted interval begins: every
  // column covers rank 0, so count >= 1 and the loop lands on the last
  // interval with begin <= pos.
  const Interval* base = chunk.intervals.data() + first;
  std::size_t count = chunk.colOff[localCol + 1] - first;
  while (count > 1) {
    const std::size_t half = count / 2;
    base += (base[half].begin <= pos) ? half : 0;
    count -= half;
  }
  return *base;
}

std::span<const std::uint32_t> CompiledRoutes::upPorts(
    xgft::NodeIndex s, xgft::NodeIndex d) const {
  const std::uint32_t guide = axis_ == Axis::kByDst ? d : s;
  const std::uint32_t pos = axis_ == Axis::kByDst ? s : d;
  const Chunk& chunk = chunkFor(guide);
  const Interval& run = intervalOf(chunk, guide % kChunkCols, pos);
  return {chunk.ports.data() + run.portsOff, run.len};
}

xgft::NodeIndex CompiledRoutes::shareRep(xgft::NodeIndex s,
                                         xgft::NodeIndex d) const {
  if (axis_ == Axis::kBySrc || s == d) return s;
  const Chunk& chunk = chunkFor(d);
  const Interval& run = intervalOf(chunk, d % kChunkCols, s);
  // Same interval => same up-ports; clipping to s's leaf group also pins
  // the level-1 switch, so (rep, d)'s switch-tail path is bit-identical.
  const std::uint32_t m1 = topology().params().m(1);
  const xgft::NodeIndex leafBase = s - (s % m1);
  return std::max<xgft::NodeIndex>(run.begin, leafBase);
}

void CompiledRoutes::compileAll(std::uint32_t threads) const {
  compileAllWith(PairRoute{}, threads);
}

void CompiledRoutes::compileAllWith(const PairRoute& routeFor,
                                    std::uint32_t threads) const {
  std::vector<std::size_t> pending;
  pending.reserve(numChunks_);
  for (std::size_t i = 0; i < numChunks_; ++i) {
    if (!chunks_[i].load(std::memory_order_acquire)) pending.push_back(i);
  }
  if (pending.empty()) return;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(threads, pending.size()));
  const auto buildRange = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      publishChunk(pending[k], makeChunk(pending[k], routeFor));
    }
  };
  if (threads <= 1) {
    buildRange(0, pending.size());
    return;
  }
  std::vector<std::thread> pool;
  FailureSink failure;
  pool.reserve(threads);
  const std::size_t step = (pending.size() + threads - 1) / threads;
  for (std::uint32_t w = 0; w < threads; ++w) {
    const std::size_t begin =
        std::min(pending.size(), static_cast<std::size_t>(w) * step);
    const std::size_t end = std::min(pending.size(), begin + step);
    if (begin >= end) break;
    pool.emplace_back([&, begin, end] {
      try {
        buildRange(begin, end);
      } catch (...) {
        failure.capture(std::current_exception());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  failure.rethrowIfSet();
}

std::uint64_t CompiledRoutes::forwardingBytes() const {
  return builtBytes_.load(std::memory_order_relaxed) +
         numChunks_ * sizeof(std::atomic<const Chunk*>);
}

std::size_t CompiledRoutes::builtChunks() const {
  return builtChunks_.load(std::memory_order_relaxed);
}

xgft::Route CompiledRoutes::route(xgft::NodeIndex s, xgft::NodeIndex d) const {
  const std::span<const std::uint32_t> ports = upPorts(s, d);
  xgft::Route r;
  r.up.assign(ports.begin(), ports.end());
  return r;
}

}  // namespace core
