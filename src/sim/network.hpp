// network.hpp — Event-driven XGFT network simulator (the Venus substitute).
//
// Model (see DESIGN.md for the substitution rationale):
//
//  * Source routing.  A message carries its precomputed output-port path
//    (host NIC port, then one output port per switch).
//  * Adapters.  Each host NIC keeps a round-robin list of active messages
//    per port; whenever the host link is free (and the first switch has
//    buffer credit) the NIC emits the *next segment of the next message* —
//    the per-segment interleaving of Sec. VI-B.
//  * Switches.  Input- and output-buffered: segments arriving on an input
//    port move (after the switch latency) into the FIFO output buffer of
//    their next hop when it has space; otherwise they wait in the input
//    buffer, and inputs blocked on the same output are served round-robin
//    as slots free up.  Input buffer occupancy is governed by credits, so
//    an upstream transmitter never overruns a full input buffer.
//  * Wires.  One segment at a time, serialization time exact in flit
//    arithmetic, plus a propagation latency.
//
// Up/down routes on a tree give an acyclic channel-dependency graph, so the
// credit protocol cannot deadlock; run() checks full drainage and throws on
// any stranded segment (a routing-table bug would surface here, not hang).
// On runs where link faults occurred (scheduleLinkDown) stranded traffic is
// expected, so the drain check converts it to dropped-message accounting
// instead of throwing (DESIGN.md §10).
//
// Data layout (DESIGN.md §7): the inner loop runs entirely over flat
// storage — POD events in a calendar queue (event_queue.hpp), segments in a
// contiguous slot pool whose FIFO queues are intrusive `next` links (no
// per-port deques, no allocation after warm-up), and routes interned once
// in a shared arena (route_store.hpp) so messages/segments carry indices,
// never copied port vectors.
//
// Determinism: ties in the event queue break by insertion order, so equal
// configurations and inputs replay identically on every platform.
//
// Overflow semantics are hardened, not silent: message ids, segment counts,
// route arenas and the global-port space are 32-bit by design (the flat
// layout depends on it); any workload that would exceed them throws with a
// clear message instead of wrapping.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/route_store.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace sim {

using MsgId = std::uint32_t;
using Bytes = std::uint64_t;

class Probe;  // probe.hpp — observation hooks; sim never includes obs/.

/// How a multipath message distributes its segments over its routes.
/// Per-segment spraying is the packet-granular randomized routing of
/// Greenberg & Leiserson [16], provided as an extension (DESIGN.md):
/// segments of one message may arrive out of order, which the paper's
/// segment-reassembling adapters tolerate.
enum class SprayPolicy : std::uint8_t {
  kRoundRobin,  ///< Segment i takes route i mod |routes|.
  kRandom,      ///< Segment i takes a seeded pseudo-random route.
};

/// What the event core does with traffic that meets a dead link
/// (scheduleLinkDown) — one behaviour, reroute-then-strand.  An in-flight
/// segment completes its serialization (kWireFree/kWireArrive events
/// already scheduled proceed) and only then the port blocks.  Ascending
/// segments queued at or routed to the dead port escape through the
/// least-occupied live up-port of the same switch (counted in
/// NetworkStats::segmentsRerouted) and continue minimally adaptive from
/// there.  Descending segments have a unique minimal path, and an escape
/// with no live (or no free) up-port has nowhere to go: such segments are
/// dropped at once (segmentsStranded) and their messages marked dropped.
/// Host NICs are gated: a down host link holds its messages, and whatever
/// never resumes is counted dropped when the queue drains.
///
/// The enum is vestigial: kReroute is the only value, kept because the
/// benchmark driver still names it through fault::InstallOptions::policy.
enum class FaultPolicy : std::uint8_t { kReroute };

/// Receives end-to-end message completions (the Dimemas coupling point).
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;
  virtual void onMessageDelivered(MsgId msg, TimeNs time) = 0;
};

/// Aggregate counters exposed after (or during) a run.
///
/// Validity contract (pinned by tests/sim/stats_test.cpp): every field is
/// meaningful at any Network::run(until) boundary, not only after a full
/// drain, and every field is monotone non-decreasing across resumed runs.
/// Mid-run they describe the prefix of the simulation processed so far:
///
///  * segmentsInjected / segmentsDelivered — cumulative counts; mid-run
///    `delivered <= injected` always holds and the difference is the number
///    of segments currently inside the network (in-flight invariant).
///    After a clean full drain the two are equal.
///  * messagesDelivered — cumulative completions, including src == dst
///    local deliveries (which never touch segment counters).
///  * eventsProcessed — calendar events handled.  Telemetry sampling events
///    (Probe) are explicitly excluded, so the count is identical with and
///    without a probe attached; it feeds the campaign CSV `events` column.
///  * lastDeliveryNs — time of the latest completion so far; only after the
///    queue drains is it the makespan.
///  * maxOutputQueueDepth / maxInputQueueDepth — high-water marks over the
///    prefix, not current occupancy (Network::outputQueueDepth /
///    inputQueueDepth expose instantaneous depths).
///  * segmentsRerouted / segmentsStranded / messagesDropped — fault
///    accounting (scheduleLinkDown + FaultPolicy); all zero on healthy
///    runs.  A stranded segment never delivers, so the in-flight invariant
///    weakens to `delivered + stranded <= injected` once faults occur.
///  * linkDownNs — cumulative down-time summed over links (a link down for
///    d ns contributes d once, not once per direction), accrued up to the
///    current run() boundary, so it is monotone across resumes.
struct NetworkStats {
  std::uint64_t segmentsInjected = 0;
  std::uint64_t segmentsDelivered = 0;
  std::uint64_t messagesDelivered = 0;
  std::uint64_t eventsProcessed = 0;
  TimeNs lastDeliveryNs = 0;
  std::uint32_t maxOutputQueueDepth = 0;
  std::uint32_t maxInputQueueDepth = 0;
  std::uint64_t segmentsRerouted = 0;
  std::uint64_t segmentsStranded = 0;
  std::uint64_t messagesDropped = 0;
  TimeNs linkDownNs = 0;

  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

class Network {
 public:
  /// Builds the port-level machine for @p topo.  The topology reference must
  /// outlive the Network.  Throws std::invalid_argument if the topology's
  /// port count does not fit the 32-bit global-port space.
  Network(const xgft::Topology& topo, SimConfig cfg);

  /// Registers the completion listener (optional).
  void setSink(TrafficSink* sink) { sink_ = sink; }

  /// Attaches an observation probe (optional; nullptr detaches).  Hooks
  /// fire synchronously from the event core; if the probe samples
  /// (samplePeriodNs() > 0) a dedicated calendar event drives periodic
  /// onSample calls.  Observation is guaranteed non-perturbing: makespan,
  /// NetworkStats (including eventsProcessed) and per-wire busy times are
  /// identical with and without a probe.  The probe must outlive the runs
  /// it observes.
  void setProbe(Probe* probe);

  /// Registers a message and its minimal up/down route; the message starts
  /// injecting only after release().  s == d messages are legal and complete
  /// instantly upon release (local delivery, no network traversal).
  MsgId addMessage(xgft::NodeIndex src, xgft::NodeIndex dst, Bytes bytes,
                   const xgft::Route& route);

  /// Registers a multipath message: each segment is sprayed over one of the
  /// given routes per @p policy.  All routes must share the same first-hop
  /// (host) port.  At least one route is required.
  MsgId addMessageMultipath(xgft::NodeIndex src, xgft::NodeIndex dst,
                            Bytes bytes,
                            const std::vector<xgft::Route>& routes,
                            SprayPolicy policy,
                            std::uint64_t spraySeed = 1);

  /// Registers a minimally-adaptive message (the adaptive routing the
  /// paper's Sec. I discusses via Gómez et al. [6]): no precomputed route —
  /// at every switch on the ascent the segment picks the least-occupied
  /// up-port (round-robin tie-breaking per switch) until it reaches an
  /// ancestor of the destination, then descends deterministically.  Routes
  /// stay minimal, so deadlock freedom is preserved.
  MsgId addMessageAdaptive(xgft::NodeIndex src, xgft::NodeIndex dst,
                           Bytes bytes);

  // ---- Interned-route fast path (route_store.hpp) --------------------------
  //
  // Callers that send many messages between the same endpoints (the trace
  // replayer) intern the route material once per (src, dst) pair and then
  // add messages by set id: validation, hop expansion and route storage all
  // happen exactly once per distinct route set, and addMessageSet is a pure
  // O(1) record append.  Produces the identical event sequence as the
  // equivalent addMessage/addMessageMultipath calls.

  /// Interns the validated global-port paths of @p routes (the
  /// addMessageMultipath rules: >= 1 route, shared first-hop port) and
  /// returns the set handle.  For src == dst returns RouteStore::kNone
  /// (local delivery needs no routes, matching addMessageMultipath).
  RouteSetId internRoutes(xgft::NodeIndex src, xgft::NodeIndex dst,
                          const std::vector<xgft::Route>& routes);

  /// internRoutes for one compiled forwarding-table entry
  /// (core::CompiledRoutes::upPorts): the ascending port choices expand
  /// straight into the global-port path with no route validation and no
  /// intermediate Route object.  Precondition: @p upPorts came from a table
  /// compiled against this network's topology (validated once at compile
  /// time).
  RouteSetId internCompiledPath(xgft::NodeIndex src, xgft::NodeIndex dst,
                                std::span<const std::uint32_t> upPorts);

  /// Registers a message over a previously interned route set.  @p set must
  /// come from internRoutes/internCompiledPath for the same (src, dst), or
  /// be RouteStore::kNone iff src == dst.
  MsgId addMessageSet(xgft::NodeIndex src, xgft::NodeIndex dst, Bytes bytes,
                      RouteSetId set,
                      SprayPolicy policy = SprayPolicy::kRoundRobin,
                      std::uint64_t spraySeed = 1);

  /// Makes the message visible to the source adapter at time @p t (must not
  /// precede the current simulation time).
  void release(MsgId msg, TimeNs t);

  /// Schedules an arbitrary callback (trace compute/barrier hooks).
  void scheduleCallback(TimeNs t, std::function<void()> fn);

  // ---- Link faults (src/fault/ drives these) -------------------------------

  /// Schedules the bidirectional link @p link to fail at time @p t: any
  /// segment serializing on either wire completes (and its arrival is
  /// honoured), then both directions block.  Queued/arriving traffic is
  /// rerouted or stranded (see FaultPolicy).  Failing an already-down link
  /// is a no-op at processing time.  Throws std::invalid_argument for an
  /// unknown link or a time in the past.
  void scheduleLinkDown(TimeNs t, xgft::LinkId link);

  /// Schedules @p link to come back into service at @p t; queued traffic
  /// behind it resumes.  Restoring an up link is a no-op.
  void scheduleLinkUp(TimeNs t, xgft::LinkId link);

  /// Is @p link currently failed?  (Reflects processed events only, not
  /// scheduled future transitions.)
  [[nodiscard]] bool linkIsDown(xgft::LinkId link) const;

  /// External drop accounting: a routing layer that refuses a message (an
  /// unreachable pair on a degraded topology) records it here so
  /// NetworkStats::messagesDropped covers both in-network strands and
  /// never-injected refusals.
  void noteMessageDropped() { ++stats_.messagesDropped; }

  /// Processes events until the queue drains (or @p until, if given).
  /// Throws std::runtime_error if released traffic is left stranded once
  /// the queue is empty — unless link faults occurred this run, in which
  /// case stuck messages are expected and are converted to dropped/stranded
  /// counts instead (faulted runs report, never hang or throw).
  void run(TimeNs until = std::numeric_limits<TimeNs>::max());

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] const xgft::Topology& topology() const { return *topo_; }
  [[nodiscard]] const RouteStore& routes() const { return routes_; }

  /// Completion time of a delivered message; throws if not yet delivered.
  [[nodiscard]] TimeNs deliveryTime(MsgId msg) const;

  /// Busy (serializing) nanoseconds of the wire leaving global port @p gport.
  [[nodiscard]] TimeNs wireBusyNs(std::uint32_t gport) const;

  /// Global output-port id crossed by hop (level, node, outPort) — exposed
  /// for utilization reports.
  [[nodiscard]] std::uint32_t globalPort(std::uint32_t level,
                                         xgft::NodeIndex node,
                                         std::uint32_t port) const;

  [[nodiscard]] std::uint32_t numGlobalPorts() const {
    return static_cast<std::uint32_t>(peer_.size());
  }

  /// Reverse port lookup: which node owns a global port.
  struct PortOwner {
    std::uint32_t level = 0;
    xgft::NodeIndex node = 0;
    std::uint32_t localPort = 0;
  };
  [[nodiscard]] const PortOwner& portOwnerOf(std::uint32_t gport) const {
    return portOwner_[gport];
  }

  /// Instantaneous buffer occupancies (segments) — probe/report queries;
  /// NetworkStats keeps the high-water marks.
  [[nodiscard]] std::uint32_t inputQueueDepth(std::uint32_t gport) const {
    return ports_[gport].inCount;
  }
  [[nodiscard]] std::uint32_t outputQueueDepth(std::uint32_t gport) const {
    return ports_[gport].outCount;
  }

 private:
  /// Intrusive-list terminator for segment/message/port links.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // The calendar queue packs the kind into 3 bits (event_queue.hpp), so at
  // most 8 kinds exist; kLinkDown/kLinkUp fill the space exactly.
  enum class Kind : std::uint8_t {
    kRelease,
    kWireArrive,
    kWireFree,
    kTransfer,
    kCallback,
    kSample,    ///< Probe sampling tick — excluded from eventsProcessed.
    kLinkDown,  ///< a = LinkId (fits: links < ports < 2^32).
    kLinkUp,    ///< a = LinkId.
  };

  /// One in-flight segment in the contiguous slot pool.  `next` threads the
  /// FIFO queue (input or output buffer) the segment currently sits in — a
  /// segment is in at most one queue at a time, so one link suffices.
  /// Segment::flags bit: the segment escaped a dead output port and
  /// finishes its journey adaptively — its
  /// interned route no longer describes the remaining hops.
  static constexpr std::uint32_t kSegEscaped = 1u;

  struct Segment {
    MsgId msg = 0;
    RouteId route = 0;          ///< Interned path this segment follows.
    std::uint32_t hop = 0;      ///< Hops completed so far.
    std::uint32_t payloadBytes = 0;
    std::uint32_t resolvedOut = 0;  ///< Output gport chosen at this switch.
    std::uint32_t next = kNil;      ///< Intrusive FIFO link / free-list link.
    std::uint32_t flags = 0;        ///< kSegEscaped.
  };

  /// POD message record; routes live in the interned store (set).  The
  /// single-route fast path (`setSize` == 1) keeps the route id inline so
  /// injection never touches the set arena.
  struct Message {
    xgft::NodeIndex src = 0;
    xgft::NodeIndex dst = 0;
    Bytes bytes = 0;
    std::uint32_t numSegments = 0;
    std::uint32_t injectedSegments = 0;
    std::uint32_t deliveredSegments = 0;
    RouteSetId set = RouteStore::kNone;  ///< Candidate routes (kNone: local).
    std::uint32_t setSize = 0;           ///< |set| (0 for local delivery).
    RouteId route0 = 0;                  ///< set[0], inline.
    std::uint32_t hostPort = 0;  ///< Source NIC gport (paths store tails).
    std::uint32_t nextActive = kNil;     ///< Host-adapter round-robin link.
    std::uint64_t spraySeed = 1;
    TimeNs deliveredAt = 0;
    SprayPolicy policy = SprayPolicy::kRoundRobin;
    bool released = false;
    bool delivered = false;
    bool adaptive = false;
    bool dropped = false;  ///< Lost to a fault; will never complete.
  };

  /// Flat per-port state: all queues are intrusive head/tail links into the
  /// segment pool (inQ/outQ), the port array itself (waiting inputs) or the
  /// message table (host-adapter round robin).  Exactly one cache line per
  /// port — the waiting-list link lives in the cold side array waitLink_.
  struct PortState {
    std::uint32_t peer = 0;  ///< The gport this port's wire ends at.
    // Output side.
    std::uint32_t outHead = kNil;  ///< FIFO of segment pool indices.
    std::uint32_t outTail = kNil;
    std::uint32_t waitHead = kNil;  ///< Blocked input gports (RR order).
    std::uint32_t waitTail = kNil;
    std::uint32_t reserved = 0;  ///< Transfers in flight into the out FIFO.
    std::uint32_t credits = 0;   ///< Free slots at the peer's input buffer.
    std::uint32_t outCount = 0;
    // Input side.
    std::uint32_t inHead = kNil;  ///< FIFO of segment pool indices.
    std::uint32_t inTail = kNil;
    std::uint32_t inCount = 0;
    // Host adapter (host ports only): active-message round robin.
    std::uint32_t activeHead = kNil;  ///< FIFO of MsgIds.
    std::uint32_t activeTail = kNil;
    bool wireBusy = false;
    bool transferring = false;
    bool queuedWaiting = false;  ///< Already parked in some waiting list.
    bool down = false;           ///< This port's link is failed (both ends).
    // Accounting.
    TimeNs busyNs = 0;
  };
  static_assert(sizeof(PortState) == 64, "PortState must stay one cache line");

  void schedule(TimeNs t, Kind kind, std::uint32_t a, std::uint32_t seg = 0) {
    queue_.push(t, static_cast<std::uint8_t>(kind), a, seg);
  }
  void handle(const EventRecord& ev);
  /// (Re)schedules the probe's next sampling tick at now_ + period.
  void scheduleSample();

  void handleRelease(MsgId msg);
  void handleWireArrive(std::uint32_t gInPort, std::uint32_t seg);
  void handleWireFree(std::uint32_t gOutPort);
  void handleTransfer(std::uint32_t gInPort, std::uint32_t seg);
  void handleLinkDown(std::uint32_t link);
  void handleLinkUp(std::uint32_t link);

  void tryInjectHost(std::uint32_t gOutPort);
  void tryTransmitSwitch(std::uint32_t gOutPort);
  void startTransmission(std::uint32_t gOutPort, std::uint32_t seg);
  void tryAdvanceInput(std::uint32_t gInPort);
  /// tryAdvanceInput for an input woken from a waiting list: the blocked
  /// front segment's resolved output is still valid for static routes, so
  /// only adaptive segments re-resolve.
  void wakeInput(std::uint32_t gInPort);
  /// Shared tail of tryAdvanceInput/wakeInput: reserve the output slot or
  /// park the input in @p out's waiting list.
  void advanceInputTo(std::uint32_t gInPort, std::uint32_t seg,
                      std::uint32_t out);
  void serveWaitingInputs(std::uint32_t gOutPort);
  void returnCredit(std::uint32_t gOutPort);
  void deliverSegment(std::uint32_t gInPort, std::uint32_t seg);
  void outputDispatch(std::uint32_t gOutPort);

  // ---- fault machinery -----------------------------------------------------

  /// The child-side global port of @p link (its peer is the parent side).
  [[nodiscard]] std::uint32_t linkChildGport(std::uint32_t link) const;
  /// Strand-or-escape every segment queued in the dead output @p gOutPort.
  void processDeadOutput(std::uint32_t gOutPort);
  /// Re-runs every input parked on the dead output @p gOutPort so its head
  /// segment is stranded or rerouted instead of waiting forever.
  void flushDeadWaiters(std::uint32_t gOutPort);
  /// Drops the head segment of @p gInPort's input queue (strand path).
  void strandInputHead(std::uint32_t gInPort);
  /// Least-occupied live up-port of the switch owning the dead output
  /// @p gOutPort, or kNil when the output descends (unique minimal path) or
  /// no live up-port remains.
  [[nodiscard]] std::uint32_t rerouteAlternative(std::uint32_t gOutPort);
  void dropMessage(MsgId msg);
  /// Folds the pending down-time of currently-down links into
  /// stats_.linkDownNs (called at run() boundaries and on restore).
  void accrueLinkDownTo(TimeNs t);
  [[nodiscard]] bool segAdaptive(const Segment& seg) const {
    return messages_[seg.msg].adaptive || (seg.flags & kSegEscaped) != 0;
  }

  // Intrusive FIFO helpers over the segment pool / message table.
  void segPushBack(std::uint32_t& head, std::uint32_t& tail,
                   std::uint32_t seg) {
    segments_[seg].next = kNil;
    if (tail == kNil) {
      head = seg;
    } else {
      segments_[tail].next = seg;
    }
    tail = seg;
  }
  std::uint32_t segPopFront(std::uint32_t& head, std::uint32_t& tail) {
    const std::uint32_t seg = head;
    head = segments_[seg].next;
    if (head == kNil) tail = kNil;
    return seg;
  }
  /// Appends @p msg to a host port's active-message round-robin FIFO.
  void activePushBack(PortState& port, MsgId msg) {
    messages_[msg].nextActive = kNil;
    if (port.activeTail == kNil) {
      port.activeHead = msg;
    } else {
      messages_[port.activeTail].nextActive = msg;
    }
    port.activeTail = msg;
  }

  /// Appends the message/segment bookkeeping shared by every addMessage*
  /// flavour; guards the 32-bit id and segment-count spaces.
  MsgId addRecord(xgft::NodeIndex src, xgft::NodeIndex dst, Bytes bytes,
                  RouteSetId set, SprayPolicy policy, std::uint64_t spraySeed,
                  bool adaptive);

  [[nodiscard]] std::uint32_t allocSegment(MsgId msg, RouteId route,
                                           std::uint32_t bytes);
  [[nodiscard]] std::span<const std::uint32_t> pathOf(
      const Segment& seg) const {
    return routes_.path(seg.route);
  }
  /// Picks the output gport for an adaptive segment sitting at the node
  /// owning @p gInPort.
  [[nodiscard]] std::uint32_t resolveAdaptive(std::uint32_t gInPort,
                                              const Segment& seg);
  void freeSegment(std::uint32_t seg) {
    segments_[seg].next = freeSegments_;
    freeSegments_ = seg;
  }
  [[nodiscard]] bool isHostPort(std::uint32_t gport) const {
    return gport < hostPortEnd_;
  }
  [[nodiscard]] std::uint32_t segmentPayload(const Message& m,
                                             std::uint32_t index) const;
  [[nodiscard]] std::uint32_t segmentCountOf(Bytes bytes) const;

  const xgft::Topology* topo_;
  SimConfig cfg_;
  TimeNs serFullNs_ = 0;  ///< serializationNs(segmentBytes), precomputed.
  TrafficSink* sink_ = nullptr;
  Probe* probe_ = nullptr;     ///< Cached enabled flag: null == disabled.
  bool samplePending_ = false; ///< A kSample event sits in the queue.

  std::vector<std::uint64_t> portBase_;  ///< Per global node id.
  std::vector<std::uint32_t> peer_;      ///< Peer gport per gport.
  std::vector<PortOwner> portOwner_;     ///< Owning node per gport.
  std::vector<std::uint32_t> adaptiveRR_;  ///< Per-node tie-break rotor.
  std::uint32_t hostPortEnd_ = 0;        ///< Host ports occupy [0, end).

  std::vector<PortState> ports_;
  std::vector<std::uint32_t> waitLink_;  ///< Per-port waiting-list link.
  std::vector<Message> messages_;
  std::vector<Segment> segments_;        ///< Slot pool.
  std::uint32_t freeSegments_ = kNil;    ///< Free-list head (next links).

  RouteStore routes_;
  std::vector<std::uint32_t> scratchPath_;  ///< Reused path-building buffer.
  std::vector<RouteId> scratchSet_;         ///< Reused set-building buffer.

  EventQueue queue_;
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> freeCallbackSlots_;
  TimeNs now_ = 0;
  NetworkStats stats_;

  /// A currently-down link and when its latest outage started (or the last
  /// run() boundary that already accrued it).
  struct DownLink {
    std::uint32_t link = 0;
    TimeNs since = 0;
  };
  std::vector<DownLink> downLinks_;
  bool faultsSeen_ = false;  ///< Any kLinkDown ever processed.
};

/// Wire utilization over @p spanNs from Network::wireBusyNs: the busy
/// fraction of the busiest wire and the mean over wires that carried
/// traffic.  The single implementation behind the engine's util_max /
/// util_mean CSV columns and the open-loop runner.
struct WireUtilization {
  double max = 0.0;
  double mean = 0.0;
};
[[nodiscard]] WireUtilization wireUtilization(const Network& net,
                                              TimeNs spanNs);

}  // namespace sim
