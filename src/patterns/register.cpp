#include "patterns/register.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>

#include "patterns/applications.hpp"
#include "patterns/io.hpp"
#include "patterns/source.hpp"
#include "patterns/synthetic.hpp"

namespace patterns {

namespace {

using core::PatternContext;
using core::PatternInfo;
using core::SourceContext;
using core::SourceInfo;
using core::SpecName;

/// Default message size for the parameterized synthetic workloads; keeps
/// them in the same bandwidth-dominated regime as the paper's traces.
constexpr Bytes kSyntheticBytes = 512 * 1024;

/// Registers a whole-application (multi-phase) workload.
void addPhased(core::Registry<PatternInfo>& registry, std::string name,
               std::string usage, std::string summary, bool seeded,
               std::function<PhasedPattern(const SpecName&,
                                           const PatternContext&)>
                   make) {
  PatternInfo info;
  info.usage = std::move(usage);
  info.summary = std::move(summary);
  info.seeded = seeded;
  info.make = [name, make = std::move(make)](
                  const std::vector<std::string>& args,
                  const PatternContext& ctx) {
    return make(core::joinSpec(name, args), ctx);
  };
  registry.add(std::move(name), std::move(info));
}

/// Registers a single-phase workload from a Pattern factory.
void addSingle(core::Registry<PatternInfo>& registry, std::string name,
               std::string usage, std::string summary, bool seeded,
               std::function<Pattern(const SpecName&, const PatternContext&)>
                   make) {
  addPhased(registry, std::move(name), std::move(usage), std::move(summary),
            seeded,
            [make = std::move(make)](const SpecName& spec,
                                     const PatternContext& ctx) {
              Pattern p = make(spec, ctx);
              PhasedPattern app;
              app.numRanks = p.numRanks();
              app.phases.push_back(std::move(p));
              return app;
            });
}

}  // namespace

void registerBuiltinPatterns(core::Registry<core::PatternInfo>& registry) {
  addPhased(registry, "cg128", "cg128",
            "the paper's NAS CG.D-128 phases (Sec. VII-A)", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(0);
              return cgD128();
            });
  addPhased(registry, "wrf256", "wrf256",
            "the paper's WRF halo exchange on a 16x16 task mesh", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(0);
              return wrf256();
            });
  addPhased(registry, "wrf64", "wrf64", "WRF-style halo on an 8x8 task mesh",
            false, [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(0);
              PhasedPattern app = wrfHalo(8, 8, kWrfMessageBytes);
              app.name = "wrf64";
              return app;
            });
  addPhased(registry, "shift", "shift:N",
            "the N-1 cyclic-shift phases of all-to-all algorithms [9]", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(1);
              return shiftAllToAll(spec.argU32(0), kSyntheticBytes);
            });
  addPhased(registry, "file", "file:PATH (PATH without ':')",
            "a flow-list file in the patterns/io.hpp format", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(1);
              const std::string& path = spec.args[0];
              std::ifstream in(path);
              if (!in) {
                throw std::invalid_argument("cannot open pattern file '" +
                                            path + "'");
              }
              try {
                return readPhasedPattern(in);
              } catch (const std::invalid_argument& e) {
                throw std::invalid_argument("pattern file '" + path +
                                            "': " + e.what());
              }
            });
  addSingle(registry, "ring", "ring:N", "N-rank bidirectional ring exchange",
            false, [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(1);
              return ringExchange(spec.argU32(0), kSyntheticBytes);
            });
  addSingle(registry, "alltoall", "alltoall:N",
            "N-rank personalized all-to-all (single phase)", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(1);
              return allToAll(spec.argU32(0), kSyntheticBytes);
            });
  addSingle(registry, "hotspot", "hotspot:N",
            "all N ranks send to rank 0 (pure endpoint contention)", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(1);
              return hotspot(spec.argU32(0), 0, kSyntheticBytes);
            });
  addSingle(registry, "stencil", "stencil:R:C",
            "5-point halo exchange on an R x C task mesh", false,
            [](const SpecName& spec, const PatternContext&) {
              spec.requireArity(2);
              return stencil2D(spec.argU32(0), spec.argU32(1),
                               kSyntheticBytes);
            });
  addSingle(registry, "uniform", "uniform:N:F",
            "F uniform-random flows per rank over N ranks (seeded)", true,
            [](const SpecName& spec, const PatternContext& ctx) {
              spec.requireArity(2);
              return uniformRandom(spec.argU32(0), spec.argU32(1),
                                   kSyntheticBytes, ctx.seed);
            });
  addSingle(registry, "permutations", "permutations:N:K",
            "union of K random permutations over N ranks (seeded)", true,
            [](const SpecName& spec, const PatternContext& ctx) {
              spec.requireArity(2);
              return unionOfRandomPermutations(spec.argU32(0), spec.argU32(1),
                                               kSyntheticBytes, ctx.seed);
            });
}

namespace {

/// Shared spec parsing of the open-loop sources: the first arg names the
/// destination distribution, hotspot takes an optional percentage
/// ("poisson:hotspot:30" aims 30% of each rank's messages at rank 0).
OpenLoopConfig openLoopConfig(const SpecName& spec, const SourceContext& ctx,
                              ArrivalProcess arrivals) {
  if (spec.args.empty()) {
    throw std::invalid_argument(
        "'" + spec.full +
        "' wants a destination distribution (uniform | hotspot[:PCT] | perm)");
  }
  OpenLoopConfig cfg;
  cfg.arrivals = arrivals;
  const std::string& dest = spec.args[0];
  if (dest == "uniform") {
    spec.requireArity(1);
    cfg.dest = DestDistribution::kUniform;
  } else if (dest == "perm") {
    spec.requireArity(1);
    cfg.dest = DestDistribution::kPermutation;
  } else if (dest == "hotspot") {
    cfg.dest = DestDistribution::kHotspot;
    if (spec.args.size() > 2) spec.requireArity(2);
    if (spec.args.size() == 2) {
      const std::uint32_t pct = spec.argU32(1);
      if (pct > 100) {
        throw std::invalid_argument("'" + spec.full +
                                    "': hotspot percentage exceeds 100");
      }
      cfg.hotFraction = static_cast<double>(pct) / 100.0;
    }
  } else {
    throw std::invalid_argument(
        "'" + spec.full + "': unknown destination distribution '" + dest +
        "' (known: uniform, hotspot[:PCT], perm)");
  }
  cfg.numRanks = ctx.numRanks;
  cfg.load = ctx.load;
  cfg.hostBytesPerNs = ctx.hostBytesPerNs;
  cfg.messageBytes = ctx.messageBytes;
  cfg.startNs = ctx.startNs;
  cfg.stopNs = ctx.stopNs;
  cfg.seed = ctx.seed;
  return cfg;
}

void addSource(core::Registry<SourceInfo>& registry, std::string name,
               std::string usage, std::string summary,
               ArrivalProcess arrivals) {
  SourceInfo info;
  info.usage = std::move(usage);
  info.summary = std::move(summary);
  info.make = [name, arrivals](const std::vector<std::string>& args,
                               const SourceContext& ctx)
      -> std::unique_ptr<TrafficSource> {
    return std::make_unique<OpenLoopSource>(
        openLoopConfig(core::joinSpec(name, args), ctx, arrivals));
  };
  registry.add(std::move(name), std::move(info));
}

}  // namespace

void registerBuiltinSources(core::Registry<core::SourceInfo>& registry) {
  addSource(registry, "poisson", "poisson:DEST[:PCT]",
            "open-loop Poisson arrivals (DEST: uniform | hotspot[:PCT] | "
            "perm)",
            ArrivalProcess::kPoisson);
  addSource(registry, "bursty", "bursty:DEST[:PCT]",
            "open-loop on/off bursts at line rate (DEST: uniform | "
            "hotspot[:PCT] | perm)",
            ArrivalProcess::kBursty);
}

}  // namespace patterns
