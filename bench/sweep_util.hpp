// sweep_util.hpp — The progressive tree-slimming sweep shared by the
// Fig. 2 and Fig. 5 harnesses, expressed as an engine campaign.
//
// Both figures plot slowdown vs. Full-Crossbar on XGFT(2;16,16;1,w2) for
// w2 = 16..1.  Fig. 2 compares {Random, S-mod-k, D-mod-k, Colored}; Fig. 5
// adds the proposals {r-NCA-u, r-NCA-d} as boxplots over many seeds.
//
// The sweep is the engine's builtin campaign of the same name
// (engine/campaigns.cpp, also `campaign_cli --builtin fig2-cg`), executed
// by engine::Runner, so it shards over all cores (--threads), reuses each
// w2 topology across algorithms and seeds, and simulates the Full-Crossbar
// reference exactly once — while producing the same numbers the serial
// harness produced (the engine's per-job results are thread-count
// independent).
#pragma once

#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "bench_util.hpp"
#include "core/scenario.hpp"
#include "engine/campaigns.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

namespace benchutil {

/// Measured slowdowns at one w2 point.
struct SweepPoint {
  std::uint32_t w2 = 0;
  std::map<std::string, double> centered;           ///< Deterministic lines.
  std::map<std::string, analysis::BoxStats> boxes;  ///< Seeded algorithms.
};

/// Runs the builtin slimming campaign @p campaign ("fig2-cg", "fig2-wrf",
/// "fig5-cg" or "fig5-wrf") at opt.seeds and opt.msgScale, and groups its
/// slowdowns by (w2, scheme).  Seeded schemes (Random, and in Fig. 5 the
/// r-NCA proposals) are box-plotted over their seeds — the paper plots
/// Random centered in Fig. 2 and boxed in Fig. 5, and the median is
/// reported either way; the others run once and are reported as is.
inline std::vector<SweepPoint> slimmingSweep(const std::string& campaign,
                                             const Options& opt,
                                             std::ostream& log) {
  const std::vector<engine::ExperimentSpec> specs = engine::parseCampaign(
      engine::builtinCampaign(campaign, {opt.seeds, opt.msgScale}));

  engine::RunnerOptions ropt;
  ropt.threads = opt.threads;
  ropt.collectContention = false;  // The figures only need slowdowns.
  std::size_t done = 0;
  ropt.onJobDone = [&](const engine::JobResult&) {
    if (++done % 25 == 0 || done == specs.size()) {
      log << "  " << done << "/" << specs.size() << " jobs done\n"
          << std::flush;
    }
  };
  engine::Runner runner(ropt);
  const engine::CampaignResults results = runner.run(specs);

  // w2 descending (16..1, the paper's slimming order), then scheme; each
  // sample keeps job order, so seeds stay ascending.
  std::map<std::uint32_t, std::map<std::string, std::vector<double>>,
           std::greater<>>
      samples;
  for (const engine::JobResult& job : results.jobs) {
    if (!job.ok) {
      throw std::runtime_error("sweep job failed (" + job.spec.toLine() +
                               "): " + job.error);
    }
    samples[job.spec.topo.w(2)][job.spec.routing].push_back(job.slowdown);
  }
  std::vector<SweepPoint> points;
  for (const auto& [w2, schemes] : samples) {
    SweepPoint point;
    point.w2 = w2;
    for (const auto& [scheme, sample] : schemes) {
      if (core::schemeRegistry().at(scheme).seeded) {
        point.boxes[scheme] = analysis::boxStats(sample);
      } else {
        point.centered[scheme] = sample.front();
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

/// Renders the sweep in the paper's orientation: one row per w2, one column
/// per algorithm (medians for boxed algorithms), then per-algorithm boxplot
/// detail tables.
inline void printSweep(const std::vector<SweepPoint>& points,
                       const Options& opt, std::ostream& os) {
  if (points.empty()) return;
  std::vector<std::string> header{"w2", "Full-Crossbar"};
  for (const auto& [name, v] : points.front().centered) header.push_back(name);
  for (const auto& [name, v] : points.front().boxes) {
    header.push_back(name + "(med)");
  }
  analysis::Table table(header);
  for (const SweepPoint& p : points) {
    std::vector<std::string> row{std::to_string(p.w2), "1.000"};
    for (const auto& [name, v] : p.centered) {
      row.push_back(analysis::Table::num(v));
    }
    for (const auto& [name, b] : p.boxes) {
      row.push_back(analysis::Table::num(b.median));
    }
    table.addRow(std::move(row));
  }
  if (opt.csv) {
    table.printCsv(os);
  } else {
    table.print(os);
  }

  for (const auto& [name, unused] : points.front().boxes) {
    os << "\nboxplot: " << name << " (" << opt.seeds << " seeds)\n";
    analysis::Table box({"w2", "min", "q1", "median", "q3", "max"});
    for (const SweepPoint& p : points) {
      const analysis::BoxStats& b = p.boxes.at(name);
      box.addRow({std::to_string(p.w2), analysis::Table::num(b.min),
                  analysis::Table::num(b.q1), analysis::Table::num(b.median),
                  analysis::Table::num(b.q3), analysis::Table::num(b.max)});
    }
    if (opt.csv) {
      box.printCsv(os);
    } else {
      box.print(os);
    }
  }
}

}  // namespace benchutil
