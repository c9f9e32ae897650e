// fig2_cg_slimming — Regenerates Fig. 2(b): CG.D-128 slowdown vs. the
// Full-Crossbar on progressively slimmed XGFT(2;16,16;1,w2) topologies
// under Random, S-mod-k, D-mod-k and the pattern-aware Colored baseline.
//
// Expected shape (Sec. VII-A): S-mod-k and D-mod-k suffer the Eq. (2)
// congruence pathology (worse than a factor of two over Colored even on the
// full tree); Random sits between them and Colored for most w2.
#include <iostream>

#include "bench_util.hpp"
#include "sweep_util.hpp"

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::Options::parse(argc, argv);
  std::cout << "== Fig. 2(b): CG.D-128, progressive tree-slimming "
               "(XGFT(2;16,16;1,w2)) ==\n"
            << "msg-scale=" << opt.msgScale << " seeds=" << opt.seeds
            << "\n\n";
  const auto points = benchutil::slimmingSweep("fig2-cg", opt, std::cerr);
  benchutil::printSweep(points, opt, std::cout);
  return 0;
}
