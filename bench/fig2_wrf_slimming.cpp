// fig2_wrf_slimming — Regenerates Fig. 2(a): WRF-256 slowdown vs. the
// Full-Crossbar on progressively slimmed XGFT(2;16,16;1,w2) topologies
// under Random, S-mod-k, D-mod-k and the pattern-aware Colored baseline.
//
// Expected shape (Sec. VII-A): Random clearly worse than the concentrating
// schemes at every w2; S-mod-k == D-mod-k == Colored within noise; slowdown
// grows towards w2 = 1 where the tree degenerates to a single k-ary tree.
#include <iostream>

#include "bench_util.hpp"
#include "sweep_util.hpp"

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::Options::parse(argc, argv);
  std::cout << "== Fig. 2(a): WRF, progressive tree-slimming "
               "(XGFT(2;16,16;1,w2)) ==\n"
            << "msg-scale=" << opt.msgScale << " seeds=" << opt.seeds
            << "\n\n";
  const auto points = benchutil::slimmingSweep("fig2-wrf", opt, std::cerr);
  benchutil::printSweep(points, opt, std::cout);
  return 0;
}
