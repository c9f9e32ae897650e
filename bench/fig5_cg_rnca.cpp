// fig5_cg_rnca — Regenerates Fig. 5(b): the CG.D-128 slimming sweep with
// Random-NCA-Up and Random-NCA-Down boxplots.
//
// Expected shape (Sec. IX): r-NCA-u/d statistically better than Random for
// all w2 and clear of the S-mod-k / D-mod-k pathology, with a remaining gap
// to the pattern-aware Colored bound.
#include <iostream>

#include "bench_util.hpp"
#include "sweep_util.hpp"

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::Options::parse(argc, argv);
  std::cout << "== Fig. 5(b): CG.D-128 with r-NCA-u / r-NCA-d "
               "(XGFT(2;16,16;1,w2)) ==\n"
            << "msg-scale=" << opt.msgScale << " seeds=" << opt.seeds
            << "\n\n";
  const auto points = benchutil::slimmingSweep("fig5-cg", opt, std::cerr);
  benchutil::printSweep(points, opt, std::cout);
  return 0;
}
