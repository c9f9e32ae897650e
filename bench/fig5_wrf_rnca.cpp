// fig5_wrf_rnca — Regenerates Fig. 5(a): the WRF-256 slimming sweep with
// the paper's proposals, Random-NCA-Up and Random-NCA-Down, reported as
// boxplots over many seeds next to the centered S-mod-k / D-mod-k /
// Colored lines and the Random boxplot.
//
// Expected shape (Sec. IX): r-NCA-u/d always better than Random and close
// to S-mod-k / D-mod-k / Colored for most w2.
#include <iostream>

#include "bench_util.hpp"
#include "sweep_util.hpp"

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::Options::parse(argc, argv);
  std::cout << "== Fig. 5(a): WRF-256 with r-NCA-u / r-NCA-d "
               "(XGFT(2;16,16;1,w2)) ==\n"
            << "msg-scale=" << opt.msgScale << " seeds=" << opt.seeds
            << "\n\n";
  const auto points = benchutil::slimmingSweep("fig5-wrf", opt, std::cerr);
  benchutil::printSweep(points, opt, std::cout);
  return 0;
}
