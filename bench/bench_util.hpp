// bench_util.hpp — Shared command-line handling for the figure harnesses.
//
// Every figure/table bench accepts:
//   --quick            CI-sized run (few seeds, scaled-down messages)
//   --full             paper-sized run (40+ seeds, full 750 KB messages)
//   --seeds N          override the seed count for randomized routings
//   --msg-scale X      scale all message sizes by X (default depends on mode)
//   --threads N        worker threads for engine-backed sweeps (default:
//                      hardware concurrency; results are thread-independent)
//   --csv              machine-readable output
// Default (no flag) is a middle ground that completes on one core in a few
// minutes across all benches.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "engine/spec.hpp"

namespace benchutil {

struct Options {
  std::uint32_t seeds = 10;
  double msgScale = 0.125;
  std::uint32_t threads = 0;  ///< 0 = hardware concurrency.
  bool csv = false;

  /// Parses the flags above with campaign_cli's bounds: --threads in
  /// [0, 2^32), --seeds in [1, 2^32), --msg-scale finite and > 0.  A bad
  /// or missing value exits 2 with one stderr line.
  static Options parse(int argc, char** argv) {
    Options opt;
    bool seedsSet = false;
    bool scaleSet = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) fail(arg + " wants a value");
        return argv[++i];
      };
      if (arg == "--quick") {
        if (!seedsSet) opt.seeds = 3;
        if (!scaleSet) opt.msgScale = 0.03125;
      } else if (arg == "--full") {
        if (!seedsSet) opt.seeds = 40;
        if (!scaleSet) opt.msgScale = 1.0;
      } else if (arg == "--seeds") {
        opt.seeds = flagU32(arg, value());
        if (opt.seeds == 0) fail("--seeds wants at least 1 seed");
        seedsSet = true;
      } else if (arg == "--msg-scale") {
        const std::string v = value();
        if (!engine::parseFiniteDouble(v, opt.msgScale) ||
            opt.msgScale <= 0.0) {
          fail("--msg-scale wants a finite number > 0, got '" + v + "'");
        }
        scaleSet = true;
      } else if (arg == "--threads") {
        opt.threads = flagU32(arg, value());
      } else if (arg == "--csv") {
        opt.csv = true;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "flags: --quick | --full | --seeds N | --msg-scale X | "
                     "--threads N | --csv\n";
        std::exit(0);
      } else {
        fail("unknown flag '" + arg + "' (run --help for the flag list)");
      }
    }
    return opt;
  }

 private:
  [[noreturn]] static void fail(const std::string& why) {
    std::cerr << "error: " << why << "\n";
    std::exit(2);
  }

  static std::uint32_t flagU32(const std::string& flag,
                               const std::string& value) {
    std::uint64_t v = 0;
    if (!engine::parseU64(value, v) || v > 0xffffffffULL) {
      fail(flag + " wants an integer in [0, 2^32), got '" + value + "'");
    }
    return static_cast<std::uint32_t>(v);
  }
};

}  // namespace benchutil
