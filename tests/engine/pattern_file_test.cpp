// pattern=file:PATH through the campaign front door: a flow list written
// from the builtin cg128 runs exactly like cg128 (every CSV column but
// `pattern` identical), and a path that cannot be opened fails its job
// with an error row and campaign_cli's exit status 1.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "patterns/applications.hpp"
#include "patterns/io.hpp"

namespace {

namespace fs = std::filesystem;

class PatternFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xgft_pattern_file_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs campaign_cli on the one-line campaign @p line; returns its exit
  /// status and the CSV it wrote to @p csv.
  int runCampaign(const std::string& line, std::string& csv) {
    const fs::path campaign = dir_ / "campaign.txt";
    const fs::path out = dir_ / "out.csv";
    std::ofstream(campaign) << line << "\n";
    fs::remove(out);
    const std::string cmd = std::string(XGFT_CAMPAIGN_CLI) +
                            " --quiet --threads 1 --out " + out.string() +
                            " " + campaign.string() + " 2>/dev/null";
    const int status = std::system(cmd.c_str());
    std::ifstream in(out);
    std::ostringstream buf;
    buf << in.rdbuf();
    csv = buf.str();
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  fs::path dir_;
};

/// One CSV record split into fields (double-quoted fields may hold commas).
std::vector<std::string> fields(const std::string& row) {
  std::vector<std::string> out(1);
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (c == '"') {
      if (quoted && i + 1 < row.size() && row[i + 1] == '"') {
        out.back() += c;
        ++i;
      } else {
        quoted = !quoted;
      }
    } else if (c == ',' && !quoted) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

std::vector<std::vector<std::string>> rows(const std::string& csv) {
  std::vector<std::vector<std::string>> out;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) out.push_back(fields(line));
  return out;
}

constexpr const char* kAxes = " m1=16 m2=16 w2={16,10} routing=d-mod-k "
                              "msg_scale=0.125";

TEST_F(PatternFile, FlowListRunsLikeTheBuiltin) {
  const fs::path flows = dir_ / "cg.flows";
  std::ofstream(flows) << patterns::toString(patterns::cgD128());

  std::string builtinCsv;
  std::string fileCsv;
  ASSERT_EQ(runCampaign(std::string("pattern=cg128") + kAxes, builtinCsv), 0);
  ASSERT_EQ(runCampaign("pattern=file:" + flows.string() + kAxes, fileCsv),
            0);
  const auto builtin = rows(builtinCsv);
  const auto file = rows(fileCsv);
  ASSERT_EQ(builtin.size(), 3u);  // Header + one row per w2.
  ASSERT_EQ(file.size(), builtin.size());
  const std::vector<std::string>& header = builtin[0];
  for (std::size_t r = 0; r < builtin.size(); ++r) {
    ASSERT_EQ(file[r].size(), header.size());
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (r > 0 && header[c] == "pattern") {
        EXPECT_EQ(builtin[r][c], "cg128");
        EXPECT_EQ(file[r][c], "file:" + flows.string());
        continue;
      }
      EXPECT_EQ(file[r][c], builtin[r][c]) << "row " << r << " " << header[c];
    }
  }
}

TEST_F(PatternFile, MissingFileFailsTheJob) {
  const std::string missing = (dir_ / "missing.flows").string();
  std::string csv;
  EXPECT_EQ(runCampaign("pattern=file:" + missing + kAxes, csv), 1);
  const auto table = rows(csv);
  ASSERT_EQ(table.size(), 3u);
  const std::vector<std::string>& header = table[0];
  for (std::size_t r = 1; r < table.size(); ++r) {
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (header[c] == "status") {
        EXPECT_EQ(table[r][c], "error");
      } else if (header[c] == "error") {
        EXPECT_EQ(table[r][c], "cannot open pattern file '" + missing + "'");
      }
    }
  }
}

}  // namespace
