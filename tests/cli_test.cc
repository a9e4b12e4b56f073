// Copyright (c) swsample authors. Licensed under the MIT license.
//
// End-to-end tests of examples/stream_sampler_cli. Each case runs the
// built binary through /bin/sh and compares its stdout byte for byte with
// a golden file under tests/data/cli/; error cases must exit 2 and print
// nothing to stdout. Covered: single, sharded and keyed runs with
// samplers and estimators, --workload, --record-trace then
// --replay-trace, checkpoint then --kill-after then --resume, the sink
// listing, the invalid invocations, and that merged sharded samples of a
// sequence window stay inside it.
//
// Regenerate the goldens from the binary under test with
//   SWSAMPLE_UPDATE_GOLDENS=1 build/tests/cli_test

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sink_spec.h"

namespace swsample {
namespace {

/// One CLI invocation. `args` may name the per-suite scratch directory as
/// @DIR@ and the input files as @SEQ@, @TS@ and @VALS@; `input` is the
/// file fed on stdin ("" for none); `golden` names the expected stdout
/// for runs that exit 0 or 1.
struct Case {
  const char* golden;
  const char* args;
  const char* input;
  int exit_code = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream(path, std::ios::binary) << data;
}

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t at = s->find(from); at != std::string::npos;
       at = s->find(from, at + to.size())) {
    s->replace(at, from.size(), to);
  }
}

class CliTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(testing::TempDir() + "cli_test_" +
                           std::to_string(::getpid()) + "/");
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    // seq: "<value>" lines 1..20000; vals: 20000 values cycling mod 97;
    // ts: "<timestamp> <value>", four events per time unit.
    std::string seq, vals, ts;
    for (int i = 0; i < 20000; ++i) {
      seq += std::to_string(i + 1) + "\n";
      vals += std::to_string(i % 97) + "\n";
      ts += std::to_string(i / 4) + " " + std::to_string(i % 97) + "\n";
    }
    WriteFile(*dir_ + "seq.txt", seq);
    WriteFile(*dir_ + "vals.txt", vals);
    WriteFile(*dir_ + "ts.txt", ts);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  /// Runs the CLI; returns its exit code (128 + signal if killed) and
  /// fills `out` with its stdout.
  static int RunCli(const std::string& args, const std::string& input,
                    std::string* out) {
    std::string expanded = args;
    ReplaceAll(&expanded, "@DIR@", *dir_);
    ReplaceAll(&expanded, "@SEQ@", *dir_ + "seq.txt");
    ReplaceAll(&expanded, "@TS@", *dir_ + "ts.txt");
    ReplaceAll(&expanded, "@VALS@", *dir_ + "vals.txt");
    const std::string stdin_path =
        input.empty() ? "/dev/null" : *dir_ + input + ".txt";
    const std::string out_path = *dir_ + "stdout";
    const std::string command = std::string(SWSAMPLE_CLI) + " " + expanded +
                                " < " + stdin_path + " > " + out_path +
                                " 2> " + *dir_ + "stderr";
    const int status = std::system(command.c_str());
    *out = ReadFile(out_path);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
  }

  /// Runs every case in order, checking exit codes and goldens.
  static void RunCases(const std::vector<Case>& cases) {
    const bool update = std::getenv("SWSAMPLE_UPDATE_GOLDENS") != nullptr;
    for (const Case& c : cases) {
      SCOPED_TRACE(c.args);
      std::string out;
      const int code = RunCli(c.args, c.input, &out);
      EXPECT_EQ(code, c.exit_code) << ReadFile(*dir_ + "stderr");
      if (c.golden == nullptr) {
        EXPECT_EQ(out, "");
        continue;
      }
      const std::string golden =
          std::string(SWSAMPLE_TEST_DATA_DIR) + "/cli/" + c.golden + ".out";
      if (update) WriteFile(golden, out);
      EXPECT_EQ(out, ReadFile(golden)) << "golden " << golden;
    }
  }

  static std::string* dir_;
};

std::string* CliTest::dir_ = nullptr;

TEST_F(CliTest, SingleRuns) {
  RunCases({
      {"seq_swor", "--algo=bop-seq-swor --seed=7 1000 8", "seq"},
      {"seq_swor", "--algo=bop-seq-swor --seed=7 --file=@SEQ@ 1000 8", ""},
      {"seq_swor_batch0", "--algo=bop-seq-swor --seed=7 --batch=0 1000 8",
       "seq"},
      {"seq_swr", "--algo=bop-seq-swr --seed=3 500 4", "seq"},
      {"seq_chain", "--algo=bdm-chain --seed=2 1000 4", "seq"},
      {"ts_swor", "--algo=bop-ts-swor --seed=3 100 4", "ts"},
      {"ts_swr", "--algo=bop-ts-swr --seed=5 --report=1000 100 4", "ts"},
      {"est_ams_seq",
       "--estimator=ams-fk --substrate=bop-seq-single --seed=7 1000 64",
       "vals"},
      {"est_ams_ts",
       "--estimator=ams-fk --substrate=bop-ts-single --seed=7 1000 8", "ts"},
      {"est_ams_moment3", "--estimator=ams-fk --moment=3 --seed=7 1000 16",
       "vals"},
      {"est_entropy", "--estimator=ccm-entropy --seed=4 1000 32", "vals"},
      {"est_triangles",
       "--estimator=buriol-triangles --vertices=64 --seed=4 1000 32", "vals"},
      {"est_quantile", "--estimator=dkw-quantile --q=0.9 --seed=4 1000 32",
       "seq"},
      {"est_window_count",
       "--estimator=window-count --substrate=bop-ts-swr --seed=4 100 8", "ts"},
      {"est_biased_mean", "--estimator=biased-mean --seed=4 1024 16", "seq"},
  });
}

TEST_F(CliTest, SinkSpecRuns) {
  RunCases({
      {"sink_seq_swor_seed9", "--sink=bop-seq-swor,n=1000,k=8,seed=9", "seq"},
      // The positionals override the spec's window and k.
      {"sink_seq_swor_seed9", "--sink=bop-seq-swor,n=5,k=2,seed=9 1000 8",
       "seq"},
      // The same sink as the --estimator/--substrate alias run.
      {"est_ams_ts", "--sink=ams-fk@bop-ts-single,t=1000,r=8,seed=7", "ts"},
      {"sink_seed1", "--sink=bop-seq-swor,n=1000,k=8 --seed=1", "seq"},
      {"sink_seed2", "--sink=bop-seq-swor,n=1000,k=8 --seed=2", "seq"},
  });
}

TEST_F(CliTest, ShardedRuns) {
  RunCases({
      {"sharded_seq_chunks",
       "--algo=bop-seq-swor --seed=7 --threads=2 --shards=2 "
       "--partition=chunks 10000 16",
       "seq"},
      {"sharded_seq_batch500",
       "--algo=bop-seq-swor --seed=7 --threads=2 --shards=4 --batch=500 "
       "10000 16",
       "seq"},
      {"sharded_seq_one_thread",
       "--algo=bop-seq-swor --seed=7 --shards=2 --batch=100 1000 8", "seq"},
      {"sharded_seq_keyhash",
       "--algo=bop-seq-swr --seed=3 --threads=2 --partition=keyhash 1000 4",
       "vals"},
      {"sharded_ts", "--algo=exact-ts --seed=3 --threads=2 100 4", "ts"},
      {"sharded_est_ts",
       "--estimator=ams-fk --substrate=bop-ts-single --seed=7 --threads=2 "
       "--shards=3 1000 8",
       "ts"},
      {"sharded_est_biased_mean",
       "--estimator=biased-mean --seed=4 --threads=2 --batch=256 1024 16",
       "seq"},
  });
}

TEST_F(CliTest, KeyedRuns) {
  RunCases({
      {"keyed_ts", "--sink=bop-ts-single,t=60,seed=3 --keys --key-ttl=100",
       "ts"},
      {"keyed_shift", "--algo=bop-seq-swr --keys=4 --seed=3 100 2", "vals"},
      {"keyed_sharded", "--algo=bop-seq-swr --keys --threads=2 --seed=3 100 2",
       "vals"},
      // Spill files are fsynced, so these streams stay small enough for a
      // slow disk.
      {"keyed_budget",
       "--algo=bop-seq-swr --keys --key-budget=4K --spill-dir=@DIR@/spill "
       "--seed=3 --batch=64 --workload=constant@zipf,alpha=0.3,domain=6 "
       "--items=256 100 8",
       ""},
      {"keyed_budget_strict",
       "--algo=bop-seq-swr --keys --key-budget=4K --spill-dir=@DIR@/strict "
       "--key-strict-budget --key-sync-restore --seed=3 --batch=8 "
       "--workload=constant@zipf,alpha=0.3,domain=4 --items=40 100 8",
       ""},
      {"keyed_shed",
       "--algo=bop-seq-swr --keys --key-budget=4K --spill-dir=@DIR@/shed "
       "--key-degrade=shed --key-io-retries=2 --failpoints=spill.write=eio "
       "--seed=3 --batch=64 --workload=constant@zipf,alpha=0.3,domain=6 "
       "--items=256 100 8",
       "", 1},
  });
}

TEST_F(CliTest, WorkloadAndTraceRuns) {
  RunCases({
      {"workload_ts",
       "--workload=constant@zipf,rate=8 --items=20000 --algo=bop-ts-swor "
       "--seed=5 100 4",
       ""},
      {"workload_est",
       "--workload=poisson,lambda=6 --items=20000 --estimator=ams-fk "
       "--substrate=bop-ts-single --seed=5 100 8",
       ""},
      {"workload_sharded",
       "--workload=constant@zipf,rate=8 --items=20000 --algo=exact-ts "
       "--threads=2 --seed=5 100 4",
       ""},
      {"trace", "--workload=poisson@uniform,lambda=3 --items=20000 "
                "--record-trace=@DIR@/w.trace --algo=bop-ts-swr --seed=5 100 4",
       ""},
      {"trace", "--replay-trace=@DIR@/w.trace --algo=bop-ts-swr --seed=5 100 4",
       ""},
  });
}

TEST_F(CliTest, CheckpointKillResume) {
  RunCases({
      {"ckpt_seq", "--algo=bop-seq-swor --file=@SEQ@ --seed=7 1000 16", ""},
      {"ckpt_seq",
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --checkpoint-dir=@DIR@/c0 "
       "--checkpoint-every=4000 1000 16",
       ""},
      {nullptr,
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --checkpoint-dir=@DIR@/c1 "
       "--checkpoint-every=4000 --kill-after=10000 1000 16",
       "", 137},
      {"ckpt_seq",
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --checkpoint-dir=@DIR@/c1 "
       "--resume 1000 16",
       ""},
      // The checkpoint holds a sampler; the flags ask for an estimator.
      {nullptr,
       "--estimator=ams-fk --file=@SEQ@ --checkpoint-dir=@DIR@/c1 --resume "
       "1000 16",
       "", 2},
      {"ckpt_sharded",
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --threads=2 --shards=2 "
       "--partition=chunks --batch=1000 10000 16",
       ""},
      {nullptr,
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --threads=2 --shards=2 "
       "--partition=chunks --batch=1000 --checkpoint-dir=@DIR@/c2 "
       "--checkpoint-every=3000 --kill-after=9000 10000 16",
       "", 137},
      {"ckpt_sharded",
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --threads=2 --shards=2 "
       "--partition=chunks --batch=1000 --checkpoint-dir=@DIR@/c2 --resume "
       "10000 16",
       ""},
      // The checkpoint holds two shards; the flags ask for one.
      {nullptr,
       "--algo=bop-seq-swor --file=@SEQ@ --seed=7 --checkpoint-dir=@DIR@/c2 "
       "--resume 10000 16",
       "", 2},
      {nullptr,
       "--estimator=ams-fk --substrate=bop-ts-single --file=@TS@ --seed=7 "
       "--checkpoint-dir=@DIR@/c3 --checkpoint-every=3000 --kill-after=9000 "
       "1000 8",
       "", 137},
      {"est_ams_ts",
       "--estimator=ams-fk --substrate=bop-ts-single --file=@TS@ --seed=7 "
       "--checkpoint-dir=@DIR@/c3 --resume 1000 8",
       ""},
  });
}

TEST_F(CliTest, InvalidInvocationsExitTwo) {
  RunCases({
      {nullptr, "--bogus 1000 8", "", 2},
      {nullptr, "", "", 2},
      {nullptr, "1000", "", 2},
      {nullptr, "1000 8 3", "", 2},
      {nullptr, "0 8", "", 2},
      {nullptr, "1000 0", "", 2},
      {nullptr, "--algo=nope 1000 8", "", 2},
      {nullptr, "--algo=bop-seq-swor --estimator=ams-fk 1000 8", "", 2},
      {nullptr, "--sink=bop-seq-swor,n=10 --algo=bop-seq-swor", "", 2},
      {nullptr, "--sink=bop-seq-swor,n=10 --substrate=exact-seq", "", 2},
      {nullptr, "--sink=bop-seq-swor,n=10,zz=1", "", 2},
      {nullptr, "--seed=abc 1000 8", "", 2},
      {nullptr, "--seed=-1 1000 8", "", 2},
      {nullptr, "--batch= 1000 8", "", 2},
      {nullptr, "--q=x 1000 8", "", 2},
      {nullptr, "--keys --key-budget=12Q 1000 8", "", 2},
      {nullptr, "--keys --key-budget=99999999999999G 1000 8", "", 2},
      {nullptr, "--keys --key-degrade=sometimes 1000 8", "", 2},
      {nullptr, "--partition=round 1000 8", "", 2},
      {nullptr, "--key-ttl=5 1000 8", "", 2},
      {nullptr, "--key-budget=1M 1000 8", "", 2},
      {nullptr, "--spill-dir=@DIR@/nokeys 1000 8", "", 2},
      {nullptr, "--key-degrade=shed 1000 8", "", 2},
      {nullptr, "--key-io-retries=3 1000 8", "", 2},
      {nullptr, "--keys --checkpoint-dir=@DIR@/k 1000 8", "", 2},
      {nullptr, "--keys --partition=chunks --threads=2 1000 8", "", 2},
      {nullptr, "--resume 1000 8", "", 2},
      {nullptr, "--kill-after=5 1000 8", "", 2},
      {nullptr, "--workload=constant --replay-trace=@DIR@/x 1000 8", "", 2},
      {nullptr, "--workload=constant --file=@SEQ@ 1000 8", "", 2},
      {nullptr, "--replay-trace=@DIR@/x --file=@SEQ@ 1000 8", "", 2},
      {nullptr, "--workload=constant --checkpoint-dir=@DIR@/w 1000 8", "", 2},
      {nullptr, "--record-trace=@DIR@/r 1000 8", "", 2},
      {nullptr,
       "--workload=constant@zipf,domain=100000000000 --items=10 1000 8", "",
       2},
      {nullptr, "--failpoints=spill.write=nope 1000 8", "", 2},
      {nullptr, "--algo=bdm-chain --threads=2 1000 4", "seq", 2},
      {nullptr, "--estimator=dkw-quantile --threads=2 1000 4", "seq", 2},
      // Positionals are whole positive integers that fit a window.
      {nullptr, "10x 8", "seq", 2},
      {nullptr, "1000 8x", "seq", 2},
      {nullptr, "99999999999999999999 8", "seq", 2},
      {nullptr, "-5 8", "seq", 2},
      // A checkpoint cadence of 0 would never write one.
      {nullptr, "--checkpoint-dir=@DIR@/never --checkpoint-every=0 1000 8",
       "seq", 2},
      // Every keyed or checkpoint flag needs its mode.
      {nullptr, "--key-strict-budget 1000 8", "seq", 2},
      {nullptr, "--key-sync-restore 1000 8", "seq", 2},
      {nullptr, "--checkpoint-every=5 1000 8", "seq", 2},
      {nullptr, "--resume=1 --checkpoint-dir=@DIR@/v 1000 8", "seq", 2},
      {nullptr, "--keys= 1000 8", "seq", 2},
      {nullptr, "--list", "", 2},
      {nullptr, "--list-estimators", "", 2},
  });
  EXPECT_FALSE(std::filesystem::exists(*dir_ + "never"));
}

TEST_F(CliTest, ListSinksPrintsTheSinkTable) {
  std::string out;
  EXPECT_EQ(RunCli("--list-sinks", "", &out), 0);
  EXPECT_EQ(out, FormatSinkList());
}

// Chunk routing has period chunk_items * shards; the CLI picks a
// chunk_items dividing n/shards, so every n-long suffix holds n/shards
// items of each shard and the merged sample lies in the last n.
TEST_F(CliTest, ShardedSequenceSamplesStayInWindow) {
  std::string seq;
  for (int i = 1; i <= 100000; ++i) seq += std::to_string(i) + "\n";
  WriteFile(*dir_ + "seq100k.txt", seq);
  const struct {
    const char* flags;
    uint64_t window;
  } configs[] = {{"--threads=2", 1000}, {"--threads=3", 999},
                 {"--threads=2 --shards=4 --batch=0", 1000}};
  for (const auto& config : configs) {
    for (int seed = 1; seed <= 5; ++seed) {
      const std::string args = std::string("--algo=bop-seq-swor ") +
                               config.flags + " --seed=" +
                               std::to_string(seed) + " " +
                               std::to_string(config.window) + " 8";
      SCOPED_TRACE(args);
      std::string out;
      ASSERT_EQ(RunCli(args, "seq100k", &out), 0);
      const size_t open = out.find("sample=[");
      ASSERT_NE(open, std::string::npos) << out;
      std::istringstream values(out.substr(open + 8));
      int sampled = 0;
      for (uint64_t value = 0; values >> value; ++sampled) {
        EXPECT_GT(value, 100000 - config.window);
      }
      EXPECT_EQ(sampled, 8);
    }
  }
}

}  // namespace
}  // namespace swsample
