// The shared CLI plumbing: every numeric flag of trustddl_party,
// trustddl_client and trustddl_owner must be a whole-token value (a
// typo in one process would otherwise derive a different model from
// its peers), and every process of a deployment must derive the same
// EngineConfig from the same flags.
#include "cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace trustddl::cli {
namespace {

struct Parsed {
  int port_base = 29500;
  std::uint64_t seed = 1;
  std::size_t rows = 64;
  double lr = 0.3;
  bool batch_openings = true;
  bool check = false;
  std::string model = "mlp";
};

Parsed parse(std::vector<std::string> args) {
  Parsed parsed;
  std::vector<char*> argv = {const_cast<char*>("test_cli")};
  for (auto& arg : args) {
    argv.push_back(arg.data());
  }
  Flags("test_cli")
      .value("--port-base", parsed.port_base)
      .value("--seed", parsed.seed)
      .value("--rows", parsed.rows)
      .value("--lr", parsed.lr)
      .on_off("--batch-openings", parsed.batch_openings)
      .set("--check", parsed.check)
      .value("--model", parsed.model)
      .parse(static_cast<int>(argv.size()), argv.data());
  return parsed;
}

TEST(CliFlagsTest, WellFormedValuesParse) {
  const Parsed parsed =
      parse({"--port-base", "-1", "--seed", "18446744073709551615", "--rows",
             "0", "--lr", "1e-3", "--batch-openings", "off", "--check",
             "--model", "cnn"});
  EXPECT_EQ(parsed.port_base, -1);
  EXPECT_EQ(parsed.seed, 18446744073709551615ULL);
  EXPECT_EQ(parsed.rows, 0u);
  EXPECT_DOUBLE_EQ(parsed.lr, 1e-3);
  EXPECT_FALSE(parsed.batch_openings);
  EXPECT_TRUE(parsed.check);
  EXPECT_EQ(parsed.model, "cnn");
  EXPECT_TRUE(parse({}).batch_openings);  // defaults survive
}

TEST(CliFlagsTest, MalformedValuesExitWithUsageError) {
  const auto usage = ::testing::ExitedWithCode(64);
  EXPECT_EXIT(parse({"--seed", "1x"}), usage, "--seed expects");
  EXPECT_EXIT(parse({"--seed", "x"}), usage, "--seed expects");
  EXPECT_EXIT(parse({"--seed", "-1"}), usage, "--seed expects");
  EXPECT_EXIT(parse({"--seed", ""}), usage, "--seed expects");
  EXPECT_EXIT(parse({"--seed", "99999999999999999999"}), usage,
              "--seed expects");
  EXPECT_EXIT(parse({"--port-base", "x"}), usage, "--port-base expects");
  EXPECT_EXIT(parse({"--port-base", " 1"}), usage, "--port-base expects");
  EXPECT_EXIT(parse({"--rows", "6.5"}), usage, "--rows expects");
  EXPECT_EXIT(parse({"--lr", "0.3.1"}), usage, "--lr expects");
  EXPECT_EXIT(parse({"--lr", "nan"}), usage, "--lr expects a finite");
  EXPECT_EXIT(parse({"--batch-openings", "yes"}), usage,
              "--batch-openings expects on or off");
  EXPECT_EXIT(parse({"--seed"}), usage, "missing value for --seed");
  EXPECT_EXIT(parse({"--sed", "1"}), usage, "unknown flag --sed");
}

TEST(CliFlagsTest, PeerListsAreStrict) {
  const auto addresses = mesh_addresses("0=a:1,4=b:2", 29500, 5);
  EXPECT_EQ(addresses[0], "a:1");
  EXPECT_EQ(addresses[4], "b:2");
  EXPECT_TRUE(addresses[1].empty());
  EXPECT_EQ(mesh_addresses("", 29500, 5)[3], "127.0.0.1:29503");
  const auto usage = ::testing::ExitedWithCode(64);
  EXPECT_EXIT(mesh_addresses("1x=a:1", 29500, 5), usage, "--peers expects");
  EXPECT_EXIT(mesh_addresses("7=a:1", 29500, 5), usage, "out of range");
  EXPECT_EXIT(require_addresses(addresses, {0, 1}), usage,
              "missing actor id 1");
}

TEST(CliConfigTest, ServiceTasksUseMaskedOpenTruncation) {
  using mpc::TruncationMode;
  EXPECT_EQ(engine_config("serve", "malicious", 1).resolved_trunc_mode(),
            TruncationMode::kMaskedOpen);
  EXPECT_EQ(engine_config("serve", "hbc", 1).resolved_trunc_mode(),
            TruncationMode::kLocal);
  EXPECT_EQ(
      engine_config("train-serve", "malicious", 1).resolved_trunc_mode(),
      TruncationMode::kMaskedOpen);
  EXPECT_EQ(engine_config("infer", "malicious", 1).resolved_trunc_mode(),
            TruncationMode::kLocal);
  const core::EngineConfig attacked =
      engine_config("malicious-inference", "malicious", 9);
  EXPECT_EQ(attacked.resolved_trunc_mode(), TruncationMode::kMaskedOpen);
  EXPECT_EQ(attacked.byzantine_party, 1);
  EXPECT_TRUE(attacked.batch_openings);  // no flag turns batching off
  EXPECT_EQ(attacked.seed, 9u);
  EXPECT_EQ(engine_config("serve", "hbc", 1).mode,
            mpc::SecurityMode::kHonestButCurious);
}

TEST(CliConfigTest, ReferenceConfigDropsFilesOfTheDeployment) {
  core::EngineConfig config = engine_config("infer", "malicious", 3);
  config.triple_store_dir = "stores";
  config.metrics_out = "metrics.json";
  config.trace_out = "trace.jsonl";
  const core::EngineConfig reference = reference_config(config);
  EXPECT_TRUE(reference.triple_store_dir.empty());
  EXPECT_TRUE(reference.metrics_out.empty());
  EXPECT_TRUE(reference.trace_out.empty());
  EXPECT_EQ(reference.seed, 3u);
}

}  // namespace
}  // namespace trustddl::cli
