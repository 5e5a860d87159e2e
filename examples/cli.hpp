// Shared command-line plumbing of the three deployment CLIs
// (trustddl_party, trustddl_client, trustddl_owner): one strict flag
// parser, the mesh address rules, and the derivations every process
// must agree on — the EngineConfig, the dataset and the in-memory
// --check reference.  Every process derives the same model from its
// flags (SPMD), so a value one process reads differently from its
// peers is a silent divergence: malformed numbers and switches are
// usage errors (exit 64), never a quiet 0.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/admin_server.hpp"

namespace trustddl::cli {

/// Prints "<program>: <reason>" plus a pointer to the flag docs and
/// exits 64 (EX_USAGE).
[[noreturn]] void usage_error(const std::string& reason);

/// Strict parse of `text` as the value of `flag`; a malformed value is
/// a usage error naming the flag.
void parse_value(const std::string& flag, const std::string& text, int& out);
void parse_value(const std::string& flag, const std::string& text,
                 unsigned long& out);
void parse_value(const std::string& flag, const std::string& text,
                 unsigned long long& out);
void parse_value(const std::string& flag, const std::string& text,
                 double& out);
void parse_value(const std::string& flag, const std::string& text,
                 std::string& out);

/// A flag table.  Numbers must be whole-token decimal values of the
/// target type (no trailing junk, no sign on unsigned flags, finite
/// floats); switches take exactly `on` or `off`.
class Flags {
 public:
  /// `program` names the CLI in usage errors.
  explicit Flags(const char* program);

  /// `--name VALUE` parsed into `out` (see parse_value).
  template <typename T>
  Flags& value(const char* name, T& out) {
    return custom(name, [&out, name](const std::string& text) {
      parse_value(name, text, out);
    });
  }
  /// `--name on|off`.
  Flags& on_off(const char* name, bool& out);
  /// Bare `--name` sets `out`.
  Flags& set(const char* name, bool& out);
  /// `--name VALUE` handed to `apply`.
  Flags& custom(const char* name,
                std::function<void(const std::string&)> apply);

  /// Applies argv; an unknown flag or missing value is a usage error.
  void parse(int argc, char** argv) const;

 private:
  struct Flag {
    std::string name;
    bool takes_value = true;
    std::function<void(const std::string&)> apply;
  };
  std::vector<Flag> flags_;
};

/// The items of a comma-separated list ("a,,b" -> "a", "", "b").
std::vector<std::string> split_list(const std::string& text);

/// mlp, cnn or tiny-cnn (--model).
nn::ModelSpec spec_for(const std::string& name);

/// Actor addresses: `peers_text` ("id=host:port,...", ids below
/// `num_actors`) when given, else 127.0.0.1:(port_base + id) for every
/// id.
std::vector<std::string> mesh_addresses(const std::string& peers_text,
                                        int port_base, int num_actors);

/// Usage error unless every id in `ids` has an address.
void require_addresses(const std::vector<std::string>& addresses,
                       const std::vector<int>& ids);

/// The actors a service actor (a client or a data owner) links.
inline const std::vector<net::PartyId> kServicePeers = {0, 1, 2,
                                                        core::kModelOwner};

/// The TCP set-up of one service actor: it hosts `self` and links only
/// kServicePeers.
core::TcpMesh service_mesh(int self, int num_actors,
                           const std::string& peers_text, int port_base,
                           const std::string& listen_host,
                           int connect_timeout_ms);

/// Starts the live introspection endpoint on 127.0.0.1:`port` (none
/// when `port` < 0) under the /healthz identity `roles`/`task`;
/// `provider` (optional) renders /metrics.
std::unique_ptr<obs::AdminServer> start_admin(
    int port, const std::string& roles, const std::string& task,
    obs::MetricsProvider provider = nullptr);

/// The EngineConfig every process of a `task` deployment derives from
/// the shared flags.  Processes start at different times, so the model
/// owner's collectives get 2 s of slack.  Masked-open truncation is
/// forced wherever honest states must stay bit-identical: under the
/// Case 3 adversary of malicious-inference, for malicious-mode serve,
/// and for train-serve (aggregation rescale, checkpoint/resume).
/// Openings always share rounds (EngineConfig::batch_openings): the
/// unbatched schedule only costs rounds and messages.
core::EngineConfig engine_config(const std::string& task,
                                 const std::string& mode, std::uint64_t seed);

/// The dataset every process derives: real MNIST from `mnist_dir` when
/// complete, else the synthetic substitute with the model's geometry.
data::TrainTestSplit load_split(const nn::ModelSpec& spec,
                                std::size_t train_rows, std::size_t test_rows,
                                std::uint64_t seed,
                                const std::string& mnist_dir = "");

/// The --check reference config: `config` without the persisted
/// stores and telemetry sinks, which belong to the deployment under
/// test (a restored store resumes mid-stream; the reference starts at
/// cursor 0 and deals bit-identically either way).
core::EngineConfig reference_config(core::EngineConfig config);

/// Labels the in-memory engine predicts for `inputs`.
std::vector<std::size_t> reference_labels(const nn::ModelSpec& spec,
                                          const core::EngineConfig& config,
                                          const data::Dataset& inputs,
                                          std::size_t batch);

/// Prints "<what>: MATCH|MISMATCH (<reference>)"; returns the exit
/// code (2 on mismatch).
int verdict(const char* what, bool match, const char* reference);

/// "<who> predicted labels: l0 l1 ..." (the first 24).
void print_labels(const std::string& who,
                  const std::vector<std::size_t>& labels);

/// Loads each epoch's revealed weights into `model` and prints its
/// test accuracy as the model owner; epochs with missing weights are
/// reported and skipped.
std::vector<double> revealed_accuracies(
    const std::map<std::string, RingTensor>& revealed, std::size_t epochs,
    int frac_bits, nn::Sequential& model, const data::Dataset& test);

/// One "[party i] sent N messages, X MB" line per hosted transport
/// (a TcpTransport's totals count its sends only, so summing the lines
/// across processes reproduces the in-memory engine's totals).
void print_traffic(const core::Session& session);

}  // namespace trustddl::cli
