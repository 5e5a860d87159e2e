#include "cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "core/actors.hpp"
#include "data/mnist_idx.hpp"
#include "obs/health.hpp"

namespace trustddl::cli {
namespace {

const char* g_program = "trustddl";

template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               const char* kind) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (text.empty() || error != std::errc() || end != last) {
    usage_error(flag + " expects " + kind + ", got '" + text + "'");
  }
  return value;
}

}  // namespace

void parse_value(const std::string& flag, const std::string& text,
                 int& out) {
  out = parse_number<int>(flag, text, "an integer");
}

void parse_value(const std::string& flag, const std::string& text,
                 unsigned long& out) {
  out = parse_number<unsigned long>(flag, text, "a non-negative integer");
}

void parse_value(const std::string& flag, const std::string& text,
                 unsigned long long& out) {
  out = parse_number<unsigned long long>(flag, text,
                                         "a non-negative integer");
}

void parse_value(const std::string& flag, const std::string& text,
                 double& out) {
  out = parse_number<double>(flag, text, "a number");
  if (!std::isfinite(out)) {
    usage_error(flag + " expects a finite number, got '" + text + "'");
  }
}

void parse_value(const std::string&, const std::string& text,
                 std::string& out) {
  out = text;
}

void usage_error(const std::string& reason) {
  std::fprintf(stderr,
               "%s: %s\n(see the header comment of examples/%s.cpp for "
               "flags)\n",
               g_program, reason.c_str(), g_program);
  std::exit(64);
}

Flags::Flags(const char* program) { g_program = program; }

Flags& Flags::on_off(const char* name, bool& out) {
  return custom(name, [&out, name](const std::string& text) {
    if (text != "on" && text != "off") {
      usage_error(std::string(name) + " expects on or off, got '" + text +
                  "'");
    }
    out = text == "on";
  });
}

Flags& Flags::set(const char* name, bool& out) {
  flags_.push_back({name, false, [&out](const std::string&) { out = true; }});
  return *this;
}

Flags& Flags::custom(const char* name,
                     std::function<void(const std::string&)> apply) {
  flags_.push_back({name, true, std::move(apply)});
  return *this;
}

void Flags::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name == arg) {
        flag = &candidate;
        break;
      }
    }
    if (flag == nullptr) {
      usage_error("unknown flag " + arg);
    }
    if (!flag->takes_value) {
      flag->apply("");
    } else if (i + 1 >= argc) {
      usage_error("missing value for " + arg);
    } else {
      flag->apply(argv[++i]);
    }
  }
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (std::size_t comma = text.find(','); comma != std::string::npos;
       start = comma + 1, comma = text.find(',', start)) {
    items.push_back(text.substr(start, comma - start));
  }
  items.push_back(text.substr(start));
  return items;
}

nn::ModelSpec spec_for(const std::string& name) {
  if (name == "mlp") {
    return nn::mnist_mlp_spec();
  }
  if (name == "cnn") {
    return nn::mnist_cnn_spec();
  }
  if (name == "tiny-cnn") {
    return nn::tiny_cnn_spec();
  }
  usage_error("--model must be mlp, cnn or tiny-cnn");
}

std::vector<std::string> mesh_addresses(const std::string& peers_text,
                                        int port_base, int num_actors) {
  std::vector<std::string> addresses(static_cast<std::size_t>(num_actors));
  if (peers_text.empty()) {
    for (int id = 0; id < num_actors; ++id) {
      addresses[static_cast<std::size_t>(id)] =
          "127.0.0.1:" + std::to_string(port_base + id);
    }
    return addresses;
  }
  for (const std::string& item : split_list(peers_text)) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      usage_error("peer entry '" + item + "' is not id=host:port");
    }
    int id = 0;
    parse_value("--peers", item.substr(0, eq), id);
    if (id < 0 || id >= num_actors) {
      usage_error("peer id out of range in '" + item + "'");
    }
    addresses[static_cast<std::size_t>(id)] = item.substr(eq + 1);
  }
  return addresses;
}

void require_addresses(const std::vector<std::string>& addresses,
                       const std::vector<int>& ids) {
  for (const int id : ids) {
    if (addresses[static_cast<std::size_t>(id)].empty()) {
      usage_error("--peers is missing actor id " + std::to_string(id));
    }
  }
}

core::TcpMesh service_mesh(int self, int num_actors,
                           const std::string& peers_text, int port_base,
                           const std::string& listen_host,
                           int connect_timeout_ms) {
  core::TcpMesh mesh;
  mesh.hosted = {self};
  mesh.addresses = mesh_addresses(peers_text, port_base, num_actors);
  if (!peers_text.empty()) {
    require_addresses(mesh.addresses, {0, 1, 2, core::kModelOwner, self});
  }
  mesh.listen_host = listen_host;
  mesh.net.num_parties = num_actors;
  mesh.net.connect.connect_timeout =
      std::chrono::milliseconds(connect_timeout_ms);
  mesh.peers = [](int) { return kServicePeers; };
  return mesh;
}

std::unique_ptr<obs::AdminServer> start_admin(int port,
                                              const std::string& roles,
                                              const std::string& task,
                                              obs::MetricsProvider provider) {
  if (port < 0) {
    return nullptr;
  }
  obs::AdminOptions options;
  options.port = port;
  auto server = std::make_unique<obs::AdminServer>(options);
  if (provider) {
    server->set_metrics_provider(std::move(provider));
  }
  server->start();
  obs::HealthState::global().set_identity(roles, task);
  std::printf("admin endpoint on 127.0.0.1:%d\n", server->port());
  return server;
}

core::EngineConfig engine_config(const std::string& task,
                                 const std::string& mode, std::uint64_t seed) {
  core::EngineConfig config;
  const bool malicious = mode != "hbc";
  config.mode = malicious ? mpc::SecurityMode::kMalicious
                          : mpc::SecurityMode::kHonestButCurious;
  config.seed = seed;
  config.collect_timeout = std::chrono::milliseconds(2000);
  if (task == "malicious-inference") {
    // Computing party 1 mounts consistent-corruption (Case 3) attacks:
    // commitment-consistent but corrupted shares, caught by share-copy
    // authentication at each honest observer (one attributable
    // share_auth_failure per attacked opening).
    config.byzantine_party = 1;
    config.byzantine.behavior =
        mpc::ByzantineConfig::Behavior::kConsistentCorruption;
  }
  if (task == "malicious-inference" || task == "train-serve" ||
      (task == "serve" && malicious)) {
    config.trunc_mode = mpc::TruncationMode::kMaskedOpen;
  }
  return config;
}

data::TrainTestSplit load_split(const nn::ModelSpec& spec,
                                std::size_t train_rows, std::size_t test_rows,
                                std::uint64_t seed,
                                const std::string& mnist_dir) {
  data::SyntheticMnistConfig data_config;
  data_config.train_count = train_rows;
  data_config.test_count = test_rows;
  data_config.seed = seed;
  // Synthetic geometry follows the model (tiny-cnn means 12x12 4-class
  // images); real MNIST idx files are 28x28/10 and only fit mlp/cnn.
  const nn::InputGeometry geometry = nn::input_geometry(spec);
  data_config.height = geometry.height;
  data_config.width = geometry.width;
  data_config.classes = spec.classes;
  if (!mnist_dir.empty() && !data::mnist_files_present(mnist_dir)) {
    std::fprintf(stderr,
                 "%s: %s is missing MNIST idx files; using the synthetic "
                 "substitute\n",
                 g_program, mnist_dir.c_str());
  }
  return data::load_mnist_or_synthetic(mnist_dir, data_config);
}

core::EngineConfig reference_config(core::EngineConfig config) {
  config.triple_store_dir.clear();
  config.metrics_out.clear();
  config.trace_out.clear();
  return config;
}

std::vector<std::size_t> reference_labels(const nn::ModelSpec& spec,
                                          const core::EngineConfig& config,
                                          const data::Dataset& inputs,
                                          std::size_t batch) {
  core::TrustDdlEngine engine(spec, reference_config(config));
  return engine.infer(inputs, batch).labels;
}

int verdict(const char* what, bool match, const char* reference) {
  std::printf("%s: %s (%s)\n", what, match ? "MATCH" : "MISMATCH",
              reference);
  return match ? 0 : 2;
}

void print_labels(const std::string& who,
                  const std::vector<std::size_t>& labels) {
  std::printf("%s predicted labels:", who.c_str());
  for (std::size_t i = 0; i < labels.size() && i < 24; ++i) {
    std::printf(" %zu", labels[i]);
  }
  std::printf("%s\n", labels.size() > 24 ? " ..." : "");
}

std::vector<double> revealed_accuracies(
    const std::map<std::string, RingTensor>& revealed, std::size_t epochs,
    int frac_bits, nn::Sequential& model, const data::Dataset& test) {
  std::vector<double> accuracies;
  const std::size_t param_count = model.parameters().size();
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (!core::apply_revealed_weights(revealed, epoch, param_count,
                                      frac_bits, model)) {
      std::printf("[party %d] epoch %zu: weights not revealed\n",
                  core::kModelOwner, epoch);
      continue;
    }
    accuracies.push_back(model.accuracy(test.images, test.labels));
    std::printf("[party %d] epoch %zu test accuracy: %.4f\n",
                core::kModelOwner, epoch, accuracies.back());
  }
  return accuracies;
}

void print_traffic(const core::Session& session) {
  for (const auto& transport : session.tcp_transports()) {
    const net::TrafficSnapshot traffic = transport->traffic();
    std::printf("[party %d] sent %llu messages, %.2f MB\n",
                static_cast<int>(transport->self()),
                static_cast<unsigned long long>(traffic.total_messages),
                traffic.total_megabytes());
  }
}

}  // namespace trustddl::cli
