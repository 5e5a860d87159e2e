#include "core/actors.hpp"

#include "common/logging.hpp"
#include "mpc/robust_reconstruct.hpp"
#include "mpc/share_serde.hpp"
#include "nn/loss.hpp"

namespace trustddl::core {
namespace {

constexpr const char* kLog = "core.actors";

/// Bound on the waits that cross actor roles (initial shares, batch
/// inputs, predictions): generous because another *process* may still
/// be starting up, unlike the tight per-opening protocol timeouts.
constexpr auto kActorTimeout = std::chrono::seconds(60);

std::string init_tag(std::size_t index) {
  return "init/" + std::to_string(index);
}
std::string batch_tag(std::size_t step, const char* what) {
  return "b/" + std::to_string(step) + "/" + what;
}
std::string pred_tag(std::size_t step) {
  return "pred/" + std::to_string(step);
}

}  // namespace

void share_parameters(nn::Sequential& model, net::Endpoint endpoint,
                      int frac_bits, Rng& rng) {
  const auto parameters = model.parameters();
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const auto views =
        mpc::share_secret(to_ring(parameters[i]->value, frac_bits), rng);
    for (int party = 0; party < kComputingParties; ++party) {
      ByteWriter writer;
      mpc::write_party_share(writer, views[static_cast<std::size_t>(party)]);
      endpoint.send(party, init_tag(i), writer.take());
    }
  }
}

std::vector<mpc::PartyShare> receive_parameters(net::Endpoint endpoint,
                                                std::size_t param_count) {
  std::vector<mpc::PartyShare> shares;
  shares.reserve(param_count);
  for (std::size_t i = 0; i < param_count; ++i) {
    ByteReader reader(endpoint.recv(kModelOwner, init_tag(i), kActorTimeout));
    shares.push_back(mpc::read_party_share(reader));
  }
  return shares;
}

OwnerServiceConfig make_owner_service_config(const EngineConfig& config,
                                             bool training) {
  OwnerServiceConfig owner_config;
  owner_config.frac_bits = config.frac_bits;
  owner_config.dist_tolerance = config.dist_tolerance;
  owner_config.collect_timeout = config.collect_timeout;
  owner_config.seed =
      training ? config.seed * 31 + 7 : config.seed * 41 + 17;
  return owner_config;
}

mpc::StoreFile triple_store_file(const EngineConfig& config, int party,
                                 bool training) {
  mpc::StoreFile file;
  if (config.triple_store_dir.empty()) {
    return file;
  }
  file.path = config.triple_store_dir + "/party" + std::to_string(party) +
              (training ? ".train" : ".infer") + ".triples";
  // Any change to the dealing seed or the fixed-point format makes
  // persisted material unusable; fold both into the tag.
  file.provenance = mpc::derive_material_seed(
      make_owner_service_config(config, training).seed,
      mpc::TripleKey::mul(Shape{static_cast<std::size_t>(config.frac_bits)}),
      0x7d57);
  return file;
}

std::string reveal_key(std::size_t epoch, std::size_t param) {
  return "e/" + std::to_string(epoch) + "/p/" + std::to_string(param);
}

bool apply_revealed_weights(const std::map<std::string, RingTensor>& revealed,
                            std::size_t epoch, std::size_t param_count,
                            int frac_bits, nn::Sequential& model) {
  const auto parameters = model.parameters();
  TRUSTDDL_REQUIRE(parameters.size() == param_count,
                   "parameter count mismatch");
  for (std::size_t i = 0; i < param_count; ++i) {
    const auto it = revealed.find(reveal_key(epoch, i));
    if (it == revealed.end()) {
      return false;
    }
    parameters[i]->value = to_real(it->second, frac_bits);
  }
  return true;
}

// --- Secure inference -----------------------------------------------

InferJob make_infer_job(nn::ModelSpec spec, const EngineConfig& config,
                        std::size_t param_count, const data::Dataset& inputs,
                        std::size_t batch_size) {
  TRUSTDDL_REQUIRE(batch_size >= 1, "infer: invalid batch size");
  TRUSTDDL_REQUIRE(inputs.size() >= 1, "infer: empty dataset");
  TRUSTDDL_REQUIRE(inputs.images.cols() == spec.input_features,
                   "infer: input rows have " +
                       std::to_string(inputs.images.cols()) +
                       " features, the model takes " +
                       std::to_string(spec.input_features));
  InferJob job;
  job.spec = std::move(spec);
  job.config = config;
  job.param_count = param_count;
  job.total_rows = inputs.size();
  for (std::size_t start = 0; start < inputs.size(); start += batch_size) {
    job.batches.push_back(data::slice(
        inputs, start, std::min(batch_size, inputs.size() - start)));
  }
  return job;
}

void infer_model_owner_body(const InferJob& job, net::Endpoint endpoint,
                            nn::Sequential& model,
                            ModelOwnerService& service) {
  Rng rng(job.config.seed * 59 + 29);
  share_parameters(model, endpoint, job.config.frac_bits, rng);
  service.run();
}

std::vector<std::size_t> infer_data_owner_body(const InferJob& job,
                                               net::Endpoint endpoint) {
  Rng rng(job.config.seed * 71 + 5);
  for (std::size_t step = 0; step < job.batches.size(); ++step) {
    const auto x_views = mpc::share_secret(
        to_ring(job.batches[step].images, job.config.frac_bits), rng);
    for (int party = 0; party < kComputingParties; ++party) {
      ByteWriter writer;
      mpc::write_party_share(writer,
                             x_views[static_cast<std::size_t>(party)]);
      endpoint.send(party, batch_tag(step, "x"), writer.take());
    }
  }
  // Collect prediction shares and reconstruct (the data owner
  // receives the inference result — paper §III-A).
  std::vector<std::size_t> labels(job.total_rows);
  std::size_t row_offset = 0;
  for (std::size_t step = 0; step < job.batches.size(); ++step) {
    std::array<std::optional<mpc::PartyShare>, kComputingParties> triples;
    for (int party = 0; party < kComputingParties; ++party) {
      try {
        ByteReader reader(
            endpoint.recv(party, pred_tag(step), kActorTimeout));
        triples[static_cast<std::size_t>(party)] =
            mpc::read_party_share(reader);
      } catch (const Error&) {
        TRUSTDDL_LOG_WARN(kLog) << "no prediction share from party "
                                << party << " for step " << step;
      }
    }
    const RealTensor probabilities = to_real(
        mpc::robust_reconstruct(triples, job.config.dist_tolerance),
        job.config.frac_bits);
    for (std::size_t row = 0; row < probabilities.rows(); ++row) {
      std::size_t best = 0;
      for (std::size_t col = 1; col < probabilities.cols(); ++col) {
        if (probabilities.at(row, col) > probabilities.at(row, best)) {
          best = col;
        }
      }
      labels[row_offset + row] = best;
    }
    row_offset += probabilities.rows();
  }
  return labels;
}

mpc::DetectionLog infer_computing_party_body(const InferJob& job, int party,
                                             net::Endpoint endpoint,
                                             mpc::AdversaryHooks* adversary) {
  OwnerLink link(endpoint, party, kActorTimeout);
  SecureModel model(job.spec, receive_parameters(endpoint, job.param_count));

  mpc::PartyContext pctx =
      make_party_context(job.config, party, endpoint, adversary);
  mpc::TripleStore store(
      link, party, triple_store_file(job.config, party, /*training=*/false));
  SecureExecContext sctx = make_exec_context(job.config, pctx, link, store);

  // Each step's material is planned one step ahead, so the dealer deals
  // it while the party computes the step before.  Every step runs at
  // weight version 0, whose masks the first step draws.
  const auto plan = [&](std::size_t step) {
    if (step < job.batches.size()) {
      store.plan(model.step_keys(
          sctx, Shape{job.batches[step].size(), job.spec.input_features},
          /*version=*/0, /*draw_masks=*/step == 0, /*training=*/false));
    }
  };
  plan(0);

  for (std::size_t step = 0; step < job.batches.size(); ++step) {
    plan(step + 1);
    ByteReader reader(
        endpoint.recv(kDataOwner, batch_tag(step, "x"), kActorTimeout));
    const mpc::PartyShare x = mpc::read_party_share(reader);
    const mpc::PartyShare probabilities = model.forward(sctx, x);
    ByteWriter writer;
    mpc::write_party_share(writer, probabilities);
    endpoint.send(kDataOwner, pred_tag(step), writer.take());
  }
  store.persist();  // before the owner link closes
  link.stop();
  return pctx.detections;
}

// --- Secure training ------------------------------------------------

TrainJob make_train_job(nn::ModelSpec spec, const EngineConfig& config,
                        const TrainOptions& options,
                        const data::Dataset& train_data,
                        std::size_t param_count) {
  TRUSTDDL_REQUIRE(options.epochs >= 1 && options.batch_size >= 1,
                   "train: invalid options");
  TRUSTDDL_REQUIRE(train_data.images.cols() == spec.input_features,
                   "train: input rows have " +
                       std::to_string(train_data.images.cols()) +
                       " features, the model takes " +
                       std::to_string(spec.input_features));
  TrainJob job;
  job.spec = std::move(spec);
  job.config = config;
  job.options = options;
  job.param_count = param_count;
  Rng shuffle_rng(options.shuffle_seed);
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const auto indices =
        data::shuffled_indices(train_data.size(), shuffle_rng);
    for (std::size_t start = 0; start < train_data.size();
         start += options.batch_size) {
      const std::size_t count =
          std::min(options.batch_size, train_data.size() - start);
      job.batches.push_back(data::gather(train_data, indices, start, count));
    }
    job.epoch_last_step.push_back(job.batches.size() - 1);
  }
  return job;
}

void train_model_owner_body(const TrainJob& job, net::Endpoint endpoint,
                            nn::Sequential& model,
                            ModelOwnerService& service) {
  Rng rng(job.config.seed * 101 + 3);
  share_parameters(model, endpoint, job.config.frac_bits, rng);
  service.run();
}

void train_data_owner_body(const TrainJob& job, net::Endpoint endpoint) {
  Rng rng(job.config.seed * 203 + 11);
  for (std::size_t step = 0; step < job.batches.size(); ++step) {
    const auto& batch = job.batches[step];
    const auto x_views = mpc::share_secret(
        to_ring(batch.images, job.config.frac_bits), rng);
    const auto y_views = mpc::share_secret(
        to_ring(nn::one_hot(batch.labels, job.spec.classes),
                job.config.frac_bits),
        rng);
    for (int party = 0; party < kComputingParties; ++party) {
      const auto index = static_cast<std::size_t>(party);
      ByteWriter x_writer;
      mpc::write_party_share(x_writer, x_views[index]);
      endpoint.send(party, batch_tag(step, "x"), x_writer.take());
      ByteWriter y_writer;
      mpc::write_party_share(y_writer, y_views[index]);
      endpoint.send(party, batch_tag(step, "y"), y_writer.take());
    }
  }
}

mpc::DetectionLog train_computing_party_body(const TrainJob& job, int party,
                                             net::Endpoint endpoint,
                                             mpc::AdversaryHooks* adversary) {
  OwnerLink link(endpoint, party, kActorTimeout);
  SecureModel model(job.spec, receive_parameters(endpoint, job.param_count));

  mpc::PartyContext pctx =
      make_party_context(job.config, party, endpoint, adversary);
  mpc::TripleStore store(
      link, party, triple_store_file(job.config, party, /*training=*/true));
  SecureExecContext sctx = make_exec_context(job.config, pctx, link, store);

  // Planned one step ahead, as for inference; step s runs at weight
  // version s and draws its masks.
  const auto plan = [&](std::size_t step) {
    if (step < job.batches.size()) {
      store.plan(model.step_keys(
          sctx, Shape{job.batches[step].size(), job.spec.input_features},
          /*version=*/step, /*draw_masks=*/true, /*training=*/true));
    }
  };
  plan(0);

  std::size_t epoch = 0;
  for (std::size_t step = 0; step < job.batches.size(); ++step) {
    plan(step + 1);
    ByteReader x_reader(
        endpoint.recv(kDataOwner, batch_tag(step, "x"), kActorTimeout));
    const mpc::PartyShare x = mpc::read_party_share(x_reader);
    ByteReader y_reader(
        endpoint.recv(kDataOwner, batch_tag(step, "y"), kActorTimeout));
    const mpc::PartyShare y = mpc::read_party_share(y_reader);

    const mpc::PartyShare probabilities = model.forward(sctx, x);
    // Fused softmax + cross-entropy gradient: p - y, computed locally
    // on shares (§III-C); the batch mean folds into the learning rate.
    const mpc::PartyShare grad_logits = probabilities - y;
    model.backward_from_logit_grad(sctx, grad_logits);
    model.sgd_step(sctx,
                   job.options.learning_rate /
                       static_cast<double>(x.shape()[0]),
                   job.config.frac_bits);
    // Step s ran at weight version s: forget the version left behind.
    store.retire_versions_before(model.weight_version());

    if (step == job.epoch_last_step[epoch]) {
      const bool last_epoch = epoch + 1 == job.options.epochs;
      if (job.options.reveal_weights &&
          (job.options.evaluate_each_epoch || last_epoch)) {
        const auto params = model.parameters();
        for (std::size_t i = 0; i < params.size(); ++i) {
          link.reveal(reveal_key(epoch, i), params[i]->value);
        }
      }
      ++epoch;
    }
  }
  store.persist();  // before the owner link closes
  link.stop();
  return pctx.detections;
}

}  // namespace trustddl::core
