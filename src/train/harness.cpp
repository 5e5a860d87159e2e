#include "train/harness.hpp"

#include "core/session.hpp"

namespace trustddl::train {

data::Dataset owner_shard(const data::Dataset& dataset, int index,
                          int count) {
  TRUSTDDL_REQUIRE(count >= 1 && index >= 0 && index < count,
                   "train: bad owner shard index");
  std::vector<std::size_t> indices;
  for (std::size_t row = static_cast<std::size_t>(index);
       row < dataset.size(); row += static_cast<std::size_t>(count)) {
    indices.push_back(row);
  }
  TRUSTDDL_REQUIRE(!indices.empty(), "train: owner shard is empty");
  return data::gather(dataset, indices, 0, indices.size());
}

TrainSessionResult run_training_session(const TrainSessionConfig& config) {
  TRUSTDDL_REQUIRE(config.num_owners >= 1,
                   "train: session needs at least one owner");
  TRUSTDDL_REQUIRE(config.dataset.size() >=
                       static_cast<std::size_t>(config.num_owners),
                   "train: dataset smaller than the owner count");
  core::Session session(config.engine, core::kNumActors + config.num_owners);
  nn::Sequential model = core::reference_model(config.spec, config.engine);
  const std::size_t param_count = model.parameters().size();

  TrainSessionResult result;
  std::array<bool, 3> party_clean{true, true, true};
  std::vector<core::Role> roles = {{core::kModelOwner, [&] {
    train_service_owner_body(config.engine, model,
                             session.endpoint(core::kModelOwner),
                             config.train, config.num_owners,
                             &result.sequencer, &result.revealed);
  }}};
  for (int party = 0; party < core::kComputingParties; ++party) {
    roles.push_back(session.party_role(party, [&, party] {
      const auto slot = static_cast<std::size_t>(party);
      return train_service_party_body(
          config.spec, config.engine, param_count, party,
          session.endpoint(party), config.train, &party_clean[slot],
          &result.party_rounds[slot], session.adversary());
    }));
  }
  for (int index = 0; index < config.num_owners; ++index) {
    roles.push_back({kFirstOwnerId + index, [&, index] {
      OwnerBehaviour behaviour;
      if (static_cast<std::size_t>(index) < config.owners.size()) {
        behaviour = config.owners[static_cast<std::size_t>(index)];
      }
      OwnerOptions options;
      options.seed = owner_base_seed(config.engine.seed, index);
      options.classes = config.spec.classes;
      options.batch_rows = config.owner_batch_rows;
      options.frac_bits = config.engine.frac_bits;
      options.poison = behaviour.poison;
      const data::Dataset shard =
          owner_shard(config.dataset, index, config.num_owners);
      TrainingOwner owner(session.endpoint(kFirstOwnerId + index), options);
      std::size_t made = 0;
      for (std::uint64_t seq = owner.hello();
           seq < config.submissions_per_owner; ++seq) {
        owner.submit(seq, shard);
        ++made;
        if (behaviour.crash_after_submissions != 0 &&
            made >= behaviour.crash_after_submissions) {
          return;  // abrupt exit — no stop notice, like a killed process
        }
      }
      owner.stop(config.submissions_per_owner);
    }});
  }

  session.run(roles);
  result.wall_seconds = session.wall_seconds();
  result.traffic = session.traffic();
  // The honest parties agree on shutdown vs suspend; a tolerated
  // Byzantine party's flag is not evidence either way.
  result.clean = party_clean[config.engine.byzantine_party == 0 ? 1 : 0];
  result.cost = session.finish();
  return result;
}

}  // namespace trustddl::train
