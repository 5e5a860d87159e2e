#include "serve/harness.hpp"

#include "core/session.hpp"

namespace trustddl::serve {

SessionResult run_serving_session(
    const SessionConfig& config,
    const std::function<void(int, InferenceClient&)>& client_body) {
  TRUSTDDL_REQUIRE(config.num_clients >= 1,
                   "serve: session needs at least one client");
  core::Session session(config.engine, core::kNumActors + config.num_clients);
  nn::Sequential model = core::reference_model(config.spec, config.engine);
  const std::size_t param_count = model.parameters().size();

  SessionResult result;
  std::vector<core::Role> roles = {{core::kModelOwner, [&] {
    serve_model_owner_body(config.spec, config.engine, model,
                           session.endpoint(core::kModelOwner), config.serve,
                           config.num_clients, &result.scheduler);
  }}};
  for (int party = 0; party < core::kComputingParties; ++party) {
    roles.push_back(session.party_role(party, [&, party] {
      ServerOptions options;
      options.serve = config.serve;
      options.corrupt_results = party == config.corrupt_party;
      if (party == config.crash_party) {
        options.max_batches = config.crash_after_batches;
      }
      return serve_computing_party_body(
          config.spec, config.engine, param_count, party,
          session.endpoint(party), options,
          &result.party_batches[static_cast<std::size_t>(party)],
          session.adversary());
    }));
  }
  for (int index = 0; index < config.num_clients; ++index) {
    roles.push_back({kFirstClientId + index, [&, index] {
      InferenceClient client(
          session.endpoint(kFirstClientId + index),
          client_options(config.client, config.engine, index));
      client_body(index, client);
      client.stop();
    }});
  }

  session.run(roles);
  result.wall_seconds = session.wall_seconds();
  result.traffic = session.traffic();
  result.cost = session.finish();
  return result;
}

}  // namespace trustddl::serve
