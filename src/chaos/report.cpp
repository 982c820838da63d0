#include "chaos/report.hpp"

#include <ostream>

#include "util/json_writer.hpp"

namespace diners::chaos {

void write_campaign_json(std::ostream& os, const CampaignOptions& options,
                         const CampaignBatchResult& result) {
  const bool msg = options.backend == Backend::kMsgReliable ||
                   options.backend == Backend::kMsgUnreliable;
  // The threaded backend's meal and poll counts depend on real-time
  // scheduling; they are reported on stderr by the tool instead so the
  // JSON stays bit-identical across runs and --jobs values.
  const bool deterministic = options.backend != Backend::kThreaded;

  util::JsonWriter w(os);
  w.begin_object();
  w.field("backend", to_string(options.backend));
  w.field("topology", options.topology);
  w.field("n", static_cast<std::uint64_t>(options.n));
  w.field("trials", result.trials);
  w.field("rounds", result.rounds);
  w.field("incidents", result.incidents);
  w.field("clean_trials", result.clean_trials);
  w.field("crashes", result.crashes);
  w.field("restarts", result.restarts);
  w.field("corruptions", result.corruptions);
  if (deterministic) {
    // With no recovered round there are no steps to summarize: null, not
    // a zero-step recovery that never happened.
    const auto& acc = result.recovery_steps;
    if (acc.count() == 0) {
      w.key("recovery_steps").null();
    } else {
      w.key("recovery_steps").begin_object();
      w.field("count", acc.count());
      w.field("mean", acc.mean());
      w.field("stddev", acc.stddev());
      w.field("min", acc.min());
      w.field("max", acc.max());
      w.end_object();
    }
    w.field("meals", result.total_meals);
  }
  if (msg) {
    w.key("network").begin_object();
    w.field("sent", result.messages_sent);
    w.field("delivered", result.messages_delivered);
    w.field("dropped", result.messages_dropped);
    w.field("duplicated", result.messages_duplicated);
    w.field("pending", result.messages_pending);
    w.end_object();
  }
  w.finish();
}

}  // namespace diners::chaos
