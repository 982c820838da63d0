// serve-far: a live service::ServiceHost on ring-16 under open-loop load
// from three DinersClient connections on arbiters 0, 1 and 2 (one thread
// each; the fourth core runs the event loop). Mid-run, arbiter 8 — at
// distance 6 or more from every client — crashes maliciously with 8
// garbage messages and later restarts. Theorem 3 says no client should
// notice: every request is due to be granted, and the failure-locality
// SLO report must come out ok.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/prctl.h>
#include <unistd.h>

#include "core/config.hpp"
#include "graph/generators.hpp"
#include "service/arbiter.hpp"
#include "service/client.hpp"
#include "service/load.hpp"
#include "service/slo.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using diners::service::AcquireOutcome;
using diners::service::DinersClient;
using diners::service::ReleaseOutcome;
using diners::service::RequestOutcome;
using diners::service::RequestRecord;
using diners::service::ServiceHost;
using diners::util::derive_seed;

constexpr diners::graph::NodeId kN = 16;
constexpr diners::graph::NodeId kVictim = 8;
constexpr std::uint32_t kMalice = 8;
constexpr std::uint32_t kClients = 3;
constexpr double kRatePerClient = 100.0;  // requests/s, Poisson arrivals
constexpr int kDeadlineMs = 250;
constexpr int kHoldUs = 200;
constexpr double kP99BudgetMs = 250.0;
constexpr std::size_t kSetups = 64;
constexpr double kWarmupSeconds = 1.0;

// derive_seed streams of the inputs drawn from the workload seed.
constexpr std::uint64_t kProtocolStream = 0x5e01;
constexpr std::uint64_t kJitterStream = 0x5e10;  // + client index
constexpr std::uint64_t kArrivalStream = 0x5e20;  // + client index
constexpr std::uint64_t kCrashStream = 0x5e30;

/// Removes the socket directory on every exit path; declared before the
/// service so the host has unlinked its endpoints first.
struct SocketDir {
  std::string path;
  explicit SocketDir(std::string p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~SocketDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;
};

struct Service {
  // Clients are declared after the host so they disconnect first.
  std::unique_ptr<ServiceHost> host;
  std::vector<std::unique_ptr<DinersClient>> clients;
};

/// Host up, then one warm-up request per client: DinersClient connects
/// lazily, so its first acquire pays the connect and HELLO.
Service setup(const std::string& socket_dir, std::uint64_t seed,
              Tracer* tracer, Outcome& out) {
  ScopedSpan root(tracer, "serve.setup");
  Service s;
  {
    ScopedSpan span(tracer, "service.start");
    diners::service::ServiceOptions so;
    so.socket_dir = socket_dir;
    so.config.diameter_override = diners::core::parse_threshold("sound", kN);
    so.mp.seed = derive_seed(seed, kProtocolStream);
    s.host = std::make_unique<ServiceHost>(diners::graph::make_ring(kN), so);
    s.host->start();
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ScopedSpan span(tracer, "client.connect");
    diners::service::ClientOptions co;
    co.endpoint = s.host->endpoint(c);
    co.seed = derive_seed(seed, kJitterStream + c);
    auto client = std::make_unique<DinersClient>(co);
    const auto deadline = Clock::now() + std::chrono::seconds(1);
    out.check(client->acquire(deadline) == AcquireOutcome::kGranted &&
                  client->release(deadline) == ReleaseOutcome::kReleased,
              "warm-up request on arbiter " + std::to_string(c) + " failed");
    s.clients.push_back(std::move(client));
  }
  return s;
}

struct ClientLog {
  std::vector<RequestRecord> records;
  std::vector<double> grant_ms;
  std::string error;
};

/// One client's open loop: exponential inter-arrival times from its own
/// stream, each request timed from when it was due.
void client_loop(DinersClient& client, std::uint32_t c, std::uint64_t seed,
                 Clock::time_point t0, double seconds, Tracer* tracer,
                 ClientLog& log) {
  try {
    // The default 50 us timer slack would make every request late by up
    // to that much; the generator's own lateness is not the service's.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    diners::util::Xoshiro256 rng(derive_seed(seed, kArrivalStream + c));
    double due_ms = 0.0;
    for (;;) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      due_ms += -std::log1p(-u) * 1e3 / kRatePerClient;
      if (due_ms >= seconds * 1e3) break;
      const auto due = t0 + std::chrono::microseconds(
                                static_cast<std::int64_t>(due_ms * 1e3));
      const std::uint64_t id = tracer != nullptr ? tracer->next_id() : 0;
      std::this_thread::sleep_until(due);
      if (tracer != nullptr) {
        tracer->record("load.late", id, to_ns(due), now_ns());
      }

      RequestRecord rec;
      rec.client = c;
      rec.node = c;
      rec.scheduled_ms = due_ms;
      AcquireOutcome acquired;
      {
        ScopedSpan span(tracer, "client.acquire", id);
        acquired = client.acquire(due + std::chrono::milliseconds(kDeadlineMs));
      }
      rec.outcome = acquired == AcquireOutcome::kTimeout
                        ? RequestOutcome::kTimeout
                        : RequestOutcome::kError;
      if (acquired == AcquireOutcome::kGranted) {
        const auto granted = Clock::now();
        rec.grant_latency_ms =
            std::chrono::duration<double, std::milli>(granted - due).count();
        log.grant_ms.push_back(rec.grant_latency_ms);
        {
          ScopedSpan span(tracer, "load.hold", id);
          std::this_thread::sleep_for(std::chrono::microseconds(kHoldUs));
        }
        ReleaseOutcome released;
        {
          ScopedSpan span(tracer, "client.release", id);
          released = client.release(Clock::now() +
                                    std::chrono::milliseconds(kDeadlineMs));
        }
        rec.outcome = released == ReleaseOutcome::kReleased
                          ? RequestOutcome::kGranted
                      : released == ReleaseOutcome::kRevoked
                          ? RequestOutcome::kRevoked
                          : RequestOutcome::kError;
      }
      if (tracer != nullptr) {
        tracer->record(Span{id, 0, "load.request", to_ns(due), now_ns()});
      }
      log.records.push_back(rec);
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

}  // namespace

Outcome run_serve(const Options& options, Tracer* tracer, const Outcome*) {
  Outcome out;
  out.roots = {"serve.setup", "load.request"};
  // Relative, so the socket paths stay within sockaddr_un's ~107 bytes
  // however deep the checkout is.
  const SocketDir dir(options.work_dir + "/svc-" + std::to_string(getpid()));
  const std::string& socket_dir = dir.path;
  // Half the set-ups run before the load (the last one serves it) and half
  // after, so that the median samples both ends of the run.
  std::optional<Service> svc;
  const auto time_setups = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && out.correct; ++k) {
      svc.reset();
      const auto s0 = Clock::now();
      svc.emplace(setup(socket_dir, options.seed, tracer, out));
      out.setup_s.push_back(seconds_between(s0, Clock::now()));
    }
  };
  time_setups(kSetups / 2);
  if (!out.correct) return out;
  ServiceHost& host = *svc->host;

  diners::util::Xoshiro256 crash_rng(derive_seed(options.seed, kCrashStream));
  const auto uniform = [&crash_rng](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(crash_rng() >> 11) * 0x1.0p-53;
  };
  const double crash_at_ms = options.seconds * 1e3 * uniform(0.30, 0.45);
  const double restart_at_ms =
      crash_at_ms + options.seconds * 1e3 * uniform(0.10, 0.20);

  // Unmeasured warm-up load, so that no lazy set-up in the service or the
  // clients is timed.
  {
    std::vector<ClientLog> warm(kClients);
    const auto w0 = Clock::now();
    std::vector<std::jthread> threads;
    for (std::uint32_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(*svc->clients[c], c, derive_seed(options.seed, 1), w0,
                    kWarmupSeconds, nullptr, warm[c]);
      });
    }
  }

  const auto before = host.stats();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<ClientLog> logs(kClients);
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    for (std::uint32_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(*svc->clients[c], c, options.seed, t0, options.seconds,
                    tracer, logs[c]);
      });
    }
    const auto at = [&t0](double ms) {
      return t0 +
             std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
    };
    std::this_thread::sleep_until(at(crash_at_ms));
    {
      ScopedSpan span(tracer, "chaos.crash");
      host.crash(kVictim, kMalice);
    }
    std::this_thread::sleep_until(at(restart_at_ms));
    {
      ScopedSpan span(tracer, "chaos.restart");
      host.restart(kVictim);
    }
  }
  const auto after = host.stats();
  out.task_cpu_s = process_cpu_s() - cpu0;
  const auto load_end = Clock::now();

  diners::service::LoadReport load;
  std::uint64_t reconnects = 0;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    out.check(logs[c].error.empty(), "client " + std::to_string(c) +
                                         " threw: " + logs[c].error);
    load.records.insert(load.records.end(), logs[c].records.begin(),
                        logs[c].records.end());
    out.task_ms.insert(out.task_ms.end(), logs[c].grant_ms.begin(),
                       logs[c].grant_ms.end());
    reconnects += svc->clients[c]->reconnects();
  }
  load.reconnects = reconnects;
  load.wall_ms =
      std::chrono::duration<double, std::milli>(load_end - t0).count();

  const auto recovery = [&] {
    ScopedSpan span(tracer, "chaos.recovery");
    return host.await_recovery(diners::chaos::WatchdogOptions{});
  }();
  diners::service::SloOptions slo;
  slo.victim = kVictim;
  slo.crash_at_ms = crash_at_ms;
  slo.recovered_at_ms = restart_at_ms + kDeadlineMs;
  slo.p99_budget_ms = kP99BudgetMs;
  const auto report =
      diners::service::build_slo_report(host.topology(), load, recovery, slo);
  out.peak_rss_mb = peak_rss_mb();
  time_setups(kSetups - kSetups / 2);
  svc.reset();

  out.attempted = load.records.size();
  for (const auto& r : load.records) {
    if (r.outcome != RequestOutcome::kGranted) ++out.failed;
  }
  out.check(out.attempted > 0, "no requests were scheduled");
  out.check(report.slo_ok(), "SLO verdict not ok (far p99 ok " +
                                 std::to_string(report.far_impact_p99_ok) +
                                 ", far clean " +
                                 std::to_string(report.far_impact_clean) +
                                 ", recovered " +
                                 std::to_string(report.recovered) + ": " +
                                 report.recovery_failure + ")");
  out.native["grant_p50_ms"] = median(out.task_ms);
  out.native["grant_p99_ms"] = quantile(out.task_ms, 0.99);
  out.native["requests"] = static_cast<double>(out.attempted);
  out.native["crash_at_ms"] = crash_at_ms;
  out.native["restart_at_ms"] = restart_at_ms;

  if (tracer != nullptr) {
    const auto t = layer_totals(tracer->spans());
    const double grants = static_cast<double>(after.grants - before.grants);
    auto& l = out.layers;
    l["service.start_s"] = layer_median_s(t, "service.start");
    l["client.connect_ms"] = layer_median_s(t, "client.connect") * 1e3;
    l["client.acquire_ms"] = layer_median_s(t, "client.acquire") * 1e3;
    l["load.late_ms"] = layer_median_s(t, "load.late") * 1e3;
    l["client.release_ms"] = layer_median_s(t, "client.release") * 1e3;
    l["msgpass.steps_per_grant"] =
        static_cast<double>(after.steps - before.steps) / grants;
    l["msgpass.messages_per_grant"] =
        static_cast<double>(after.messages_sent - before.messages_sent) /
        grants;
    l["service.revocations"] =
        static_cast<double>(after.revocations - before.revocations);
    l["service.dropped_connections"] = static_cast<double>(
        after.dropped_connections - before.dropped_connections);
    l["client.reconnects"] = static_cast<double>(reconnects);
    l["chaos.crash_ms"] = layer_median_s(t, "chaos.crash") * 1e3;
    l["chaos.restart_ms"] = layer_median_s(t, "chaos.restart") * 1e3;
    l["chaos.recovery_s"] = layer_median_s(t, "chaos.recovery");
    l["chaos.recovery_steps"] = static_cast<double>(recovery.steps_to_converge);
  }
  return out;
}

}  // namespace perfbench
