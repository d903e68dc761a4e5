// The served workload: one OreoServer with two tenants driven by closed-loop
// LoopbackClient threads through the wire protocol, admission, batch
// formation and the weighted DRR scheduler. Tenant 1 (TPC-DS-like, weight
// 3) reads through a SharedBlockCache smaller than its data over a
// RemoteBackend with simulated latency and seeded transient faults; tenant
// 2 (telemetry, weight 1) serves from RAM.
#include <atomic>
#include <thread>

#include "common/logging.h"
#include "core/oreo.h"
#include "inputs.h"
#include "layout/qdtree_layout.h"
#include "runner.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/block.h"
#include "storage/remote_backend.h"
#include "storage/shared_cache.h"

namespace perfbench {

using oreo::Query;

namespace {

constexpr uint32_t kRemoteTenant = 1;
constexpr uint32_t kLocalTenant = 2;

struct TenantPlan {
  uint32_t id;
  std::string dataset;
  size_t rows;
  uint32_t weight;
  size_t clients;
  size_t requests_per_client;  // sent as two-request bursts
};

// Request counts follow the 3:1 weights (800 vs 266 requests).
const TenantPlan kTenants[] = {
    {kRemoteTenant, "tpcds", 20000, 3, 2, 400},
    {kLocalTenant, "telemetry", 20000, 1, 1, 266},
};
constexpr size_t kBurst = 2;

class ServedRunner : public WorkloadRunner {
 public:
  explicit ServedRunner(const RunOptions& options) : options_(options) {}

  RepResult Run(bool traced, bool setup_only) override;

  Meta meta() const override {
    return {{"backend",
             "tenant 1: shared cache over remote(inmem); tenant 2: inmem"},
            {"flush", "none (RAM)"},
            {"dispatchers", "2"},
            {"clients", "3 closed-loop (2 on tenant 1, 1 on tenant 2)"},
            {"requests", "800 on tenant 1, 266 on tenant 2"}};
  }

  bool deterministic_cost() const override { return false; }

 private:
  RunOptions options_;
  // Reference match counts per client, in send order.
  std::vector<std::vector<uint64_t>> expected_;
};

// One client's requests: its share of the tenant's stream, taken in
// bursts so the tenant sees the stream roughly in order.
std::vector<Query> ClientShare(const std::vector<Query>& stream, size_t client,
                               size_t clients, size_t requests) {
  std::vector<Query> out;
  for (size_t i = 0; i + kBurst <= stream.size(); i += kBurst) {
    if ((i / kBurst) % clients != client) continue;
    out.insert(out.end(), stream.begin() + i, stream.begin() + i + kBurst);
  }
  out.resize(std::min(out.size(), requests));
  return out;
}

struct ClientLog {
  std::vector<double> burst_ms;
  std::vector<double> request_us;
  std::vector<oreo::Result<oreo::server::QueryReply>> replies;
};

RepResult ServedRunner::Run(bool traced, bool setup_only) {
  RepResult r;

  oreo::QdTreeGenerator qdtree;
  TracingGenerator traced_generator(&qdtree);
  const oreo::LayoutGenerator* generator =
      traced ? static_cast<const oreo::LayoutGenerator*>(&traced_generator)
             : &qdtree;

  std::atomic<uint64_t> hook_batches{0};
  std::atomic<uint64_t> hook_queries{0};
  std::atomic<uint64_t> hook_max{0};

  // --- set-up: data, streams, backends, server Start ---------------------
  const double setup_start = Now();
  std::vector<oreo::workloads::WorkloadDataset> data;
  std::vector<std::vector<Query>> client_queries;
  std::vector<uint32_t> client_tenant;
  for (const TenantPlan& t : kTenants) {
    data.push_back(oreo::workloads::MakeDataset(t.dataset, t.rows,
                                                options_.seed + t.id));
    const auto& templates = data.back().templates;
    const size_t total = t.clients * t.requests_per_client;
    const size_t per_segment = 200;
    std::vector<Query> stream = SwitchingStream(
        templates, (total + per_segment - 1) / per_segment, per_segment,
        /*schedule_seed=*/2024 + t.id, options_.seed * 31 + t.id);
    for (size_t c = 0; c < t.clients; ++c) {
      client_queries.push_back(
          ClientShare(stream, c, t.clients, t.requests_per_client));
      client_tenant.push_back(t.id);
    }
  }

  oreo::RemoteBackendOptions remote_opts;
  remote_opts.read_latency_us = 200;
  remote_opts.bandwidth_bytes_per_sec = 400ull << 20;
  remote_opts.fault_rate = 0.05;
  remote_opts.fault_seed = options_.seed;
  // The latency is charged to the remote stats, not slept: 200 us sleeps
  // per read on a shared virtual machine woke late by amounts that moved
  // stream_s by 20% between sets of runs. The traced run reports what was
  // charged as remote.charged_s.
  remote_opts.sleep_for_real = false;
  std::shared_ptr<oreo::RemoteBackend> remote =
      oreo::MakeRemoteBackend(oreo::MakeInMemoryBackend(), remote_opts);
  std::shared_ptr<TracingBackend> tracing;
  if (traced) tracing = std::make_shared<TracingBackend>(remote, false);

  oreo::SharedBlockCacheOptions cache_opts;
  cache_opts.capacity_bytes = oreo::SerializedBlockSize(data[0].table) / 2;
  cache_opts.prefetch_threads = 1;
  std::shared_ptr<oreo::SharedBlockCache> cache =
      oreo::MakeSharedBlockCache(cache_opts);

  oreo::server::ServerOptions server_opts;
  server_opts.dispatchers = 2;
  auto srv = std::make_unique<oreo::server::OreoServer>(server_opts);
  for (size_t i = 0; i < data.size(); ++i) {
    const TenantPlan& t = kTenants[i];
    oreo::server::TenantConfig cfg;
    cfg.name = t.dataset;
    cfg.table = &data[i].table;
    cfg.generator = generator;
    cfg.time_column = data[i].time_column;
    cfg.options.seed = options_.seed + t.id;
    cfg.options.num_threads = 1;
    if (t.id == kRemoteTenant) {
      cfg.options.storage_backend =
          traced ? std::static_pointer_cast<oreo::StorageBackend>(tracing)
                 : remote;
      cfg.options.shared_cache = cache;
    } else {
      cfg.options.storage_backend = oreo::MakeInMemoryBackend();
    }
    cfg.weight = t.weight;
    cfg.physical_dir = "served-remote/tenant-" + std::to_string(t.id);
    cfg.store_threads = 1;
    OREO_CHECK(srv->AddTenant(t.id, cfg).ok());
  }
  if (traced) {
    oreo::server::ServerTestHooks hooks;
    hooks.on_batch_start = [&](uint32_t, size_t size) {
      hook_batches.fetch_add(1, std::memory_order_relaxed);
      hook_queries.fetch_add(size, std::memory_order_relaxed);
      uint64_t seen = hook_max.load(std::memory_order_relaxed);
      while (size > seen &&
             !hook_max.compare_exchange_weak(seen, size,
                                             std::memory_order_relaxed)) {
      }
    };
    srv->set_test_hooks(std::move(hooks));
  }
  oreo::Status started = srv->Start();
  r.setup_s.push_back(Now() - setup_start);
  if (!started.ok()) {
    Mismatch(&r, "server Start: " + started.ToString());
    r.failed = r.attempted = 1;
    return r;
  }
  if (setup_only) return r;
  if (expected_.empty()) {
    for (size_t c = 0; c < client_queries.size(); ++c) {
      const size_t t = client_tenant[c] == kRemoteTenant ? 0 : 1;
      expected_.push_back(
          ReferenceCounts(data[t].table, client_queries[c], /*spot_every=*/37));
    }
  }

  // --- the timed stream: every client runs its requests to the end -------
  std::vector<ClientLog> logs(client_queries.size());
  const double stream_start = Now();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < client_queries.size(); ++c) {
      clients.emplace_back([&, c] {
        oreo::server::LoopbackClient client(srv.get());
        const std::vector<Query>& qs = client_queries[c];
        ClientLog& log = logs[c];
        for (size_t i = 0; i < qs.size(); i += kBurst) {
          const double t0 = Now();
          uint64_t ids[kBurst];
          const size_t n = std::min(kBurst, qs.size() - i);
          for (size_t k = 0; k < n; ++k) {
            ids[k] = client.Send(client_tenant[c], qs[i + k]);
          }
          for (size_t k = 0; k < n; ++k) {
            log.replies.push_back(client.Wait(ids[k]));
            log.request_us.push_back((Now() - t0) * 1e6);
          }
          log.burst_ms.push_back((Now() - t0) * 1e3);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  r.stream_s = Now() - stream_start;
  srv->Shutdown();

  // --- checks, outside the timed region ---------------------------------
  for (size_t c = 0; c < logs.size(); ++c) {
    ClientLog& log = logs[c];
    r.batch_ms.insert(r.batch_ms.end(), log.burst_ms.begin(),
                      log.burst_ms.end());
    r.request_us.insert(r.request_us.end(), log.request_us.begin(),
                        log.request_us.end());
    for (size_t i = 0; i < log.replies.size(); ++i) {
      ++r.attempted;
      const auto& reply = log.replies[i];
      std::string what = "client " + std::to_string(c) + " request " +
                         std::to_string(i) + ": ";
      if (!reply.ok()) {
        ++r.failed;
        Mismatch(&r, what + reply.status().ToString());
      } else if (reply->status != oreo::server::ReplyStatus::kOk) {
        ++r.failed;
        Mismatch(&r, what + "non-OK reply " + reply->message);
      } else {
        r.matches.push_back(reply->match_count);
        if (reply->match_count != expected_[c][i]) {
          ++r.failed;
          Mismatch(&r, what + "matches " + std::to_string(reply->match_count) +
                           " != reference " +
                           std::to_string(expected_[c][i]));
        }
      }
    }
  }

  uint64_t bytes = 0;
  uint64_t visible = 0;
  LayerTotals& L = r.layers;
  for (const TenantPlan& t : kTenants) {
    oreo::core::OreoEngine* engine = srv->engine(t.id);
    r.total_cost += engine->total_cost();
    r.switches += engine->num_switches();
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      bytes += engine->store(s)->MaterializedBytes();
      visible += engine->core(s).visible_rows();
      if (!traced) continue;
      const oreo::core::Oreo& core = engine->core(s);
      const auto& mts = core.strategy().dumts().stats();
      L["mts.switches"] += static_cast<double>(mts.num_switches);
      L["mts.phases"] += static_cast<double>(mts.num_phases);
      L["mts.max_state_space"] =
          std::max(L["mts.max_state_space"],
                   static_cast<double>(mts.max_state_space));
      L["layout.cost_evals_computed"] +=
          static_cast<double>(core.manager().cost_evals_computed());
      L["layout.cost_evals_reused"] +=
          static_cast<double>(core.manager().cost_evals_reused());
    }
  }
  r.bytes_per_row =
      visible > 0 ? static_cast<double>(bytes) / static_cast<double>(visible)
                  : 0.0;

  if (traced) {
    const oreo::server::ServerStats stats = srv->stats();
    const double batches = static_cast<double>(hook_batches.load());
    L["server.batches"] = batches;
    L["server.mean_batch"] =
        batches > 0 ? static_cast<double>(hook_queries.load()) / batches : 0.0;
    L["server.max_batch"] = static_cast<double>(hook_max.load());
    L["server.rejected"] = static_cast<double>(
        stats.rejected_backpressure + stats.rejected_shutdown +
        stats.rejected_unknown_tenant + stats.rejected_malformed);
    const oreo::SharedCacheStats cs = cache->stats();
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    L["cache.hit_rate"] =
        lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
    L["cache.evictions"] = static_cast<double>(cs.evictions);
    L["cache.prefetch_fetches"] = static_cast<double>(cs.prefetch_fetches);
    const oreo::RemoteBackendStats rs = remote->remote_stats();
    L["remote.retries"] = static_cast<double>(rs.retries);
    L["remote.faults"] = static_cast<double>(rs.injected_faults);
    L["remote.charged_s"] =
        static_cast<double>(rs.latency_sleep_us + rs.backoff_sleep_us) / 1e6;
    tracing->Report(&L);
    traced_generator.Report(&L);
  }

  srv.reset();  // engines and stores go before the data they borrow
  return r;
}

}  // namespace

std::unique_ptr<WorkloadRunner> MakeServedRemote(const RunOptions& options) {
  return std::make_unique<ServedRunner>(options);
}

}  // namespace perfbench
