#include "serve/worker.h"

#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>

#include "net/channel.h"
#include "net/messages.h"
#include "net/socket.h"
#include "serve/model_registry.h"
#include "serve/session_manager.h"
#include "utils/logging.h"
#include "utils/metrics.h"

namespace imdiff {
namespace serve {
namespace {

// One dispatch pass needs the same handles every frame; resolve once.
struct WorkerMetrics {
  Counter* submit_retries;
  Counter* early_submits;
  Counter* protocol_errors;
  Counter* blocks_sent;

  WorkerMetrics()
      : submit_retries(
            MetricsRegistry::Global().GetCounter("net.submit_retries")),
        early_submits(
            MetricsRegistry::Global().GetCounter("net.early_submits")),
        protocol_errors(
            MetricsRegistry::Global().GetCounter("net.protocol_errors")),
        blocks_sent(
            MetricsRegistry::Global().GetCounter("net.blocks_sent")) {}
};

}  // namespace

int RunShardWorker(const WorkerOptions& options) {
  std::string error;
  net::UnixListener listener;
  if (!listener.Create(options.socket_path, &error)) {
    IMDIFF_LOG(Error) << "worker shard " << options.shard_id << ": " << error;
    return kWorkerExitBindFailed;
  }
  net::ServerChannel channel(std::move(listener));
  net::HelloMsg hello;
  hello.shard_id = options.shard_id;
  channel.set_hello(net::Encode(hello));

  WorkerMetrics metrics;
  Counter* degraded = MetricsRegistry::Global().GetCounter(
      "serve.degraded_blocks");
  Counter* promotions = MetricsRegistry::Global().GetCounter(
      "refresh.promotions");
  Counter* shadow_blocks = MetricsRegistry::Global().GetCounter(
      "serve.shadow_blocks");

  ModelRegistry registry;
  std::unique_ptr<StreamServer> server;
  // kCrash abandons state: the flag stops batcher threads mid-flight from
  // pushing more scored blocks while the StreamServer destructor drains.
  std::atomic<bool> suppress_alerts{false};
  std::atomic<int64_t> alert_blocks{0};

  auto on_alert = [&](const StreamServer::ScoredBlock& block) {
    if (suppress_alerts.load(std::memory_order_relaxed)) return;
    // Shadow dual-scores (continuous refresh, DESIGN.md §18) stay inside the
    // worker: they exist for this shard's drift statistics, and forwarding
    // them would corrupt the router's positional score assembly (a shadow
    // block covers the same positions as its live twin with different
    // scores — a guaranteed conflict).
    if (block.shadow) return;
    net::ScoredBlockMsg msg;
    msg.tenant = block.tenant;
    msg.block_index = block.block_index;
    msg.start = block.alert.start;
    msg.degrade_level = block.degrade_level;
    msg.latency_seconds = block.latency_seconds;
    msg.scores = block.alert.scores;
    channel.Send(net::Encode(msg));
    metrics.blocks_sent->Increment();
    alert_blocks.fetch_add(1, std::memory_order_relaxed);
  };

  net::Frame frame;
  while (channel.Next(&frame) == net::ServerChannel::Status::kFrame) {
    switch (static_cast<net::MsgType>(frame.type)) {
      case net::MsgType::kPublish: {
        net::PublishMsg m;
        if (!net::Decode(frame, &m)) {
          metrics.protocol_errors->Increment();
          break;
        }
        ImDiffusionConfig config = options.config;
        config.seed = m.config_seed;
        MinMaxStats stats;
        stats.min = m.stats_min;
        stats.max = m.stats_max;
        net::PublishResultMsg result;
        result.version = registry.PublishFromFile(m.name, config,
                                                  m.checkpoint_path,
                                                  m.num_features, stats);
        if (result.version > 0) {
          std::shared_ptr<const ModelEntry> model = registry.Acquire(m.name);
          if (server == nullptr) {
            // The refresh loop targets whatever name the router published:
            // the registry handle and model name can only be bound here.
            StreamServer::Options serve = options.serve;
            if (serve.refresh.enabled) {
              serve.refresh.registry = &registry;
              serve.refresh.model_name = m.name;
            }
            server = std::make_unique<StreamServer>(model, serve, on_alert);
          } else {
            server->SwapModel(model);
          }
        }
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kSubmit: {
        net::SubmitMsg m;
        if (!net::Decode(frame, &m)) {
          metrics.protocol_errors->Increment();
          break;
        }
        if (server == nullptr) {
          // Protocol order is publish-then-submit; a sample with no model is
          // a router bug, surfaced as a counter rather than a crash.
          metrics.early_submits->Increment();
          break;
        }
        // Retry until the shard queue accepts: the worker is lossless by
        // construction — backpressure slows the dispatch loop (and thereby
        // the router's socket) instead of shedding. serve.requests_dropped
        // still counts the rejected attempts; net.submit_retries is the
        // worker-side view of the same events.
        while (!server->Submit(m.tenant, m.sample, m.observed)) {
          metrics.submit_retries->Increment();
          std::this_thread::yield();
        }
        break;
      }
      case net::MsgType::kDrain: {
        net::DrainMsg m;
        if (!net::Decode(frame, &m)) {
          metrics.protocol_errors->Increment();
          break;
        }
        if (server != nullptr) server->Drain();
        net::DrainResultMsg result;
        result.token = m.token;
        result.accepted = server != nullptr ? server->accepted() : 0;
        result.shed = server != nullptr ? server->dropped() : 0;
        result.alerts = alert_blocks.load(std::memory_order_relaxed);
        result.degraded_blocks = degraded->value();
        result.promotions = promotions->value();
        result.shadow_blocks = shadow_blocks->value();
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kExportState: {
        net::ExportStateMsg m;
        if (!net::Decode(frame, &m)) {
          metrics.protocol_errors->Increment();
          break;
        }
        net::ExportResultMsg result;
        SessionSnapshot snapshot;
        if (server != nullptr &&
            server->sessions().ExportSession(m.tenant, &snapshot)) {
          result.found = 1;
          result.session.tenant = m.tenant;
          result.session.state = SerializeSession(snapshot);
        }
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kImportState: {
        net::ImportStateMsg m;
        if (!net::Decode(frame, &m)) {
          metrics.protocol_errors->Increment();
          break;
        }
        net::ImportResultMsg result;
        SessionSnapshot snapshot;
        if (server != nullptr &&
            DeserializeSession(m.session.state, &snapshot)) {
          server->sessions().ImportSession(m.session.tenant, snapshot);
          result.ok = 1;
        }
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kSnapshot: {
        net::SnapshotMsg m;
        if (!net::Decode(frame, &m)) {
          metrics.protocol_errors->Increment();
          break;
        }
        net::SnapshotResultMsg result;
        result.token = m.token;
        if (server != nullptr) {
          // The router snapshots only at drain barriers, so no session has a
          // block in flight; one that does (a protocol violation) is skipped
          // and the router keeps its previous copy of that tenant.
          for (const std::string& tenant : server->sessions().Tenants()) {
            SessionSnapshot snapshot;
            if (!server->sessions().SnapshotSession(tenant, &snapshot)) {
              metrics.protocol_errors->Increment();
              continue;
            }
            net::SessionBlob blob;
            blob.tenant = tenant;
            blob.state = SerializeSession(snapshot);
            result.sessions.push_back(std::move(blob));
          }
        }
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kHealth: {
        net::HealthResultMsg result;
        result.pid = static_cast<int64_t>(::getpid());
        if (server != nullptr) {
          result.accepted = server->accepted();
          result.shed = server->dropped();
          result.resident_sessions = server->sessions().resident_sessions();
          result.stashed_sessions = server->sessions().stashed_sessions();
        }
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kMetrics: {
        net::MetricsResultMsg result;
        result.json = MetricsToJson();
        channel.Send(net::Encode(result));
        break;
      }
      case net::MsgType::kShutdown: {
        if (server != nullptr) server->Shutdown();
        channel.Close();
        return kWorkerExitOk;
      }
      case net::MsgType::kCrash: {
        // Chaos kill: stop emitting, drop the connection, abandon every
        // session. The StreamServer destructor still drains its queues (the
        // process would just exit in a real kill -9), but with alerts
        // suppressed nothing more reaches the router — exactly the lost-
        // in-flight-tail the router's journal replay has to repair.
        suppress_alerts.store(true, std::memory_order_relaxed);
        channel.Close();
        return kWorkerExitCrashed;
      }
      default:
        metrics.protocol_errors->Increment();
        break;
    }
  }
  // Next() returned kDown without a shutdown message: the channel was closed
  // under us (owner teardown). Treat as graceful.
  if (server != nullptr) server->Shutdown();
  return kWorkerExitOk;
}

}  // namespace serve
}  // namespace imdiff
