// Shard worker: one process (or in-test thread) serving a StreamServer over
// a unix-domain socket (DESIGN.md §16).
//
// The worker is the passive side of the router <-> worker protocol
// (net/messages.h): it binds its socket, announces its shard id with a hello
// frame on every (re)connection, then runs a single-threaded dispatch loop
// over incoming frames. Samples are pushed into the StreamServer with a
// retry-until-accepted loop — the worker sheds nothing structurally; ingest
// backpressure surfaces as net.submit_retries, not as lost samples — and
// scored blocks flow back as fire-and-forget kScoredBlock frames from the
// batcher threads (ServerChannel::Send is thread-safe and queues across
// router reconnects).
//
// Determinism: the dispatch loop preserves the router's per-tenant FIFO
// order, and scoring itself is seeded per (tenant, stream position), so a
// worker's score stream is bitwise identical to the same tenants served by a
// single process (see serve/session_manager.h).

#ifndef IMDIFF_SERVE_WORKER_H_
#define IMDIFF_SERVE_WORKER_H_

#include <cstdint>
#include <string>

#include "core/imdiffusion.h"
#include "serve/server.h"

namespace imdiff {
namespace serve {

struct WorkerOptions {
  std::string socket_path;
  int64_t shard_id = 0;
  // Architecture template for kPublish: the published checkpoint is loaded
  // into a detector built from this config with the message's seed patched
  // in (the config must match the checkpoint's save-time shape).
  ImDiffusionConfig config;
  StreamServer::Options serve;
};

// Worker exit codes, so a spawning harness can tell a graceful kShutdown
// from a chaos kCrash from a startup failure.
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitBindFailed = 1;
inline constexpr int kWorkerExitCrashed = 2;
// Graceful shutdown, but a graph capture diverged from the layer stack
// (graph.validation_failures > 0) during the worker's life.
inline constexpr int kWorkerExitGraphDiverged = 3;

// Binds `socket_path` and serves the dispatch loop until a kShutdown
// (graceful: drain, then exit 0) or kCrash (abandon all state immediately,
// exit 2 — in-flight blocks are deliberately lost; the router recovers them
// from its journal). Returns a kWorkerExit* code; runs equally as a process
// main or an in-test thread body.
int RunShardWorker(const WorkerOptions& options);

}  // namespace serve
}  // namespace imdiff

#endif  // IMDIFF_SERVE_WORKER_H_
