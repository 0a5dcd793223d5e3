// Forward-only fused execution graph for the frozen ImTransformer denoiser.
//
// The autograd layer stack (src/nn) is built for training: every Forward
// allocates tape nodes, arena tensors for each intermediate, and walks
// shape/broadcast logic per call. Inference under the serving path replays
// the exact same op sequence thousands of times with fixed shapes, so this
// module captures that sequence ONCE per (model version, batch shape, degrade
// level) and lowers it onto the flat kernels in src/tensor:
//
//  - Capture: a GraphContext walks the frozen module tree (via the read-only
//    accessors on ImTransformer) and linearizes one reverse-diffusion chunk
//    into a small op list. Linear weights are prepacked into GEMM panels
//    (gemm::PackBFull) at capture time; LayerNorm -> MatMul -> GELU chains in
//    the encoder feed-forward are fused into single row passes.
//  - Static arena plan: every intermediate gets a [first-def, last-use]
//    interval over the op list, and a first-fit linear-scan allocator assigns
//    fixed offsets into ONE arena block acquired at capture. Steady-state
//    scoring therefore performs zero arena free-list requests and zero shape
//    logic — the op interpreter only moves floats.
//  - Numerics: lowering reuses the exact kernels (or replicates the exact
//    scalar expressions) of the legacy stack, in both the SIMD and the
//    forced-scalar build modes, so scores stay bitwise identical to the
//    autograd path for a fixed (content, seed, model, degrade level) — the
//    DESIGN.md §12 contract. The executor is the only inference path of
//    ImDiffusionDetector::ScoreWindowBatch; tests/graph_test.cc holds it to
//    ScoreWindowBatchOnStack, the layer-stack reference, bit for bit.
//
// Captured graphs hold raw weight pointers, so a GraphCache must be
// invalidated whenever the owning detector's model is replaced (Fit /
// LoadModel); the registry hot-swap path publishes a fresh detector and thus
// a fresh cache.
//
// Metrics: graph.captures and graph.executions counters, the
// graph.plan_bytes gauge, and one graph.op_seconds.<op> histogram per op kind
// of the program plus `glue` (the chain arithmetic between forwards); each
// chunk records its per-kind totals, which sum to the chunk's time.

#ifndef IMDIFF_GRAPH_GRAPH_H_
#define IMDIFF_GRAPH_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/im_transformer.h"
#include "diffusion/schedule.h"
#include "tensor/tensor.h"

namespace imdiff {
namespace graph {

// Everything a capture needs about the frozen denoiser and the chunk shape.
// Built by ImDiffusionDetector (which owns the model) — the raw pointers must
// outlive the captured context.
struct DenoiserSpec {
  const ImTransformer* model = nullptr;
  const NoiseSchedule* schedule = nullptr;
  std::vector<Tensor> policy_masks;  // [K, L] each, 1 = observed
  std::vector<int> vote_ts;          // forward-index vote steps, descending
  int chain_begin = 0;               // first t of the (possibly truncated) chain
  int64_t bsz = 0;                   // windows per chunk
  bool conditional = false;
  bool stochastic_sampling = false;
  bool score_on_x0 = true;
};

// One captured, lowered, and arena-planned reverse-diffusion chunk executor.
// Not thread-safe: a context scores one chunk at a time, serially on the
// calling thread; chunks run in parallel only across contexts (GraphCache
// pools idle contexts so concurrent chunks each hold their own).
class GraphContext {
 public:
  explicit GraphContext(const DenoiserSpec& spec);
  ~GraphContext();
  GraphContext(const GraphContext&) = delete;
  GraphContext& operator=(const GraphContext&) = delete;

  int64_t bsz() const;

  // Scores one chunk: `windows` points at bsz() row-major [K, L] windows,
  // `seeds` at bsz() per-window seeds. Replicates the legacy chunk body of
  // ScoreWindowBatch bit-for-bit; results land in step_diff().
  void ScoreChunk(const float* windows, const uint64_t* seeds);

  // Accumulated signed residuals per vote step ([bsz, K, L] each), valid
  // until the next ScoreChunk call.
  const std::vector<Tensor>& step_diff() const;

  // Size of the static arena plan (the single block backing all
  // intermediates), for benchmarks and the graph.plan_bytes gauge.
  size_t plan_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Pool of captured contexts for one detector, keyed by (chunk batch size,
// degrade level). Thread-safe. Invalidation = dropping the whole
// cache (the detector swaps in a fresh GraphCache when its model changes).
class GraphCache {
 public:
  // Returns an idle context for the key, or null when none is idle.
  std::unique_ptr<GraphContext> Acquire(int64_t bsz, int degrade_level);
  // Returns a context to the pool.
  void Release(int64_t bsz, int degrade_level,
               std::unique_ptr<GraphContext> ctx);

 private:
  std::mutex mu_;
  std::map<std::pair<int64_t, int>, std::vector<std::unique_ptr<GraphContext>>>
      pool_;
};

}  // namespace graph
}  // namespace imdiff

#endif  // IMDIFF_GRAPH_GRAPH_H_
