// google-benchmark micro-benchmarks for the substrate: tensor kernels,
// attention, diffusion steps, and end-to-end ImTransformer inference.
//
// Snapshot modes (both skip the benchmark suite):
//   bench_micro --metrics-out <path>   end-to-end workload (ImDiffusion train
//       + inference, online block scoring, parallel kernels) exercising every
//       instrumented phase, then dumps the metrics registry as JSON.
//   bench_micro --kernels-out <path>   kernel-layer comparison — scalar vs
//       SIMD vs arena-off rows with seconds/op, GFLOP/s, and allocations/op —
//       written as BENCH_kernels.json-style machine-readable JSON.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "baselines/lstm_ad.h"
#include "core/im_transformer.h"
#include "core/imdiffusion.h"
#include "core/masking.h"
#include "core/online_detector.h"
#include "data/synthetic.h"
#include "diffusion/ddpm.h"
#include "nn/attention.h"
#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "utils/metrics.h"
#include "utils/rng.h"
#include "utils/thread_pool.h"

namespace imdiff {
namespace {

// Transformer-shaped GEMM: (batch * seq) x d_model x d_model, the shape the
// attention projections and feed-forward layers feed MatMul.
constexpr int64_t kTfM = 800, kTfK = 64, kTfN = 64;

// Variant encoding shared by the kernel rows: how the kernel layer and the
// allocator are configured for one measurement.
enum KernelVariant { kScalar = 0, kSimd = 1, kSimdArenaOff = 2 };

void ApplyVariant(int variant) {
  simd::SetForceScalar(variant == kScalar);
  Arena::Global().set_pooling_enabled(variant != kSimdArenaOff);
}

void ResetVariant() {
  simd::SetForceScalar(false);
  Arena::Global().set_pooling_enabled(true);
}

const char* VariantName(int variant) {
  switch (variant) {
    case kScalar:
      return "scalar";
    case kSimd:
      return "simd";
    default:
      return "simd_arena_off";
  }
}

// ---- Kernel-layer comparison rows -------------------------------------------
//
// Arg(0) is the KernelVariant. Compare the scalar and simd rows for the
// vectorization speedup and the simd vs simd_arena_off rows for the
// allocations/op drop the arena free lists buy.

void BM_KernelMatMul(benchmark::State& state) {
  ApplyVariant(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({kTfM, kTfK}, rng);
  Tensor b = Tensor::Randn({kTfK, kTfN}, rng);
  MatMul(a, b);  // warm the free lists before counting
  const Arena::Stats before = Arena::Global().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  const Arena::Stats after = Arena::Global().stats();
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * kTfM * kTfK * kTfN *
          1e-9,
      benchmark::Counter::kIsRate);
  state.counters["allocs/op"] =
      static_cast<double>(after.misses - before.misses) /
      static_cast<double>(state.iterations());
  ResetVariant();
}
BENCHMARK(BM_KernelMatMul)->Arg(kScalar)->Arg(kSimd)->Arg(kSimdArenaOff);

void BM_KernelSoftmax(benchmark::State& state) {
  ApplyVariant(static_cast<int>(state.range(0)));
  Rng rng(3);
  Tensor t = Tensor::Randn({512, 100}, rng);
  SoftmaxLastDim(t);
  const Arena::Stats before = Arena::Global().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxLastDim(t));
  }
  const Arena::Stats after = Arena::Global().stats();
  state.counters["allocs/op"] =
      static_cast<double>(after.misses - before.misses) /
      static_cast<double>(state.iterations());
  ResetVariant();
}
BENCHMARK(BM_KernelSoftmax)->Arg(kScalar)->Arg(kSimd)->Arg(kSimdArenaOff);

void BM_KernelGelu(benchmark::State& state) {
  ApplyVariant(static_cast<int>(state.range(0)));
  Rng rng(5);
  Tensor t = Tensor::Randn({80000}, rng);
  GeluForward(t);
  const Arena::Stats before = Arena::Global().stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeluForward(t));
  }
  const Arena::Stats after = Arena::Global().stats();
  state.counters["allocs/op"] =
      static_cast<double>(after.misses - before.misses) /
      static_cast<double>(state.iterations());
  ResetVariant();
}
BENCHMARK(BM_KernelGelu)->Arg(kScalar)->Arg(kSimd)->Arg(kSimdArenaOff);

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(2);
  Tensor a = Tensor::Randn({64, 100, 24}, rng);
  Tensor b = Tensor::Randn({64, 24, 100}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchedMatMul(a, b));
  }
}
BENCHMARK(BM_BatchedMatMul);

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(3);
  Tensor t = Tensor::Randn({512, 100}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxLastDim(t));
  }
}
BENCHMARK(BM_SoftmaxLastDim);

void BM_Conv1d(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::Randn({8, 16, 100}, rng);
  Tensor w = Tensor::Randn({16, 16, 5}, rng);
  Tensor bias = Tensor::Randn({16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv1d(x, w, bias, 2));
  }
}
BENCHMARK(BM_Conv1d);

void BM_AttentionForward(benchmark::State& state) {
  Rng rng(5);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  Tensor x = Tensor::Randn({8, 100, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(nn::Var(x)).value());
  }
}
BENCHMARK(BM_AttentionForward);

void BM_TransformerLayerTrainStep(benchmark::State& state) {
  Rng rng(6);
  nn::TransformerEncoderLayer layer(32, 4, 64, rng);
  Tensor x = Tensor::Randn({8, 100, 32}, rng);
  Tensor target = Tensor::Randn({8, 100, 32}, rng);
  for (auto _ : state) {
    nn::Var out = layer.Forward(nn::Var(x));
    nn::Var loss = nn::MseLossV(out, target);
    nn::Backward(loss);
    for (nn::Var& p : layer.Parameters()) p.ClearGrad();
  }
}
BENCHMARK(BM_TransformerLayerTrainStep);

void BM_DiffusionQSample(benchmark::State& state) {
  ScheduleConfig config;
  config.num_steps = 50;
  GaussianDiffusion diffusion(config);
  Rng rng(7);
  Tensor x0 = Tensor::Randn({16, 8, 100}, rng);
  int t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(diffusion.QSample(x0, t % 50, rng, nullptr));
    ++t;
  }
}
BENCHMARK(BM_DiffusionQSample);

void BM_ImTransformerForward(benchmark::State& state) {
  ImTransformerConfig config;
  config.num_features = 8;
  config.window = 100;
  config.hidden = 24;
  config.num_blocks = 2;
  config.num_heads = 1;
  config.ff_dim = 48;
  config.step_embed_dim = 32;
  config.side_dim = 16;
  config.num_diffusion_steps = 16;
  Rng rng(8);
  ImTransformer model(config, rng);
  Tensor x = Tensor::Randn({8, 8, 100}, rng);
  Tensor ref = Tensor::Randn({8, 8, 100}, rng);
  Tensor mask = MakeGratingMask(8, 100, 5, 0);
  Tensor mask_b({8, 8, 100});
  for (int64_t b = 0; b < 8; ++b) {
    std::copy_n(mask.data(), mask.numel(),
                mask_b.mutable_data() + b * mask.numel());
  }
  std::vector<int64_t> policies(8, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x, ref, mask_b, 5, policies).value());
  }
}
BENCHMARK(BM_ImTransformerForward);

void BM_GratingMask(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeGratingMask(16, 100, 5, 0));
  }
}
BENCHMARK(BM_GratingMask);

// End-to-end ImDiffusion inference (reverse-diffusion imputation over all test
// windows) with the chunk-level parallel loop on N threads. Fit runs once,
// outside timing.
void BM_ImDiffusionInference(benchmark::State& state) {
  SetComputeThreads(static_cast<size_t>(state.range(0)));
  ImDiffusionConfig config = FastImDiffusionConfig();
  config.epochs = 2;  // the benchmark times Run, not Fit
  config.seed = 17;
  SyntheticConfig signal;
  signal.length = 1200;
  signal.dims = 5;
  Rng rng(9);
  Tensor series = GenerateCleanSeries(signal, rng);
  Tensor train({600, 5});
  Tensor test({600, 5});
  std::copy_n(series.data(), 600 * 5, train.mutable_data());
  std::copy_n(series.data() + 600 * 5, 600 * 5, test.mutable_data());
  ImDiffusionDetector detector(config);
  detector.Fit(train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Run(test));
  }
  state.SetItemsProcessed(state.iterations() * test.dim(0));
  SetComputeThreads(1);
}
BENCHMARK(BM_ImDiffusionInference)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Kernel comparison snapshot (--kernels-out) -----------------------------

struct KernelRow {
  std::string kernel;
  std::string variant;
  double seconds_per_op = 0.0;
  double gflops = 0.0;  // 0 when flops aren't meaningful for the row
  // Bandwidth for memory-bound rows (bytes touched / seconds): the comparable
  // throughput for kernels whose flops are not the limiting resource, where
  // gflops reads 0.000.
  double gbps = 0.0;
  double allocs_per_op = 0.0;
};

// Runs fn repeatedly until ~100ms elapse (3 repetitions, best wall time per
// op) and samples arena misses across the timed runs. `flops` drives the
// gflops column (compute-bound rows); `bytes` drives GB/s (bandwidth-bound
// rows); pass 0 for whichever is not meaningful.
template <typename Fn>
KernelRow MeasureKernel(const std::string& kernel, int variant, double flops,
                        double bytes, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  ApplyVariant(variant);
  fn();  // warmup: populate free lists, fault pages
  double best = 1e300;
  int64_t total_iters = 0;
  const Arena::Stats before = Arena::Global().stats();
  for (int rep = 0; rep < 3; ++rep) {
    int64_t iters = 1;
    for (;;) {
      const auto t0 = Clock::now();
      for (int64_t i = 0; i < iters; ++i) fn();
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (elapsed >= 0.1 || iters >= (int64_t{1} << 30)) {
        best = std::min(best, elapsed / static_cast<double>(iters));
        total_iters += iters;
        break;
      }
      iters *= 4;
    }
  }
  const Arena::Stats after = Arena::Global().stats();
  ResetVariant();
  KernelRow row;
  row.kernel = kernel;
  row.variant = VariantName(variant);
  row.seconds_per_op = best;
  row.gflops = flops > 0.0 ? flops / best * 1e-9 : 0.0;
  row.gbps = bytes > 0.0 ? bytes / best * 1e-9 : 0.0;
  row.allocs_per_op = static_cast<double>(after.misses - before.misses) /
                      static_cast<double>(total_iters);
  return row;
}

void AppendRowJson(std::string& out, const KernelRow& row, bool last) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                "\"seconds_per_op\": %.6e, \"gflops\": %.3f, "
                "\"gbps\": %.3f, \"allocs_per_op\": %.3f}%s\n",
                row.kernel.c_str(), row.variant.c_str(), row.seconds_per_op,
                row.gflops, row.gbps, row.allocs_per_op, last ? "" : ",");
  out += buf;
}

// Measures the kernel layer (scalar vs SIMD vs arena-off) plus one
// reverse-diffusion inference row per arena mode, and writes machine-readable
// JSON. The matmul row uses the transformer projection shape; its
// scalar->simd speedup is the headline number (expected >= 2x on AVX2).
int RunKernelBench(const std::string& path) {
  std::vector<KernelRow> rows;

  {
    Rng rng(1);
    Tensor a = Tensor::Randn({kTfM, kTfK}, rng);
    Tensor b = Tensor::Randn({kTfK, kTfN}, rng);
    const double flops = 2.0 * kTfM * kTfK * kTfN;
    char name[64];
    std::snprintf(name, sizeof(name), "matmul_%ldx%ldx%ld",
                  static_cast<long>(kTfM), static_cast<long>(kTfK),
                  static_cast<long>(kTfN));
    for (int v : {kScalar, kSimd, kSimdArenaOff}) {
      rows.push_back(MeasureKernel(name, v, flops, 0.0,
                                   [&] { benchmark::DoNotOptimize(MatMul(a, b)); }));
    }
  }

  // The prepacked-panel GEMM (gemm::GemmRowsPrepacked) with weights packed
  // once, exactly as a graph capture does, at the same transformer
  // projection shape.
#if defined(IMDIFF_SIMD_ANY)
  {
    Rng rng(11);
    Tensor a = Tensor::Randn({kTfM, kTfK}, rng);
    Tensor b = Tensor::Randn({kTfK, kTfN}, rng);
    Tensor c = Tensor::Uninitialized({kTfM, kTfN});
    const double flops = 2.0 * kTfM * kTfK * kTfN;
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), "%ldx%ldx%ld",
                  static_cast<long>(kTfM), static_cast<long>(kTfK),
                  static_cast<long>(kTfN));
    {
      std::vector<float> packed(gemm::PackedBFloats(kTfK, kTfN));
      gemm::PackBFull(b.data(), kTfK, kTfN, false, packed.data());
      rows.push_back(MeasureKernel(std::string("gemm_fp32_prepacked_") + suffix,
                                   kSimd, flops, 0.0, [&] {
        gemm::GemmRowsPrepacked(a.data(), packed.data(), c.mutable_data(),
                                kTfM, kTfK, kTfN, 0, kTfM);
        benchmark::DoNotOptimize(c.mutable_data());
      }));
    }
    // The model's own GEMM shapes: 9600 rows = a 16-window chunk of 6
    // channels x 100 steps, hidden D = 24 (Q/K/V/output projections) and
    // 2D = 48 (FFN fc1, gate projection). Neither width fills a 32-column
    // AVX-512 panel, so every tile ends in a masked partial store. The
    // epilogue row adds the bias and accumulates into c in registers, as the
    // graph's attention output projection does with its residual.
    for (const int64_t mn : {int64_t{24}, int64_t{48}}) {
      constexpr int64_t kModelM = 9600, kModelK = 24;
      Tensor ma = Tensor::Randn({kModelM, kModelK}, rng);
      Tensor mb = Tensor::Randn({kModelK, mn}, rng);
      Tensor mbias = Tensor::Randn({mn}, rng);
      Tensor mc = Tensor::Zeros({kModelM, mn});
      std::vector<float> packed(gemm::PackedBFloats(kModelK, mn));
      gemm::PackBFull(mb.data(), kModelK, mn, false, packed.data());
      const double mflops = 2.0 * kModelM * kModelK * mn;
      const std::string name = "gemm_fp32_prepacked_" +
                               std::to_string(kModelM) + "x" +
                               std::to_string(kModelK) + "x" +
                               std::to_string(mn);
      rows.push_back(MeasureKernel(name, kSimd, mflops, 0.0, [&] {
        gemm::GemmRowsPrepacked(ma.data(), packed.data(), mc.mutable_data(),
                                kModelM, kModelK, mn, 0, kModelM);
        benchmark::DoNotOptimize(mc.mutable_data());
      }));
      gemm::Epilogue ep;
      ep.bias = mbias.data();
      ep.accumulate = true;
      rows.push_back(MeasureKernel(name, kSimd, mflops, 0.0, [&] {
        gemm::GemmRowsPrepacked(ma.data(), packed.data(), mc.mutable_data(),
                                kModelM, kModelK, mn, 0, kModelM, ep);
        benchmark::DoNotOptimize(mc.mutable_data());
      }));
      rows.back().variant = "simd_bias_residual";
    }
  }
#endif

  {
    Rng rng(3);
    Tensor t = Tensor::Randn({512, 100}, rng);
    const double bytes = 2.0 * 512 * 100 * 4;  // read + write
    for (int v : {kScalar, kSimd}) {
      rows.push_back(MeasureKernel("softmax_512x100", v, 0.0, bytes, [&] {
        benchmark::DoNotOptimize(SoftmaxLastDim(t));
      }));
    }
  }
  {
    Rng rng(5);
    Tensor t = Tensor::Randn({80000}, rng);
    const double bytes = 2.0 * 80000 * 4;  // read + write
    for (int v : {kScalar, kSimd}) {
      rows.push_back(MeasureKernel("gelu_80000", v, 0.0, bytes, [&] {
        benchmark::DoNotOptimize(GeluForward(t));
      }));
    }
  }
  {
    Rng rng(6);
    Tensor x = Tensor::Randn({4, 128}, rng);
    Tensor gamma = Tensor::Randn({128}, rng);
    Tensor beta = Tensor::Randn({128}, rng);
    // x read, y and the normalized intermediate written, gamma/beta/inv-std
    // small against those.
    const double bytes = 3.0 * 4 * 128 * 4;
    for (int v : {kScalar, kSimd}) {
      rows.push_back(MeasureKernel("layernorm_4x128", v, 0.0, bytes, [&] {
        Tensor y, h, is;
        LayerNormForward(x, gamma, beta, 1e-5f, &y, &h, &is);
        benchmark::DoNotOptimize(y);
      }));
    }
  }

  // Reverse-diffusion inference: the allocations/op row the arena targets.
  // One op = scoring the full test split (every window x every denoising
  // step); compare allocs/op between the arena-off and arena-on variants.
  {
    ImDiffusionConfig config = FastImDiffusionConfig();
    config.epochs = 2;
    config.seed = 17;
    SyntheticConfig signal;
    signal.length = 900;
    signal.dims = 4;
    Rng rng(9);
    Tensor series = GenerateCleanSeries(signal, rng);
    Tensor train = Tensor::Uninitialized({600, 4});
    Tensor test = Tensor::Uninitialized({300, 4});
    std::copy_n(series.data(), 600 * 4, train.mutable_data());
    std::copy_n(series.data() + 600 * 4, 300 * 4, test.mutable_data());
    ImDiffusionDetector detector(config);
    detector.Fit(train);
    for (int v : {kSimdArenaOff, kSimd}) {
      ApplyVariant(v);
      detector.Run(test);  // warmup under this arena mode
      const Arena::Stats before = Arena::Global().stats();
      const auto t0 = std::chrono::steady_clock::now();
      detector.Run(test);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const Arena::Stats after = Arena::Global().stats();
      ResetVariant();
      KernelRow row;
      row.kernel = "reverse_diffusion_run_300x4";
      row.variant = VariantName(v);
      row.seconds_per_op = elapsed;
      row.allocs_per_op = static_cast<double>(after.misses - before.misses);
      rows.push_back(row);
    }

    // Per-block steady-state scoring: the captured graph executor (src/graph,
    // ScoreWindowBatch) vs the autograd layer stack (ScoreWindowBatchOnStack).
    // One op = one seeded scoring call over a chunk of `infer_batch` windows.
    // Unlike the other rows, allocs_per_op here counts *all* arena free-list
    // requests (hits + misses): a warm captured graph runs entirely inside
    // its static plan, so its row must read exactly zero.
    {
      const ImDiffusionDetector::WindowPlan plan = detector.PlanWindows(series);
      const Tensor& all = plan.windows;
      const int64_t nb = std::min<int64_t>(config.infer_batch, all.dim(0));
      Tensor chunk =
          Tensor::Uninitialized({nb, all.dim(1), all.dim(2)});
      std::copy_n(all.data(), nb * all.dim(1) * all.dim(2),
                  chunk.mutable_data());
      std::vector<uint64_t> seeds(static_cast<size_t>(nb));
      for (int64_t i = 0; i < nb; ++i) {
        seeds[static_cast<size_t>(i)] = MixSeed(42, static_cast<uint64_t>(i));
      }
      char name[64];
      std::snprintf(name, sizeof(name), "block_score_%ldw",
                    static_cast<long>(nb));
      const struct {
        const char* variant;
        std::function<std::vector<ImDiffusionDetector::WindowScore>()> score;
      } modes[] = {
          {"stack",
           [&] { return detector.ScoreWindowBatchOnStack(chunk, seeds, 0); }},
          {"graph", [&] { return detector.ScoreWindowBatch(chunk, seeds, 0); }},
      };
      for (const auto& mode : modes) {
        ApplyVariant(kSimd);
        // Warmup: the first graph call captures; the second is the steady
        // state being measured.
        mode.score();
        mode.score();
        const Arena::Stats before = Arena::Global().stats();
        double best = 1e300;
        int64_t total_iters = 0;
        for (int rep = 0; rep < 3; ++rep) {
          int64_t iters = 1;
          for (;;) {
            const auto t0 = std::chrono::steady_clock::now();
            for (int64_t i = 0; i < iters; ++i) {
              benchmark::DoNotOptimize(mode.score());
            }
            const double elapsed = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count();
            if (elapsed >= 0.1 || iters >= (int64_t{1} << 20)) {
              best = std::min(best, elapsed / static_cast<double>(iters));
              total_iters += iters;
              break;
            }
            iters *= 4;
          }
        }
        const Arena::Stats after = Arena::Global().stats();
        ResetVariant();
        KernelRow row;
        row.kernel = name;
        row.variant = mode.variant;
        row.seconds_per_op = best;
        row.allocs_per_op =
            static_cast<double>((after.hits - before.hits) +
                                (after.misses - before.misses)) /
            static_cast<double>(total_iters);
        rows.push_back(row);
      }
    }
  }

  double scalar_s = 0.0, simd_s = 0.0;
  double rd_allocs_off = 0.0, rd_allocs_on = 0.0;
  double bs_stack_s = 0.0, bs_graph_s = 0.0, bs_graph_arena = 0.0;
  for (const KernelRow& r : rows) {
    if (r.kernel.rfind("matmul_", 0) == 0 && r.variant == "scalar")
      scalar_s = r.seconds_per_op;
    if (r.kernel.rfind("matmul_", 0) == 0 && r.variant == "simd")
      simd_s = r.seconds_per_op;
    if (r.kernel.rfind("reverse_diffusion", 0) == 0) {
      if (r.variant == "simd_arena_off") rd_allocs_off = r.allocs_per_op;
      if (r.variant == "simd") rd_allocs_on = r.allocs_per_op;
    }
    if (r.kernel.rfind("block_score", 0) == 0) {
      if (r.variant == "stack") bs_stack_s = r.seconds_per_op;
      if (r.variant == "graph") {
        bs_graph_s = r.seconds_per_op;
        bs_graph_arena = r.allocs_per_op;
      }
    }
  }

  std::string out = "{\n";
  out += "  \"isa\": \"";
  out += simd::IsaName();
  out += "\",\n";
  out += "  \"vector_width\": ";
  out += std::to_string(simd::kVectorWidth);
  out += ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendRowJson(out, rows[i], i + 1 == rows.size());
  }
  out += "  ],\n  \"summary\": {\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    \"matmul_simd_speedup\": %.2f,\n"
                "    \"reverse_diffusion_allocs_arena_off\": %.0f,\n"
                "    \"reverse_diffusion_allocs_arena_on\": %.0f,\n"
                "    \"block_score_graph_speedup\": %.2f,\n"
                "    \"block_score_graph_arena_ops\": %.0f\n",
                simd_s > 0.0 ? scalar_s / simd_s : 0.0, rd_allocs_off,
                rd_allocs_on, bs_graph_s > 0.0 ? bs_stack_s / bs_graph_s : 0.0,
                bs_graph_arena);
  out += buf;
  out += "  }\n}\n";

  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "failed to write kernel snapshot to %s\n",
                 path.c_str());
    return 1;
  }
  f << out;
  std::printf("%s", out.c_str());
  std::printf("kernel snapshot written to %s\n", path.c_str());
  return 0;
}

// Exercises every instrumented phase once — training epochs, the reverse-
// diffusion steps and window scoring of ImDiffusion inference, online block
// scoring, and the thread-pool task path (seeded scoring's window chunks) —
// then writes the registry snapshot.
int RunMetricsSnapshot(const std::string& path) {
  SetComputeThreads(4);  // make the pool.* instruments load-bearing

  SyntheticConfig signal;
  signal.length = 700;
  signal.dims = 4;
  Rng rng(9);
  Tensor series = GenerateCleanSeries(signal, rng);
  Tensor train({400, 4});
  Tensor test({300, 4});
  std::copy_n(series.data(), 400 * 4, train.mutable_data());
  std::copy_n(series.data() + 400 * 4, 300 * 4, test.mutable_data());

  ImDiffusionConfig config = FastImDiffusionConfig();
  config.epochs = 3;
  config.seed = 17;
  ImDiffusionDetector detector(config);
  detector.Fit(train);  // train.* histograms
  detector.Run(test);   // diffusion.step / detector.window_score histograms
  // Run's 3 windows fit one infer_batch chunk, which runs inline; at 4
  // threads ScoreChunks cuts them into 3 one-window pool tasks (pool.*).
  detector.RunSeeded(test, 17);

  // Online block scoring (the paper's §6 timeliness signal).
  LstmAdConfig lstm;
  lstm.epochs = 2;
  LstmAdDetector online_base(lstm);
  OnlineDetector::Options online_options;
  online_options.block = 25;
  online_options.context = 25;
  OnlineDetector online(&online_base, online_options);
  online.Fit(train);
  std::vector<float> sample(4);
  for (int64_t t = 0; t < 100; ++t) {
    for (int64_t k = 0; k < 4; ++k) sample[static_cast<size_t>(k)] = test.at(t, k);
    online.Append(sample);
  }

  SetComputeThreads(1);
  if (!WriteMetricsJson(path)) {
    std::fprintf(stderr, "failed to write metrics snapshot to %s\n",
                 path.c_str());
    return 1;
  }
  std::printf("metrics snapshot written to %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace imdiff

// Custom main instead of BENCHMARK_MAIN: --metrics-out / --kernels-out must be
// stripped before benchmark::Initialize, which rejects unknown flags.
int main(int argc, char** argv) {
  std::string metrics_out;
  std::string kernels_out;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--kernels-out") == 0 && i + 1 < argc) {
      kernels_out = argv[++i];
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  // Validate output paths up front: a kernel sweep takes minutes, and an
  // unwritable path should not eat the run.
  for (const std::string& path : {metrics_out, kernels_out}) {
    if (!path.empty() && !imdiff::ProbeWritable(path)) {
      std::fprintf(stderr, "output path is not writable: %s\n", path.c_str());
      return 1;
    }
  }
  if (!kernels_out.empty()) return imdiff::RunKernelBench(kernels_out);
  if (!metrics_out.empty()) return imdiff::RunMetricsSnapshot(metrics_out);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
