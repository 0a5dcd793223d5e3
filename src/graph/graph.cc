#include "graph/graph.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

#include "diffusion/ddpm.h"
#include "tensor/arena.h"
#include "utils/check.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "utils/metrics.h"
#include "utils/rng.h"

namespace imdiff {
namespace graph {

namespace {

// One frozen Linear lowered for the executor: raw weight/bias pointers into
// the model's tensors plus (when a vector ISA is compiled in) the weight
// prepacked into GEMM panels at capture time. Packing is pure data movement,
// so the prepacked path is bitwise identical to MatMul's per-call packing.
struct Weight {
  const float* w = nullptr;     // [in, out]
  const float* bias = nullptr;  // [out], null when the layer has no bias
  int64_t in = 0;
  int64_t out = 0;
#if defined(IMDIFF_SIMD_ANY)
  std::vector<float> packed;
#endif
};

struct Norm {
  const float* gamma = nullptr;
  const float* beta = nullptr;
};

enum class OpKind {
  kStacked,            // interleave (x_masked, noise_ref, mask) -> [R, 3]
  kLinear,             // dst = relu?(src @ W + b)
  kAddRowBcast,        // dst_row = src_row + se_row(block, policy, t)
  kAddSide,            // x_row += side_rows(block)[token]
  kPermuteToSpatial,   // [B,K,L,D] -> [B,L,K,D]
  kPermuteFromSpatial, // [B,L,K,D] -> [B,K,L,D]
  kAttention,          // x += MHSA(LayerNorm(x)), fused LN+QKV / per-head / wo
  kFfn,                // x += fc2(GELU(fc1(LayerNorm(x)))), one fused row pass
  kGate,               // dst = tanh(filter) * sigmoid(gate) from [R, 2D]
  kResSkip,            // h = (h + rs[:D]) * s;  skip (=|+)= rs[D:]
  kScale,              // dst = src * s
};

// Aux-buffer slot names for kAttention.
enum : int {
  kAtLn = 0,   // LayerNorm scratch rows [R', D]
  kAtTmp,      // pre-split QKV gemm rows (heads > 1 only)
  kAtQ,        // q in head-split layout [bp*H, len, Dh]
  kAtK,
  kAtV,
  kAtScores,   // one item's [len, len] scores
  kAtCtx,      // per-head context [bp*H, len, Dh]
  kAtMerged,   // merged context [R', D] (== kAtCtx when heads == 1)
  kAtBpack,    // one GEMM B panel of scratch (SIMD builds only)
  kAtSlots
};

struct Op {
  OpKind kind = OpKind::kStacked;
  int src = -1;
  int dst = -1;
  int w[4] = {-1, -1, -1, -1};
  int norm = -1;
  int buf[kAtSlots] = {-1, -1, -1, -1, -1, -1, -1, -1, -1};
  int block = -1;
  int64_t rows = 0;
  int64_t bp = 0;      // attention: batch of independent sequences
  int64_t len = 0;     // attention: sequence length
  int64_t dhead = 0;
  int heads = 0;
  bool relu = false;
  bool first = false;  // kResSkip: first block assigns skip instead of +=
  float scale = 0.0f;
};

// A slot in the static arena plan. Pinned buffers (chain state, per-policy
// noise, per-execute uniform rows, vote outputs' scratch) live for the whole
// context; planned buffers carry a [first, last] op interval and share
// memory via first-fit linear scan.
struct BufferInfo {
  size_t floats = 0;
  bool pinned = false;
  int first = -1;
  int last = -1;
  size_t offset = 0;
};

constexpr size_t kAlignFloats = 16;  // keep 64-byte alignment inside the block

// Rows of the per-op time breakdown, exported as graph.op_seconds.<name>:
// the OpKinds in enum order with kAttention split into its three phases,
// then the chain glue that ScoreChunk runs around the forwards.
enum OpTime : int {
  kTimeStacked,
  kTimeLinear,
  kTimeAddRowBcast,
  kTimeAddSide,
  kTimePermuteToSpatial,
  kTimePermuteFromSpatial,
  kTimeAttentionQkv,
  kTimeAttentionCore,
  kTimeAttentionOut,
  kTimeFfn,
  kTimeGate,
  kTimeResSkip,
  kTimeScale,
  kTimeGlue,
  kOpTimes
};

constexpr const char* kOpTimeNames[kOpTimes] = {
    "stacked",       "linear",         "add_row_bcast",
    "add_side",      "permute_to_spatial", "permute_from_spatial",
    "attention_qkv", "attention_core", "attention_out",
    "ffn",           "gate",           "res_skip",
    "scale",         "glue"};

// The row an op's time lands in. RunAttention laps its QKV and core phases
// itself, so what is left when a kAttention op ends is its output phase.
OpTime OpTimeOf(OpKind kind) {
  switch (kind) {
    case OpKind::kStacked: return kTimeStacked;
    case OpKind::kLinear: return kTimeLinear;
    case OpKind::kAddRowBcast: return kTimeAddRowBcast;
    case OpKind::kAddSide: return kTimeAddSide;
    case OpKind::kPermuteToSpatial: return kTimePermuteToSpatial;
    case OpKind::kPermuteFromSpatial: return kTimePermuteFromSpatial;
    case OpKind::kAttention: return kTimeAttentionOut;
    case OpKind::kFfn: return kTimeFfn;
    case OpKind::kGate: return kTimeGate;
    case OpKind::kResSkip: return kTimeResSkip;
    case OpKind::kScale: return kTimeScale;
  }
  return kTimeGlue;
}

// Lap timer behind graph.op_seconds.*: Lap(row) charges the time since the
// previous lap to `row`, so the laps of one chunk tile it without gaps, and
// Finish() records each row's chunk total as one observation. With metrics
// off, Start() is a single relaxed load and Lap/Finish test a member flag.
class OpTimer {
 public:
  using Clock = std::chrono::steady_clock;

  // Looks up the histograms of the rows `ops` can reach, plus glue.
  void Register(const std::vector<Op>& ops) {
    auto add = [&](int row) {
      if (hist_[static_cast<size_t>(row)] != nullptr) return;
      hist_[static_cast<size_t>(row)] = MetricsRegistry::Global().GetHistogram(
          std::string("graph.op_seconds.") + kOpTimeNames[row]);
    };
    add(kTimeGlue);
    for (const Op& op : ops) {
      if (op.kind == OpKind::kAttention) {
        add(kTimeAttentionQkv);
        add(kTimeAttentionCore);
      }
      add(OpTimeOf(op.kind));
    }
  }

  void Start() {
    on_ = MetricsEnabled();
    if (!on_) return;
    seconds_.fill(0.0);
    last_ = Clock::now();
  }

  void Lap(int row) {
    if (!on_) return;
    const Clock::time_point now = Clock::now();
    seconds_[static_cast<size_t>(row)] +=
        std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

  void Finish() {
    if (!on_) return;
    for (size_t i = 0; i < hist_.size(); ++i) {
      if (hist_[i] != nullptr) hist_[i]->Record(seconds_[i]);
    }
  }

 private:
  bool on_ = false;
  Clock::time_point last_;
  std::array<double, kOpTimes> seconds_{};
  std::array<Histogram*, kOpTimes> hist_{};
};

size_t AlignUp(size_t f) { return (f + kAlignFloats - 1) & ~(kAlignFloats - 1); }

}  // namespace

struct GraphContext::Impl {
  // ---- Frozen inputs ----------------------------------------------------
  const ImTransformer* model = nullptr;
  const NoiseSchedule* sched = nullptr;
  std::vector<int> vote_ts;
  int chain_begin = 0;
  bool conditional = false;
  bool stoch = false;
  bool score_x0 = true;

  // ---- Shape constants --------------------------------------------------
  int64_t B = 0, K = 0, L = 0, KL = 0, R = 0;
  int64_t D = 0, E = 0, S2 = 0, FF = 0, Dh = 0;
  int NB = 0, H = 0, P = 0, Tp = 0;

  // ---- Lowered program --------------------------------------------------
  std::vector<Weight> weights;
  std::vector<Norm> norms;
  std::vector<Op> ops;
  std::vector<BufferInfo> bufs;

  // ---- Capture-time constant tensors ------------------------------------
  std::vector<Tensor> mask_tile;  // per policy, [B, K, L]
  std::vector<Tensor> inv_tile;   // per policy, [B, K, L]
  Tensor side_const;              // [KL, 2*side]
  std::vector<Tensor> step_diff;  // per vote step, [B, K, L]

  // ---- Static arena plan -------------------------------------------------
  size_t total_floats = 0;
  std::unique_ptr<ArenaBuffer> block;
  float* base = nullptr;

  // Pinned buffer ids.
  int bc_cur = -1, bc_xm = -1, bc_nr = -1, bc_x0h = -1, bc_eps = -1;
  int bc_ref = -1, bc_chain = -1, bc_z = -1;
  int bc_sin = -1, bc_mlpa = -1, bc_mlpb = -1, bc_comb = -1;
  int bc_se = -1, bc_sider = -1;

  // Per-(policy, window) sampling streams, rebuilt each chunk.
  std::vector<std::vector<Rng>> rngs;

  // Per-(policy, t) dynamic pointers consulted by the op interpreter.
  const float* dyn_mask = nullptr;
  int dyn_policy = 0;
  int dyn_t = 0;

  Counter* executions = nullptr;
  OpTimer timer;

  // ---- Capture ----------------------------------------------------------

  int AddWeight(const nn::Linear& lin) {
    Weight w;
    w.w = lin.weight().data();
    w.bias = lin.has_bias() ? lin.bias().data() : nullptr;
    w.in = lin.in_features();
    w.out = lin.out_features();
#if defined(IMDIFF_SIMD_ANY)
    w.packed.resize(gemm::PackedBFloats(w.in, w.out));
    gemm::PackBFull(w.w, w.in, w.out, false, w.packed.data());
#endif
    weights.push_back(std::move(w));
    return static_cast<int>(weights.size()) - 1;
  }

  int AddNorm(const nn::LayerNorm& n) {
    norms.push_back(Norm{n.gamma().data(), n.beta().data()});
    return static_cast<int>(norms.size()) - 1;
  }

  int NewBuf(size_t floats, bool pinned) {
    BufferInfo b;
    b.floats = floats;
    b.pinned = pinned;
    bufs.push_back(b);
    return static_cast<int>(bufs.size()) - 1;
  }

  // Records that the op about to be pushed reads or writes `id`.
  void Touch(int id) {
    if (id < 0) return;
    BufferInfo& b = bufs[static_cast<size_t>(id)];
    if (b.pinned) return;
    const int at = static_cast<int>(ops.size());
    if (b.first < 0) b.first = at;
    b.last = at;
  }

  float* Buf(int id) { return base + bufs[static_cast<size_t>(id)].offset; }

  struct EncIds {
    bool present = false;
    int wq = -1, wk = -1, wv = -1, wo = -1;
    int fc1 = -1, fc2 = -1;
    int norm1 = -1, norm2 = -1;
  };

  struct BlockIds {
    int step_proj = -1;
    EncIds temporal, spatial;
    int side_proj = -1, gate_proj = -1, out_proj = -1;
  };
  std::vector<BlockIds> blocks;

  // Uniform-row weight ids.
  int w_input = -1, w_mlp1 = -1, w_mlp2 = -1, w_head1 = -1, w_head2 = -1;

  // Shared planned scratch ids (sized for the worst of temporal/spatial).
  int pb_ln = -1, pb_tmp = -1, pb_q = -1, pb_k = -1, pb_v = -1;
  int pb_scores = -1, pb_ctx = -1, pb_att = -1, pb_bpack = -1, pb_ffh = -1;

  EncIds CaptureEncoder(const nn::TransformerEncoderLayer* enc) {
    EncIds ids;
    if (enc == nullptr) return ids;
    ids.present = true;
    const nn::MultiHeadSelfAttention& a = enc->attn();
    IMDIFF_CHECK_EQ(static_cast<int64_t>(H), a.num_heads());
    IMDIFF_CHECK_EQ(Dh, a.d_head());
    ids.wq = AddWeight(a.wq());
    ids.wk = AddWeight(a.wk());
    ids.wv = AddWeight(a.wv());
    ids.wo = AddWeight(a.wo());
    IMDIFF_CHECK(enc->ff().activation() == nn::Mlp::Activation::kGelu);
    ids.fc1 = AddWeight(enc->ff().fc1());
    ids.fc2 = AddWeight(enc->ff().fc2());
    ids.norm1 = AddNorm(enc->norm1());
    ids.norm2 = AddNorm(enc->norm2());
    return ids;
  }

  void EmitLinear(int wid, int src, int dst, int64_t rows, bool relu) {
    Op op;
    op.kind = OpKind::kLinear;
    op.src = src;
    op.dst = dst;
    op.w[0] = wid;
    op.rows = rows;
    op.relu = relu;
    Touch(src);
    Touch(dst);
    ops.push_back(op);
  }

  void EmitEncoder(const EncIds& enc, int xbuf, int64_t bp, int64_t len) {
    {
      Op op;
      op.kind = OpKind::kAttention;
      op.src = op.dst = xbuf;
      op.w[0] = enc.wq;
      op.w[1] = enc.wk;
      op.w[2] = enc.wv;
      op.w[3] = enc.wo;
      op.norm = enc.norm1;
      op.bp = bp;
      op.len = len;
      op.heads = H;
      op.dhead = Dh;
      op.rows = bp * len;
      op.buf[kAtLn] = pb_ln;
      op.buf[kAtTmp] = H > 1 ? pb_tmp : -1;
      op.buf[kAtQ] = pb_q;
      op.buf[kAtK] = pb_k;
      op.buf[kAtV] = pb_v;
      op.buf[kAtScores] = pb_scores;
      op.buf[kAtCtx] = pb_ctx;
      op.buf[kAtMerged] = H > 1 ? pb_att : pb_ctx;
      op.buf[kAtBpack] = pb_bpack;
      for (int i = 0; i < kAtSlots; ++i) Touch(op.buf[i]);
      Touch(xbuf);
      ops.push_back(op);
    }
    {
      Op op;
      op.kind = OpKind::kFfn;
      op.src = op.dst = xbuf;
      op.w[0] = enc.fc1;
      op.w[1] = enc.fc2;
      op.norm = enc.norm2;
      op.rows = bp * len;
      op.buf[kAtLn] = pb_ln;
      op.buf[kAtTmp] = pb_ffh;
      Touch(pb_ln);
      Touch(pb_ffh);
      Touch(xbuf);
      ops.push_back(op);
    }
  }

  void Capture(const DenoiserSpec& spec) {
    model = spec.model;
    sched = spec.schedule;
    vote_ts = spec.vote_ts;
    chain_begin = spec.chain_begin;
    conditional = spec.conditional;
    stoch = spec.stochastic_sampling;
    score_x0 = spec.score_on_x0;

    const ImTransformerConfig& mc = model->config();
    B = spec.bsz;
    K = mc.num_features;
    L = mc.window;
    KL = K * L;
    R = B * KL;
    D = mc.hidden;
    E = mc.step_embed_dim;
    S2 = 2 * mc.side_dim;
    FF = mc.ff_dim;
    NB = mc.num_blocks;
    H = mc.num_heads;
    Dh = D / static_cast<int64_t>(H);
    P = static_cast<int>(spec.policy_masks.size());
    Tp = chain_begin + 1;
    IMDIFF_CHECK_GT(P, 0);
    IMDIFF_CHECK_GT(B, 0);

    // Policy masks tiled over the chunk, and their complements — the exact
    // data movement of ScoreWindowBatch's TileMask/Complement.
    for (int p = 0; p < P; ++p) {
      const Tensor& m2d = spec.policy_masks[static_cast<size_t>(p)];
      IMDIFF_CHECK_EQ(m2d.numel(), KL);
      Tensor tiled = Tensor::Uninitialized({B, K, L});
      float* pt = tiled.mutable_data();
      for (int64_t b = 0; b < B; ++b) {
        std::copy_n(m2d.data(), KL, pt + b * KL);
      }
      Tensor inv = Tensor::Uninitialized({B, K, L});
      float* pi = inv.mutable_data();
      for (int64_t i = 0; i < R; ++i) pi[i] = 1.0f - pt[i];
      mask_tile.push_back(std::move(tiled));
      inv_tile.push_back(std::move(inv));
    }

    // Side information rows [KL, 2*side]: feature-embedding row of the
    // token's feature, then the token's sinusoidal time row — the concat the
    // legacy forward rebuilds per call.
    {
      const int64_t side = S2 / 2;
      const float* feat = model->feature_embed().table().data();
      const float* time = model->time_embed().data();
      side_const = Tensor::Uninitialized({KL, S2});
      float* po = side_const.mutable_data();
      for (int64_t j = 0; j < K; ++j) {
        for (int64_t l = 0; l < L; ++l) {
          float* row = po + (j * L + l) * S2;
          std::copy_n(feat + j * side, side, row);
          std::copy_n(time + l * side, side, row + side);
        }
      }
    }

    for (size_t s = 0; s < vote_ts.size(); ++s) {
      step_diff.emplace_back(Shape{B, K, L});
    }

    // ---- Weights ---------------------------------------------------------
    w_input = AddWeight(model->input_proj());
    IMDIFF_CHECK(model->step_mlp().activation() == nn::Mlp::Activation::kSilu);
    w_mlp1 = AddWeight(model->step_mlp().fc1());
    w_mlp2 = AddWeight(model->step_mlp().fc2());
    w_head1 = AddWeight(model->head1());
    w_head2 = AddWeight(model->head2());
    for (const auto& rb : model->residual_blocks()) {
      BlockIds ids;
      ids.step_proj = AddWeight(*rb.step_proj);
      ids.temporal = CaptureEncoder(rb.temporal.get());
      ids.spatial = CaptureEncoder(rb.spatial.get());
      ids.side_proj = AddWeight(*rb.side_proj);
      ids.gate_proj = AddWeight(*rb.gate_proj);
      ids.out_proj = AddWeight(*rb.out_proj);
      blocks.push_back(ids);
    }

    // ---- Pinned buffers --------------------------------------------------
    const size_t r = static_cast<size_t>(R);
    bc_cur = NewBuf(r, true);
    bc_xm = NewBuf(r, true);
    bc_nr = NewBuf(r, true);
    bc_x0h = score_x0 ? NewBuf(r, true) : -1;
    bc_eps = NewBuf(r, true);
    bc_ref = NewBuf(static_cast<size_t>(P) * r, true);
    bc_chain = NewBuf(static_cast<size_t>(P) * r, true);
    bc_z = stoch ? NewBuf(static_cast<size_t>(KL), true) : -1;
    bc_sin = NewBuf(static_cast<size_t>(Tp * E), true);
    bc_mlpa = NewBuf(static_cast<size_t>(Tp * E), true);
    bc_mlpb = NewBuf(static_cast<size_t>(Tp * E), true);
    bc_comb = NewBuf(static_cast<size_t>(P) * static_cast<size_t>(Tp * E), true);
    bc_se = NewBuf(static_cast<size_t>(NB) * static_cast<size_t>(P) *
                       static_cast<size_t>(Tp * D),
                   true);
    bc_sider = NewBuf(static_cast<size_t>(NB) * static_cast<size_t>(KL * D),
                      true);

    // ---- Planned (liveness-managed) buffers ------------------------------
    const bool any_enc = [&] {
      for (const auto& bi : blocks) {
        if (bi.temporal.present || bi.spatial.present) return true;
      }
      return false;
    }();
    const bool any_spatial = [&] {
      for (const auto& bi : blocks) {
        if (bi.spatial.present) return true;
      }
      return false;
    }();
    const size_t rd = static_cast<size_t>(R * D);
    const int pb_stacked = NewBuf(static_cast<size_t>(R * 3), false);
    const int pb_h = NewBuf(rd, false);
    const int pb_hin = NewBuf(rd, false);
    const int pb_hs = any_spatial ? NewBuf(rd, false) : -1;
    if (any_enc) {
      pb_ln = NewBuf(rd, false);
      pb_tmp = H > 1 ? NewBuf(rd, false) : -1;
      pb_q = NewBuf(rd, false);
      pb_k = NewBuf(rd, false);
      pb_v = NewBuf(rd, false);
      // Attention items run one at a time, so one item's score matrix (the
      // worse of temporal [L, L] and spatial [K, K]) and one GEMM B panel
      // serve every encoder op.
      pb_scores = NewBuf(static_cast<size_t>(std::max(L * L, K * K)), false);
      pb_ctx = NewBuf(rd, false);
      pb_att = H > 1 ? NewBuf(rd, false) : -1;
      pb_ffh = NewBuf(static_cast<size_t>(R * FF), false);
#if defined(IMDIFF_SIMD_ANY)
      pb_bpack = NewBuf(gemm::PanelFloats(std::max({Dh, L, K})), false);
#endif
    }
    const int pb_fg = NewBuf(static_cast<size_t>(R * 2 * D), false);
    const int pb_gated = NewBuf(rd, false);
    const int pb_rs = NewBuf(static_cast<size_t>(R * 2 * D), false);
    const int pb_skip = NewBuf(rd, false);
    const int pb_o1 = NewBuf(rd, false);
    const int pb_o2 = NewBuf(rd, false);

    // ---- Op list: one denoiser forward -----------------------------------
    {
      Op op;
      op.kind = OpKind::kStacked;
      op.dst = pb_stacked;
      op.rows = R;
      Touch(pb_stacked);
      ops.push_back(op);
    }
    EmitLinear(w_input, pb_stacked, pb_h, R, false);
    for (int bi = 0; bi < NB; ++bi) {
      const BlockIds& ids = blocks[static_cast<size_t>(bi)];
      {
        Op op;
        op.kind = OpKind::kAddRowBcast;
        op.src = pb_h;
        op.dst = pb_hin;
        op.block = bi;
        op.rows = R;
        Touch(pb_h);
        Touch(pb_hin);
        ops.push_back(op);
      }
      if (ids.temporal.present) {
        EmitEncoder(ids.temporal, pb_hin, B * K, L);
      }
      if (ids.spatial.present) {
        Op pi;
        pi.kind = OpKind::kPermuteToSpatial;
        pi.src = pb_hin;
        pi.dst = pb_hs;
        pi.rows = R;
        Touch(pb_hin);
        Touch(pb_hs);
        ops.push_back(pi);
        EmitEncoder(ids.spatial, pb_hs, B * L, K);
        Op po;
        po.kind = OpKind::kPermuteFromSpatial;
        po.src = pb_hs;
        po.dst = pb_hin;
        po.rows = R;
        Touch(pb_hs);
        Touch(pb_hin);
        ops.push_back(po);
      }
      {
        Op op;
        op.kind = OpKind::kAddSide;
        op.src = op.dst = pb_hin;
        op.block = bi;
        op.rows = R;
        Touch(pb_hin);
        ops.push_back(op);
      }
      EmitLinear(ids.gate_proj, pb_hin, pb_fg, R, false);
      {
        Op op;
        op.kind = OpKind::kGate;
        op.src = pb_fg;
        op.dst = pb_gated;
        op.rows = R;
        Touch(pb_fg);
        Touch(pb_gated);
        ops.push_back(op);
      }
      EmitLinear(ids.out_proj, pb_gated, pb_rs, R, false);
      {
        Op op;
        op.kind = OpKind::kResSkip;
        op.src = pb_rs;
        op.dst = pb_h;
        op.buf[0] = pb_skip;
        op.rows = R;
        op.first = bi == 0;
        op.scale = 1.0f / std::sqrt(2.0f);
        Touch(pb_rs);
        Touch(pb_h);
        Touch(pb_skip);
        ops.push_back(op);
      }
    }
    {
      Op op;
      op.kind = OpKind::kScale;
      op.src = pb_skip;
      op.dst = pb_o1;
      op.rows = R;
      op.scale = 1.0f / std::sqrt(static_cast<float>(NB));
      Touch(pb_skip);
      Touch(pb_o1);
      ops.push_back(op);
    }
    EmitLinear(w_head1, pb_o1, pb_o2, R, true);
    EmitLinear(w_head2, pb_o2, bc_eps, R, false);

    PlanOffsets();
    block = std::make_unique<ArenaBuffer>(total_floats);
    base = block->data();

    if (stoch) rngs.resize(static_cast<size_t>(P));

    MetricsRegistry::Global().GetCounter("graph.captures")->Increment();
    MetricsRegistry::Global()
        .GetGauge("graph.plan_bytes")
        ->Set(static_cast<double>(plan_bytes()));
    executions = MetricsRegistry::Global().GetCounter("graph.executions");
    timer.Register(ops);
  }

  // First-fit linear-scan assignment of planned buffers into one block,
  // after the pinned region. Holes are coalesced on free.
  void PlanOffsets() {
    size_t cursor = 0;
    for (BufferInfo& b : bufs) {
      if (!b.pinned) continue;
      b.offset = cursor;
      cursor += AlignUp(b.floats);
    }
    std::vector<std::vector<int>> alloc_at(ops.size());
    std::vector<std::vector<int>> free_at(ops.size());
    for (size_t id = 0; id < bufs.size(); ++id) {
      const BufferInfo& b = bufs[id];
      if (b.pinned || b.first < 0) continue;
      alloc_at[static_cast<size_t>(b.first)].push_back(static_cast<int>(id));
      free_at[static_cast<size_t>(b.last)].push_back(static_cast<int>(id));
    }
    std::vector<std::pair<size_t, size_t>> holes;  // (offset, floats), sorted
    size_t high = cursor;
    for (size_t i = 0; i < ops.size(); ++i) {
      for (int id : alloc_at[i]) {
        BufferInfo& b = bufs[static_cast<size_t>(id)];
        const size_t need = AlignUp(b.floats);
        size_t best = holes.size();
        for (size_t hidx = 0; hidx < holes.size(); ++hidx) {
          if (holes[hidx].second >= need &&
              (best == holes.size() ||
               holes[hidx].second < holes[best].second)) {
            best = hidx;
          }
        }
        if (best < holes.size()) {
          b.offset = holes[best].first;
          holes[best].first += need;
          holes[best].second -= need;
          if (holes[best].second == 0) {
            holes.erase(holes.begin() + static_cast<int64_t>(best));
          }
        } else {
          b.offset = high;
          high += need;
        }
      }
      for (int id : free_at[i]) {
        const BufferInfo& b = bufs[static_cast<size_t>(id)];
        const size_t off = b.offset;
        const size_t sz = AlignUp(b.floats);
        auto it = std::lower_bound(
            holes.begin(), holes.end(), std::make_pair(off, size_t{0}));
        it = holes.insert(it, {off, sz});
        // Coalesce with the following hole, then the preceding one.
        const size_t at = static_cast<size_t>(it - holes.begin());
        if (at + 1 < holes.size() &&
            holes[at].first + holes[at].second == holes[at + 1].first) {
          holes[at].second += holes[at + 1].second;
          holes.erase(holes.begin() + static_cast<int64_t>(at) + 1);
        }
        if (at > 0 &&
            holes[at - 1].first + holes[at - 1].second == holes[at].first) {
          holes[at - 1].second += holes[at].second;
          holes.erase(holes.begin() + static_cast<int64_t>(at));
        }
      }
    }
    total_floats = std::max(high, size_t{1});
  }

  // ---- Execution ---------------------------------------------------------

  // Every op runs serially over its full range: chunks are the one parallel
  // level of seeded scoring (ImDiffusionDetector::ScoreChunks), so the
  // executor never touches the compute pool.

  // LayerNorm(x) into `out` over `rows` rows — the row body of
  // LayerNormForward (tensor_ops.cc) verbatim.
  void NormRows(const Norm& nm, const float* x, float* out, int64_t rows) {
    const float inv_n = 1.0f / static_cast<float>(D);
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = x + r * D;
      const float mean = simd::Sum(row, D) * inv_n;
      const float var = simd::SqDiffSum(row, mean, D) * inv_n;
      const float is = 1.0f / std::sqrt(var + 1e-5f);
      float* orow = out + r * D;
      simd::ScaledDiffInto(orow, row, mean, is, D);
      simd::FmaInto(orow, orow, nm.gamma, nm.beta, D);
    }
  }

  // v = a @ W + b over `rows` rows, then v = max(v, 0) when `relu`, stored
  // as c = v — or, when `residual` is set, accumulated as c = c + v (the
  // encoder's residual add). This is the single GEMM body every lowered
  // Linear shares, on the exact kernels of the layer stack's MatMul. The
  // SIMD GEMM applies that epilogue in registers (gemm::Epilogue). The
  // scalar GEMM has none, so it stores the product (into `residual` when
  // accumulating, else into c) and runs the same IEEE operations as separate
  // row passes; both routes give the same bits.
  void RunLinear(const Weight& w, const float* a, float* c, int64_t rows,
                 bool relu, float* residual = nullptr) {
#if defined(IMDIFF_SIMD_ANY)
    if (simd::Enabled()) {
      gemm::Epilogue ep;
      ep.bias = w.bias;
      ep.relu = relu;
      ep.accumulate = residual != nullptr;
      gemm::GemmRowsPrepacked(a, w.packed.data(), c, rows, w.in, w.out, 0,
                              rows, ep);
      return;
    }
#endif
    float* out = residual != nullptr ? residual : c;
    std::memset(out, 0, static_cast<size_t>(rows * w.out) * sizeof(float));
    gemm::MatMulRowsScalar(a, w.w, out, rows, w.in, w.out, false, false, 0,
                           rows);
    for (int64_t r = 0; r < rows; ++r) {
      float* row = out + r * w.out;
      if (w.bias != nullptr) simd::AddInto(row, row, w.bias, w.out);
      if (relu) {
        for (int64_t j = 0; j < w.out; ++j) {
          row[j] = row[j] > 0.0f ? row[j] : 0.0f;
        }
      }
      if (residual != nullptr) simd::AddInPlace(c + r * w.out, row, w.out);
    }
  }

  void RunAttention(const Op& op) {
    float* x = Buf(op.dst);
    float* ln = Buf(op.buf[kAtLn]);
    float* qh = Buf(op.buf[kAtQ]);
    float* kh = Buf(op.buf[kAtK]);
    float* vh = Buf(op.buf[kAtV]);
    float* scores = Buf(op.buf[kAtScores]);
    float* ctx = Buf(op.buf[kAtCtx]);
    float* merged = Buf(op.buf[kAtMerged]);
    float* tmp = op.buf[kAtTmp] >= 0 ? Buf(op.buf[kAtTmp]) : nullptr;
    const Weight& wq = weights[static_cast<size_t>(op.w[0])];
    const Weight& wk = weights[static_cast<size_t>(op.w[1])];
    const Weight& wv = weights[static_cast<size_t>(op.w[2])];
    const Weight& wo = weights[static_cast<size_t>(op.w[3])];
    const Norm& nm = norms[static_cast<size_t>(op.norm)];
    const int64_t rows = op.rows;
    const int64_t len = op.len;
    const int64_t dh = op.dhead;
    const int heads = op.heads;

    // Fused LayerNorm + QKV projections (+ head split when heads > 1).
    NormRows(nm, x, ln, rows);
    const Weight* ws[3] = {&wq, &wk, &wv};
    float* outs[3] = {qh, kh, vh};
    for (int wi = 0; wi < 3; ++wi) {
      float* gdst = heads > 1 ? tmp : outs[wi];
      RunLinear(*ws[wi], ln, gdst, rows, false);
      if (heads > 1) {
        for (int64_t r = 0; r < rows; ++r) {
          const int64_t item = r / len;
          const int64_t l = r % len;
          for (int h = 0; h < heads; ++h) {
            std::memcpy(outs[wi] + (((item * heads + h) * len) + l) * dh,
                        gdst + r * D + h * dh,
                        static_cast<size_t>(dh) * sizeof(float));
          }
        }
      }
    }
    timer.Lap(kTimeAttentionQkv);

    // Per-(sequence, head) scaled-dot-product attention, one item at a time
    // through a single [len, len] score buffer and B-panel scratch.
#if defined(IMDIFF_SIMD_ANY)
    float* bpack = op.buf[kAtBpack] >= 0 ? Buf(op.buf[kAtBpack]) : nullptr;
#endif
    // c[len, n] = a[len, k] @ b (b is [n, k] when `tb`), on the kernels of
    // the stack's BatchedMatMul.
    auto matmul = [&](const float* a, const float* b, float* c, int64_t k,
                      int64_t n, bool tb) {
#if defined(IMDIFF_SIMD_ANY)
      if (simd::Enabled()) {
        gemm::GemmRowsPackedScratch(a, b, c, len, k, n, false, tb, 0, len,
                                    bpack, nullptr);
        return;
      }
#endif
      std::memset(c, 0, static_cast<size_t>(len * n) * sizeof(float));
      gemm::MatMulRowsScalar(a, b, c, len, k, n, false, tb, 0, len);
    };
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    for (int64_t i = 0; i < op.bp * heads; ++i) {
      matmul(qh + i * len * dh, kh + i * len * dh, scores, dh, len, true);
      simd::ScaleInPlace(scores, scale, len * len);
      for (int64_t rr = 0; rr < len; ++rr) {
        float* srow = scores + rr * len;
        const float mx = simd::MaxReduce(srow, len);
        const float sum = simd::ExpSumInto(srow, srow, mx, len);
        simd::ScaleInPlace(srow, 1.0f / sum, len);
      }
      matmul(scores, vh + i * len * dh, ctx + i * len * dh, len, dh, false);
    }
    timer.Lap(kTimeAttentionCore);

    // Merge heads + output projection + residual.
    if (heads > 1) {
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t item = r / len;
        const int64_t l = r % len;
        for (int h = 0; h < heads; ++h) {
          std::memcpy(merged + r * D + h * dh,
                      ctx + (((item * heads + h) * len) + l) * dh,
                      static_cast<size_t>(dh) * sizeof(float));
        }
      }
    }
    RunLinear(wo, merged, x, rows, false, ln);
  }

  // The LayerNorm -> MatMul -> GELU -> MatMul chain of the encoder
  // feed-forward: x += fc2(GELU(fc1(LayerNorm(x)))).
  void RunFfn(const Op& op) {
    float* x = Buf(op.dst);
    float* ln = Buf(op.buf[kAtLn]);
    float* ffh = Buf(op.buf[kAtTmp]);
    const Weight& fc1 = weights[static_cast<size_t>(op.w[0])];
    const Weight& fc2 = weights[static_cast<size_t>(op.w[1])];
    const Norm& nm = norms[static_cast<size_t>(op.norm)];
    const int64_t rows = op.rows;
    NormRows(nm, x, ln, rows);
    RunLinear(fc1, ln, ffh, rows, false);
    simd::GeluInto(ffh, ffh, rows * FF);
    RunLinear(fc2, ffh, x, rows, false, ln);
  }

  void RunForward() {
    const float* se_rows = Buf(bc_se);
    const float* side_rows = Buf(bc_sider);
    for (const Op& op : ops) {
      switch (op.kind) {
        case OpKind::kStacked: {
          const float* xm = Buf(bc_xm);
          const float* nr = Buf(bc_nr);
          const float* mk = dyn_mask;
          float* po = Buf(op.dst);
          for (int64_t i = 0; i < op.rows; ++i) {
            po[i * 3 + 0] = xm[i];
            po[i * 3 + 1] = nr[i];
            po[i * 3 + 2] = mk[i];
          }
          break;
        }
        case OpKind::kLinear:
          RunLinear(weights[static_cast<size_t>(op.w[0])], Buf(op.src),
                    Buf(op.dst), op.rows, op.relu);
          break;
        case OpKind::kAddRowBcast: {
          const float* src = Buf(op.src);
          float* dst = Buf(op.dst);
          const float* se =
              se_rows +
              ((static_cast<int64_t>(op.block) * P + dyn_policy) * Tp +
               dyn_t) *
                  D;
          for (int64_t r = 0; r < op.rows; ++r) {
            simd::AddInto(dst + r * D, src + r * D, se, D);
          }
          break;
        }
        case OpKind::kAddSide: {
          float* x = Buf(op.dst);
          const float* side = side_rows + static_cast<int64_t>(op.block) * KL * D;
          for (int64_t r = 0; r < op.rows; ++r) {
            simd::AddInPlace(x + r * D, side + (r % KL) * D, D);
          }
          break;
        }
        case OpKind::kPermuteToSpatial: {
          const float* src = Buf(op.src);
          float* dst = Buf(op.dst);
          for (int64_t r = 0; r < op.rows; ++r) {
            const int64_t b = r / KL;
            const int64_t rem = r % KL;
            const int64_t l = rem / K;
            const int64_t j = rem % K;
            std::memcpy(dst + r * D, src + ((b * K + j) * L + l) * D,
                        static_cast<size_t>(D) * sizeof(float));
          }
          break;
        }
        case OpKind::kPermuteFromSpatial: {
          const float* src = Buf(op.src);
          float* dst = Buf(op.dst);
          for (int64_t r = 0; r < op.rows; ++r) {
            const int64_t b = r / KL;
            const int64_t rem = r % KL;
            const int64_t j = rem / L;
            const int64_t l = rem % L;
            std::memcpy(dst + r * D, src + ((b * L + l) * K + j) * D,
                        static_cast<size_t>(D) * sizeof(float));
          }
          break;
        }
        case OpKind::kAttention:
          RunAttention(op);
          break;
        case OpKind::kFfn:
          RunFfn(op);
          break;
        case OpKind::kGate:
          // Same row kernel as the stack's GateForward (tensor_ops.cc).
          simd::GateRowsInto(Buf(op.dst), Buf(op.src), op.rows, D);
          break;
        case OpKind::kResSkip: {
          const float* rs = Buf(op.src);
          float* h = Buf(op.dst);
          float* skip = Buf(op.buf[0]);
          const float s = op.scale;
          for (int64_t r = 0; r < op.rows; ++r) {
            const float* rr = rs + r * 2 * D;
            float* hr = h + r * D;
            float* sr = skip + r * D;
            for (int64_t j = 0; j < D; ++j) {
              const float t = hr[j] + rr[j];
              hr[j] = t * s;
              if (op.first) {
                sr[j] = rr[D + j];
              } else {
                sr[j] += rr[D + j];
              }
            }
          }
          break;
        }
        case OpKind::kScale:
          simd::ScaleInto(Buf(op.dst), Buf(op.src), op.scale, op.rows * D);
          break;
      }
      timer.Lap(OpTimeOf(op.kind));
    }
  }

  // Per-execute uniform rows: the (t, policy, block) quantities the legacy
  // stack recomputes per forward call. Row results of a GEMM depend only on
  // that row's inputs, so batching all (policy, t) rows through one call is
  // bitwise identical to the legacy per-call rows.
  void ComputeUniformRows() {
    float* sin_rows = Buf(bc_sin);
    float* mlpa = Buf(bc_mlpa);
    float* mlpb = Buf(bc_mlpb);
    float* comb = Buf(bc_comb);
    // Sinusoidal step rows for every t the chain visits — the exact
    // SinusoidalEmbedding expression (layers.cc).
    const int64_t half = E / 2;
    const float max_period = 10000.0f;
    std::memset(sin_rows, 0, static_cast<size_t>(Tp * E) * sizeof(float));
    for (int t = 0; t < Tp; ++t) {
      float* row = sin_rows + static_cast<int64_t>(t) * E;
      for (int64_t j = 0; j < half; ++j) {
        const float freq =
            std::exp(-std::log(max_period) * static_cast<float>(j) /
                     static_cast<float>(half > 1 ? half - 1 : 1));
        const float angle = static_cast<float>(t) * freq;
        row[j] = std::sin(angle);
        row[half + j] = std::cos(angle);
      }
    }
    // step_mlp: fc1 -> SiLU -> fc2 (Mlp::Forward with kSilu).
    RunLinear(weights[static_cast<size_t>(w_mlp1)], sin_rows, mlpa, Tp, false);
    simd::SiluInto(mlpa, mlpa, Tp * E);
    RunLinear(weights[static_cast<size_t>(w_mlp2)], mlpa, mlpb, Tp, false);
    // Combined step embedding per (policy, t): policy row + mlp row.
    const float* ptable = model->policy_embed().table().data();
    for (int p = 0; p < P; ++p) {
      for (int t = 0; t < Tp; ++t) {
        simd::AddInto(comb + (static_cast<int64_t>(p) * Tp + t) * E,
                      ptable + static_cast<int64_t>(p) * E,
                      mlpb + static_cast<int64_t>(t) * E, E);
      }
    }
    // Per-block step projection of every (policy, t) row, and the per-block
    // side projection of the constant side rows.
    float* se_rows = Buf(bc_se);
    float* side_rows = Buf(bc_sider);
    for (int bi = 0; bi < NB; ++bi) {
      RunLinear(weights[static_cast<size_t>(
                    blocks[static_cast<size_t>(bi)].step_proj)],
                comb, se_rows + static_cast<int64_t>(bi) * P * Tp * D,
                static_cast<int64_t>(P) * Tp, false);
      RunLinear(weights[static_cast<size_t>(
                    blocks[static_cast<size_t>(bi)].side_proj)],
                side_const.data(),
                side_rows + static_cast<int64_t>(bi) * KL * D, KL, false);
    }
  }

  void ScoreChunk(const float* windows, const uint64_t* seeds) {
    timer.Start();
    executions->Increment();
    for (Tensor& sd : step_diff) {
      std::memset(sd.mutable_data(), 0,
                  static_cast<size_t>(sd.numel()) * sizeof(float));
    }
    const float* x0 = windows;
    float* ref = Buf(bc_ref);
    float* chain = Buf(bc_chain);
    // Per-window noise in the exact legacy consumption order: policy-0
    // reference, policy-0 chain start, policy-1 reference, policy-1 chain
    // start, then the forked per-policy sampling streams.
    for (int p = 0; p < P && stoch; ++p) rngs[static_cast<size_t>(p)].clear();
    for (int64_t b = 0; b < B; ++b) {
      Rng wrng(seeds[b]);
      for (int p = 0; p < P; ++p) {
        wrng.FillNormal(ref + (static_cast<int64_t>(p) * B + b) * KL,
                        static_cast<size_t>(KL));
        wrng.FillNormal(chain + (static_cast<int64_t>(p) * B + b) * KL,
                        static_cast<size_t>(KL));
      }
      if (stoch) {
        for (int p = 0; p < P; ++p) {
          rngs[static_cast<size_t>(p)].push_back(wrng.Fork());
        }
      }
    }

    ComputeUniformRows();

    float* cur = Buf(bc_cur);
    float* xm = Buf(bc_xm);
    float* nr = Buf(bc_nr);
    float* eps = Buf(bc_eps);
    float* x0h = bc_x0h >= 0 ? Buf(bc_x0h) : nullptr;
    float* z = bc_z >= 0 ? Buf(bc_z) : nullptr;
    const size_t num_votes = vote_ts.size();
    for (int p = 0; p < P; ++p) {
      const float* mask = mask_tile[static_cast<size_t>(p)].data();
      const float* inv = inv_tile[static_cast<size_t>(p)].data();
      dyn_mask = mask;
      dyn_policy = p;
      std::memcpy(cur, chain + static_cast<int64_t>(p) * R,
                  static_cast<size_t>(R) * sizeof(float));
      if (conditional) {
        // noise_ref = x0 * mask, constant along the chain.
        simd::MulInto(nr, x0, mask, R);
      }
      const float* pref = ref + static_cast<int64_t>(p) * R;
      size_t vote_idx = 0;
      for (int t = chain_begin; t >= 0; --t) {
        dyn_t = t;
        simd::MulInto(xm, cur, inv, R);
        if (!conditional) {
          // Mul(QSampleWithNoise(x0, t, ref), mask) with the intermediate
          // rounded to float exactly as the legacy two-op sequence does.
          const float a = sched->sqrt_alpha_bar(t);
          const float bq = sched->sqrt_one_minus_alpha_bar(t);
          for (int64_t i = 0; i < R; ++i) {
            const float q = a * x0[i] + bq * pref[i];
            nr[i] = q * mask[i];
          }
        }
        timer.Lap(kTimeGlue);
        RunForward();
        const bool is_vote =
            vote_idx < num_votes && t == vote_ts[vote_idx];
        if (is_vote && score_x0) {
          // PredictX0(cur, eps, t), before the posterior update.
          const float a = sched->sqrt_alpha_bar(t);
          const float bq = sched->sqrt_one_minus_alpha_bar(t);
          const float inv_a = 1.0f / a;
          for (int64_t i = 0; i < R; ++i) {
            x0h[i] = (cur[i] - bq * eps[i]) * inv_a;
          }
        }
        {
          // PosteriorMean(cur, eps, t); elementwise, safe in place.
          const float inv_sqrt_alpha = 1.0f / std::sqrt(sched->alpha(t));
          const float coef =
              sched->beta(t) / sched->sqrt_one_minus_alpha_bar(t);
          for (int64_t i = 0; i < R; ++i) {
            cur[i] = inv_sqrt_alpha * (cur[i] - coef * eps[i]);
          }
        }
        if (stoch && t > 0) {
          const float sigma = std::sqrt(sched->posterior_variance(t));
          for (int64_t b = 0; b < B; ++b) {
            rngs[static_cast<size_t>(p)][static_cast<size_t>(b)].FillNormal(
                z, static_cast<size_t>(KL));
            float* pw = cur + b * KL;
            for (int64_t i = 0; i < KL; ++i) {
              pw[i] += sigma * z[i];
            }
          }
        }
        if (is_vote) {
          const float* pc = score_x0 ? x0h : cur;
          float* ps = step_diff[vote_idx].mutable_data();
          for (int64_t i = 0; i < R; ++i) {
            if (inv[i] != 0.0f) {
              ps[i] += pc[i] - x0[i];
            }
          }
          ++vote_idx;
        }
      }
    }
    timer.Lap(kTimeGlue);
    timer.Finish();
  }

  size_t plan_bytes() const { return total_floats * sizeof(float); }
};

GraphContext::GraphContext(const DenoiserSpec& spec)
    : impl_(std::make_unique<Impl>()) {
  impl_->Capture(spec);
}

GraphContext::~GraphContext() = default;

int64_t GraphContext::bsz() const { return impl_->B; }

void GraphContext::ScoreChunk(const float* windows, const uint64_t* seeds) {
  impl_->ScoreChunk(windows, seeds);
}

const std::vector<Tensor>& GraphContext::step_diff() const {
  return impl_->step_diff;
}

size_t GraphContext::plan_bytes() const { return impl_->plan_bytes(); }

std::unique_ptr<GraphContext> GraphCache::Acquire(int64_t bsz,
                                                  int degrade_level) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pool_.find({bsz, degrade_level});
  if (it == pool_.end() || it->second.empty()) return nullptr;
  std::unique_ptr<GraphContext> ctx = std::move(it->second.back());
  it->second.pop_back();
  return ctx;
}

void GraphCache::Release(int64_t bsz, int degrade_level,
                         std::unique_ptr<GraphContext> ctx) {
  if (ctx == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  pool_[{bsz, degrade_level}].push_back(std::move(ctx));
}

}  // namespace graph
}  // namespace imdiff
