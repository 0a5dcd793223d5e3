#include "net/messages.h"

#include "net/wire.h"

namespace imdiff {
namespace net {
namespace {

Frame MakeFrame(MsgType type, WireWriter w) {
  Frame f;
  f.type = static_cast<uint8_t>(type);
  f.payload = w.Take();
  return f;
}

// A decode succeeds only when the type matches, every field parsed, and the
// payload was consumed exactly.
bool Finish(const Frame& f, MsgType type, const WireReader& r) {
  return f.type == static_cast<uint8_t>(type) && r.ok() && r.remaining() == 0;
}

void PutBlob(WireWriter& w, const SessionBlob& b) {
  w.Str(b.tenant);
  w.Bytes(b.state);
}

bool GetBlob(WireReader& r, SessionBlob* b) {
  return r.Str(&b->tenant) && r.Bytes(&b->state);
}

}  // namespace

Frame Encode(const HelloMsg& m) {
  WireWriter w;
  w.I64(m.shard_id);
  return MakeFrame(MsgType::kHello, std::move(w));
}

bool Decode(const Frame& f, HelloMsg* m) {
  WireReader r(f.payload);
  r.I64(&m->shard_id);
  return Finish(f, MsgType::kHello, r);
}

Frame Encode(const PublishMsg& m) {
  WireWriter w;
  w.Str(m.name);
  w.Str(m.checkpoint_path);
  w.I64(m.num_features);
  w.U64(m.config_seed);
  w.FloatVec(m.stats_min);
  w.FloatVec(m.stats_max);
  return MakeFrame(MsgType::kPublish, std::move(w));
}

bool Decode(const Frame& f, PublishMsg* m) {
  WireReader r(f.payload);
  r.Str(&m->name);
  r.Str(&m->checkpoint_path);
  r.I64(&m->num_features);
  r.U64(&m->config_seed);
  r.FloatVec(&m->stats_min);
  r.FloatVec(&m->stats_max);
  return Finish(f, MsgType::kPublish, r);
}

Frame Encode(const PublishResultMsg& m) {
  WireWriter w;
  w.I64(m.version);
  return MakeFrame(MsgType::kPublishResult, std::move(w));
}

bool Decode(const Frame& f, PublishResultMsg* m) {
  WireReader r(f.payload);
  r.I64(&m->version);
  return Finish(f, MsgType::kPublishResult, r);
}

Frame Encode(const SubmitMsg& m) {
  WireWriter w;
  w.Str(m.tenant);
  w.FloatVec(m.sample);
  w.Bytes(m.observed);
  return MakeFrame(MsgType::kSubmit, std::move(w));
}

bool Decode(const Frame& f, SubmitMsg* m) {
  WireReader r(f.payload);
  r.Str(&m->tenant);
  r.FloatVec(&m->sample);
  r.Bytes(&m->observed);
  return Finish(f, MsgType::kSubmit, r);
}

Frame Encode(const ScoredBlockMsg& m) {
  WireWriter w;
  w.Str(m.tenant);
  w.I64(m.block_index);
  w.I64(m.start);
  w.I64(m.degrade_level);
  w.F64(m.latency_seconds);
  w.FloatVec(m.scores);
  return MakeFrame(MsgType::kScoredBlock, std::move(w));
}

bool Decode(const Frame& f, ScoredBlockMsg* m) {
  WireReader r(f.payload);
  r.Str(&m->tenant);
  r.I64(&m->block_index);
  r.I64(&m->start);
  r.I64(&m->degrade_level);
  r.F64(&m->latency_seconds);
  r.FloatVec(&m->scores);
  return Finish(f, MsgType::kScoredBlock, r);
}

Frame Encode(const DrainMsg& m) {
  WireWriter w;
  w.U64(m.token);
  return MakeFrame(MsgType::kDrain, std::move(w));
}

bool Decode(const Frame& f, DrainMsg* m) {
  WireReader r(f.payload);
  r.U64(&m->token);
  return Finish(f, MsgType::kDrain, r);
}

Frame Encode(const DrainResultMsg& m) {
  WireWriter w;
  w.U64(m.token);
  w.I64(m.accepted);
  w.I64(m.shed);
  w.I64(m.alerts);
  w.I64(m.degraded_blocks);
  w.I64(m.promotions);
  w.I64(m.shadow_blocks);
  return MakeFrame(MsgType::kDrainResult, std::move(w));
}

bool Decode(const Frame& f, DrainResultMsg* m) {
  WireReader r(f.payload);
  r.U64(&m->token);
  r.I64(&m->accepted);
  r.I64(&m->shed);
  r.I64(&m->alerts);
  r.I64(&m->degraded_blocks);
  r.I64(&m->promotions);
  r.I64(&m->shadow_blocks);
  return Finish(f, MsgType::kDrainResult, r);
}

Frame Encode(const ExportStateMsg& m) {
  WireWriter w;
  w.Str(m.tenant);
  return MakeFrame(MsgType::kExportState, std::move(w));
}

bool Decode(const Frame& f, ExportStateMsg* m) {
  WireReader r(f.payload);
  r.Str(&m->tenant);
  return Finish(f, MsgType::kExportState, r);
}

Frame Encode(const ExportResultMsg& m) {
  WireWriter w;
  w.U8(m.found);
  PutBlob(w, m.session);
  return MakeFrame(MsgType::kExportResult, std::move(w));
}

bool Decode(const Frame& f, ExportResultMsg* m) {
  WireReader r(f.payload);
  r.U8(&m->found);
  GetBlob(r, &m->session);
  return Finish(f, MsgType::kExportResult, r);
}

Frame Encode(const ImportStateMsg& m) {
  WireWriter w;
  PutBlob(w, m.session);
  return MakeFrame(MsgType::kImportState, std::move(w));
}

bool Decode(const Frame& f, ImportStateMsg* m) {
  WireReader r(f.payload);
  GetBlob(r, &m->session);
  return Finish(f, MsgType::kImportState, r);
}

Frame Encode(const ImportResultMsg& m) {
  WireWriter w;
  w.U8(m.ok);
  return MakeFrame(MsgType::kImportResult, std::move(w));
}

bool Decode(const Frame& f, ImportResultMsg* m) {
  WireReader r(f.payload);
  r.U8(&m->ok);
  return Finish(f, MsgType::kImportResult, r);
}

Frame Encode(const SnapshotMsg& m) {
  WireWriter w;
  w.U64(m.token);
  return MakeFrame(MsgType::kSnapshot, std::move(w));
}

bool Decode(const Frame& f, SnapshotMsg* m) {
  WireReader r(f.payload);
  r.U64(&m->token);
  return Finish(f, MsgType::kSnapshot, r);
}

Frame Encode(const SnapshotResultMsg& m) {
  WireWriter w;
  w.U64(m.token);
  w.U32(static_cast<uint32_t>(m.sessions.size()));
  for (const SessionBlob& b : m.sessions) PutBlob(w, b);
  return MakeFrame(MsgType::kSnapshotResult, std::move(w));
}

bool Decode(const Frame& f, SnapshotResultMsg* m) {
  WireReader r(f.payload);
  r.U64(&m->token);
  uint32_t count = 0;
  r.U32(&count);
  m->sessions.clear();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    SessionBlob b;
    if (!GetBlob(r, &b)) break;
    m->sessions.push_back(std::move(b));
  }
  return Finish(f, MsgType::kSnapshotResult, r) &&
         m->sessions.size() == count;
}

Frame Encode(const HealthMsg&) { return MakeControlFrame(MsgType::kHealth); }

Frame Encode(const HealthResultMsg& m) {
  WireWriter w;
  w.I64(m.pid);
  w.I64(m.accepted);
  w.I64(m.shed);
  w.I64(m.resident_sessions);
  w.I64(m.stashed_sessions);
  return MakeFrame(MsgType::kHealthResult, std::move(w));
}

bool Decode(const Frame& f, HealthResultMsg* m) {
  WireReader r(f.payload);
  r.I64(&m->pid);
  r.I64(&m->accepted);
  r.I64(&m->shed);
  r.I64(&m->resident_sessions);
  r.I64(&m->stashed_sessions);
  return Finish(f, MsgType::kHealthResult, r);
}

Frame Encode(const MetricsMsg&) { return MakeControlFrame(MsgType::kMetrics); }

Frame Encode(const MetricsResultMsg& m) {
  WireWriter w;
  w.Str(m.json);
  return MakeFrame(MsgType::kMetricsResult, std::move(w));
}

bool Decode(const Frame& f, MetricsResultMsg* m) {
  WireReader r(f.payload);
  r.Str(&m->json);
  return Finish(f, MsgType::kMetricsResult, r);
}

Frame MakeControlFrame(MsgType type) {
  Frame f;
  f.type = static_cast<uint8_t>(type);
  return f;
}

}  // namespace net
}  // namespace imdiff
