// Shard-transport tests (src/net): wire serialization round-trips and
// truncation safety, framing over a real socketpair, fail-fast socket
// binding, seeded dial retries, and the ClientChannel reconnect-and-resend
// recovery under injected transport faults (exactly-once delivery of frames
// whose write failed).

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/frame.h"
#include "net/messages.h"
#include "net/socket.h"
#include "net/wire.h"
#include "utils/fault.h"

namespace imdiff {
namespace {

std::string TestSocketPath(const char* name) {
  return testing::TempDir() + "imdiff_net_" + name + ".sock";
}

BackoffPolicy FastBackoff() {
  BackoffPolicy policy;
  policy.base_seconds = 1e-4;
  return policy;
}

TEST(WireTest, RoundTripsEveryScalarAndContainer) {
  net::WireWriter w;
  w.U8(7);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.F32(1.5f);
  w.F64(-2.25);
  w.Str("tenant-000001");
  w.Bytes({0, 255, 128});
  w.FloatVec({0.5f, -0.25f});

  net::WireReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  std::string s;
  std::vector<uint8_t> b;
  std::vector<float> fv;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I64(&i64));
  EXPECT_TRUE(r.F32(&f32));
  EXPECT_TRUE(r.F64(&f64));
  EXPECT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.Bytes(&b));
  EXPECT_TRUE(r.FloatVec(&fv));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "tenant-000001");
  EXPECT_EQ(b, (std::vector<uint8_t>{0, 255, 128}));
  EXPECT_EQ(fv, (std::vector<float>{0.5f, -0.25f}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, TruncatedInputFailsWithoutAborting) {
  net::WireWriter w;
  w.Str("hello");
  w.U64(99);
  const std::vector<uint8_t>& bytes = w.bytes();
  // Every strict prefix must fail cleanly on some read, never crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    net::WireReader r(bytes.data(), cut);
    std::string s;
    uint64_t v = 0;
    const bool full = r.Str(&s) && r.U64(&v);
    EXPECT_FALSE(full) << "prefix of " << cut << " bytes decoded fully";
    EXPECT_FALSE(r.ok());
  }
}

TEST(MessagesTest, SubmitAndScoredBlockRoundTrip) {
  net::SubmitMsg submit;
  submit.tenant = "tenant-000042";
  submit.sample = {1.0f, 2.0f, 3.0f};
  submit.observed = {1, 0, 1};
  net::SubmitMsg submit2;
  ASSERT_TRUE(net::Decode(net::Encode(submit), &submit2));
  EXPECT_EQ(submit2.tenant, submit.tenant);
  EXPECT_EQ(submit2.sample, submit.sample);
  EXPECT_EQ(submit2.observed, submit.observed);

  net::ScoredBlockMsg block;
  block.tenant = "tenant-000042";
  block.block_index = 3;
  block.start = 150;
  block.degrade_level = 1;
  block.latency_seconds = 0.125;
  block.scores = {0.5f, 0.75f};
  net::ScoredBlockMsg block2;
  ASSERT_TRUE(net::Decode(net::Encode(block), &block2));
  EXPECT_EQ(block2.tenant, block.tenant);
  EXPECT_EQ(block2.block_index, block.block_index);
  EXPECT_EQ(block2.start, block.start);
  EXPECT_EQ(block2.degrade_level, block.degrade_level);
  EXPECT_EQ(block2.latency_seconds, block.latency_seconds);
  EXPECT_EQ(block2.scores, block.scores);
}

TEST(MessagesTest, PublishAndSnapshotRoundTrip) {
  net::PublishMsg publish;
  publish.name = "latency";
  publish.checkpoint_path = "/tmp/model.ckpt";
  publish.num_features = 6;
  publish.config_seed = 42;
  publish.stats_min = {-1.0f, 0.0f};
  publish.stats_max = {1.0f, 2.0f};
  net::PublishMsg publish2;
  ASSERT_TRUE(net::Decode(net::Encode(publish), &publish2));
  EXPECT_EQ(publish2.name, publish.name);
  EXPECT_EQ(publish2.checkpoint_path, publish.checkpoint_path);
  EXPECT_EQ(publish2.num_features, publish.num_features);
  EXPECT_EQ(publish2.config_seed, publish.config_seed);
  EXPECT_EQ(publish2.stats_min, publish.stats_min);
  EXPECT_EQ(publish2.stats_max, publish.stats_max);

  net::SnapshotResultMsg snap;
  snap.token = 9;
  net::SessionBlob blob;
  blob.tenant = "tenant-000001";
  blob.state = {1, 2, 3, 4};
  snap.sessions.push_back(blob);
  blob.tenant = "tenant-000002";
  blob.state = {};
  snap.sessions.push_back(blob);
  net::SnapshotResultMsg snap2;
  ASSERT_TRUE(net::Decode(net::Encode(snap), &snap2));
  EXPECT_EQ(snap2.token, 9u);
  ASSERT_EQ(snap2.sessions.size(), 2u);
  EXPECT_EQ(snap2.sessions[0].tenant, "tenant-000001");
  EXPECT_EQ(snap2.sessions[0].state, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(snap2.sessions[1].tenant, "tenant-000002");
  EXPECT_TRUE(snap2.sessions[1].state.empty());
}

TEST(MessagesTest, DecodeRejectsWrongTypeAndTruncation) {
  net::SubmitMsg submit;
  submit.tenant = "t";
  submit.sample = {1.0f};
  net::Frame frame = net::Encode(submit);

  // Wrong frame type: a submit payload must not decode as a scored block.
  net::ScoredBlockMsg block;
  EXPECT_FALSE(net::Decode(frame, &block));

  // Truncated payloads are rejected as a unit, never half-applied.
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    net::Frame truncated;
    truncated.type = frame.type;
    truncated.payload.assign(frame.payload.begin(),
                             frame.payload.begin() + cut);
    net::SubmitMsg out;
    EXPECT_FALSE(net::Decode(truncated, &out)) << "cut at " << cut;
  }

  // Trailing garbage means a framing bug upstream: also rejected.
  net::Frame padded = frame;
  padded.payload.push_back(0);
  net::SubmitMsg out;
  EXPECT_FALSE(net::Decode(padded, &out));
}

TEST(FrameTest, RoundTripsOverSocketpairAndDiscardsTruncatedTail) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Frame frame;
  frame.type = static_cast<uint8_t>(net::MsgType::kSubmit);
  frame.payload = {10, 20, 30};
  ASSERT_TRUE(net::WriteFrame(fds[0], frame));

  net::Frame got;
  ASSERT_EQ(net::ReadFrame(fds[1], &got), net::ReadResult::kOk);
  EXPECT_EQ(got.type, frame.type);
  EXPECT_EQ(got.payload, frame.payload);

  // A short write (EOF mid-frame) must surface as kClosed, not as a frame.
  const std::vector<uint8_t> bytes = net::EncodeFrame(frame);
  ASSERT_TRUE(net::SendAll(fds[0], bytes.data(), bytes.size() - 2));
  ::close(fds[0]);
  EXPECT_EQ(net::ReadFrame(fds[1], &got), net::ReadResult::kClosed);
  ::close(fds[1]);
}

TEST(SocketTest, ListenerRefusesToClobberExistingPath) {
  const std::string path = TestSocketPath("stale");
  std::string error;
  net::UnixListener first;
  ASSERT_TRUE(first.Create(path, &error)) << error;
  EXPECT_TRUE(net::PathExists(path));

  // Second bind on the same live path fails fast with a descriptive error.
  net::UnixListener second;
  EXPECT_FALSE(second.Create(path, &error));
  EXPECT_FALSE(error.empty());

  // Close unlinks, so a fresh bind succeeds.
  first.Close();
  EXPECT_FALSE(net::PathExists(path));
  net::UnixListener third;
  EXPECT_TRUE(third.Create(path, &error)) << error;
  third.Close();
}

TEST(SocketTest, DialRetryGivesUpOnMissingPath) {
  const std::string path = TestSocketPath("nobody_home");
  EXPECT_EQ(net::DialUnixRetry(path, FastBackoff(), /*seed=*/5), -1);
}

TEST(SocketTest, ProbeSocketDirCreatesAndValidates) {
  const std::string dir = testing::TempDir() + "imdiff_net_probe_dir";
  std::string error;
  EXPECT_TRUE(net::ProbeSocketDir(dir, &error)) << error;
  EXPECT_TRUE(net::PathExists(dir));
  // Probing again (the directory now exists) still succeeds.
  EXPECT_TRUE(net::ProbeSocketDir(dir, &error)) << error;
  // A path that cannot be created fails with a description.
  EXPECT_FALSE(net::ProbeSocketDir("/proc/imdiff_cannot_write_here", &error));
  EXPECT_FALSE(error.empty());
}

// Runs a ServerChannel dispatch loop that records every kSubmit payload it
// sees, in order, until Close. The worker side of the channel tests.
struct RecordingServer {
  explicit RecordingServer(const std::string& path) {
    std::string error;
    net::UnixListener listener;
    EXPECT_TRUE(listener.Create(path, &error)) << error;
    channel = std::make_unique<net::ServerChannel>(std::move(listener));
    net::HelloMsg hello;
    hello.shard_id = 0;
    channel->set_hello(net::Encode(hello));
    thread = std::thread([this] {
      net::Frame frame;
      while (channel->Next(&frame) == net::ServerChannel::Status::kFrame) {
        if (frame.type != static_cast<uint8_t>(net::MsgType::kSubmit)) continue;
        std::lock_guard<std::mutex> lock(mu);
        payloads.push_back(frame.payload);
      }
    });
  }
  ~RecordingServer() {
    channel->Close();
    thread.join();
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return payloads.size();
  }

  std::unique_ptr<net::ServerChannel> channel;
  std::thread thread;
  std::mutex mu;
  std::vector<std::vector<uint8_t>> payloads;
};

// Sends N frames through a ClientChannel against `spec`-injected transport
// faults and expects exactly-once, in-order delivery: the reader redials and
// the sender resends the frame whose write failed, and frames that were
// fully written are never resent.
void ExpectExactlyOnceUnderFaults(const char* name, const std::string& spec) {
  const std::string path = TestSocketPath(name);
  RecordingServer server(path);

  FaultRegistry::Global().Configure(spec, /*seed=*/17);
  net::ClientChannel client(path, FastBackoff(), /*seed=*/17,
                            /*inject_faults=*/true);
  ASSERT_TRUE(client.Connect());
  // The reader owns recovery: pump it like the router's reader thread does.
  std::thread reader([&client] {
    net::Frame frame;
    while (client.Recv(&frame) == net::ClientChannel::Status::kFrame) {
    }
  });

  constexpr int kFrames = 8;
  for (int i = 0; i < kFrames; ++i) {
    net::Frame frame;
    frame.type = static_cast<uint8_t>(net::MsgType::kSubmit);
    frame.payload = {static_cast<uint8_t>(i)};
    ASSERT_TRUE(client.Send(frame)) << "frame " << i;
  }
  // Delivery is asynchronous past the injected fault (reconnect + resend).
  for (int spin = 0; spin < 2000 && server.count() < kFrames; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FaultRegistry::Global().Configure("", 0);
  client.Close();
  reader.join();

  std::lock_guard<std::mutex> lock(server.mu);
  ASSERT_EQ(server.payloads.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(server.payloads[i],
              std::vector<uint8_t>{static_cast<uint8_t>(i)})
        << "frame " << i;
  }
}

TEST(ChannelTest, InjectedDropIsRedeliveredExactlyOnce) {
  ExpectExactlyOnceUnderFaults("drop", "transport.drop:#3");
}

TEST(ChannelTest, InjectedShortWriteIsRedeliveredExactlyOnce) {
  ExpectExactlyOnceUnderFaults("short_write", "transport.short_write:#2");
}

TEST(ChannelTest, ServerSendsQueuedWhileDisconnectedAreFlushedOnAccept) {
  const std::string path = TestSocketPath("queued");
  std::string error;
  net::UnixListener listener;
  ASSERT_TRUE(listener.Create(path, &error)) << error;
  net::ServerChannel server(std::move(listener));
  net::HelloMsg hello;
  hello.shard_id = 4;
  server.set_hello(net::Encode(hello));

  // No connection yet: the scored block is queued, not lost.
  net::Frame queued;
  queued.type = static_cast<uint8_t>(net::MsgType::kScoredBlock);
  queued.payload = {9, 9};
  EXPECT_TRUE(server.Send(queued));

  std::thread dispatcher([&server] {
    net::Frame frame;
    while (server.Next(&frame) == net::ServerChannel::Status::kFrame) {
    }
  });

  net::ClientChannel client(path, FastBackoff(), /*seed=*/1,
                            /*inject_faults=*/false);
  ASSERT_TRUE(client.Connect());
  // Hello first (the shard-id handshake), then the queued frame.
  net::Frame frame;
  ASSERT_EQ(client.Recv(&frame), net::ClientChannel::Status::kFrame);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(net::MsgType::kHello));
  net::HelloMsg got;
  ASSERT_TRUE(net::Decode(frame, &got));
  EXPECT_EQ(got.shard_id, 4);
  ASSERT_EQ(client.Recv(&frame), net::ClientChannel::Status::kFrame);
  EXPECT_EQ(frame.type, static_cast<uint8_t>(net::MsgType::kScoredBlock));
  EXPECT_EQ(frame.payload, (std::vector<uint8_t>{9, 9}));

  client.Close();
  server.Close();
  dispatcher.join();
}

}  // namespace
}  // namespace imdiff
