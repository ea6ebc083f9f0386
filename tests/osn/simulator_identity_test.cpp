// Identity pin for the ground-truth simulator: a small fixed-seed run is
// reduced to two 64-bit digests, and both are frozen here.
//
//  - The state digest covers what the simulation produced: every node's
//    adjacency row in insertion order (neighbour, creation time, weak
//    flag), every account's full ledger, the pending-request heap in its
//    exact array order and the sorted all-time request-dedup keys.
//  - The checkpoint digest covers the bytes save_checkpoint writes.
//
// Both are taken mid-run (pending requests in flight) and at the end.
// A container or data-structure swap inside Network that keeps the
// simulator's RNG draws and outputs unchanged keeps these digests; a
// change that perturbs the run in any way does not.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/container.h"
#include "io/error.h"
#include "osn/checkpoint.h"
#include "osn/simulator.h"

namespace sybil::osn {
namespace {

// Section ids of the simulator checkpoint (docs/FORMATS.md §Checkpoint).
constexpr std::uint32_t kFirstSection = 1;
constexpr std::uint32_t kSecPending = 10;
constexpr std::uint32_t kSecRequested = 11;
constexpr std::uint32_t kLastSection = 17;

constexpr std::uint64_t kMidHour = 40;

// Frozen from the simulator as it was before Network's request-dedup
// set moved to an open-addressing table.
constexpr std::uint64_t kMidStateDigest = 0x45a55e3240d1aba0;
constexpr std::uint64_t kMidCheckpointDigest = 0xbc928cf29d0f4feb;
constexpr std::uint64_t kEndStateDigest = 0x5e7af8fdf5594033;
constexpr std::uint64_t kEndCheckpointDigest = 0xdedc78638b594656;

GroundTruthConfig pin_config() {
  GroundTruthConfig c;
  c.background_users = 1500;
  c.subject_normals = 60;
  c.subject_sybils = 60;
  c.sim_hours = 80.0;
  c.seed = 20111106;
  return c;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/simulator_identity_" + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// FNV-1a, 64-bit.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  std::uint64_t get() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Pins {
  std::uint64_t state = 0;
  std::uint64_t checkpoint = 0;
  std::size_t pending = 0;
  std::size_t requested = 0;
};

/// Checkpoints `sim` to `path` and digests it. The pending heap array
/// and the request keys are private to Network, so they are read back
/// from their checkpoint sections.
Pins pin(const GroundTruthSimulator& sim, const std::string& path) {
  save_checkpoint(sim, path);
  const std::string ckpt = file_bytes(path);
  Pins out;
  Digest whole;
  whole.bytes(ckpt.data(), ckpt.size());
  out.checkpoint = whole.get();

  const Network& net = sim.network();
  Digest d;
  const auto& g = net.graph();
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    d.value(g.degree(u));
    for (const graph::Neighbor& nb : g.neighbors(u)) {
      d.value(nb.node);
      d.value(nb.created_at);
      d.value(static_cast<std::uint8_t>(nb.weak));
    }
  }
  for (graph::NodeId id = 0; id < net.account_count(); ++id) {
    const RequestLedger::Raw r = net.ledger(id).raw();
    d.value(r.sent);
    d.value(r.sent_accepted);
    d.value(r.received);
    d.value(r.received_accepted);
    d.value(r.current_bucket);
    d.value(r.current_bucket_count);
    d.value(r.active_hours);
    d.value(r.max_hourly);
    d.value(r.first_send);
    d.value(r.last_send);
  }
  const io::ContainerReader reader(path,
                                   io::PayloadKind::kSimulatorCheckpoint);
  const auto pending = reader.section(kSecPending);
  const auto requested = reader.section(kSecRequested);
  d.bytes(pending.data(), pending.size());
  d.bytes(requested.data(), requested.size());
  out.state = d.get();
  out.pending = net.pending_count();
  out.requested = requested.size() / sizeof(std::uint64_t);
  std::remove(path.c_str());
  return out;
}

TEST(SimulatorIdentity, FixedSeedRunMatchesPinnedDigests) {
  GroundTruthSimulator sim(pin_config());
  Pins mid;
  sim.set_hour_hook([&](graph::Time, Network&) {
    if (sim.hours_completed() == kMidHour) mid = pin(sim, temp_path("mid"));
  });
  sim.run();
  sim.set_hour_hook({});
  const Pins end = pin(sim, temp_path("end"));

  // The mid-run pin must see requests in flight, or it pins less than
  // it claims to.
  ASSERT_GT(mid.pending, 0u);
  ASSERT_GT(mid.requested, mid.pending);
  EXPECT_EQ(mid.state, kMidStateDigest);
  EXPECT_EQ(mid.checkpoint, kMidCheckpointDigest);
  EXPECT_EQ(end.state, kEndStateDigest);
  EXPECT_EQ(end.checkpoint, kEndCheckpointDigest);
}

TEST(SimulatorIdentity, CheckpointWithDuplicateRequestKeysIsRejected) {
  GroundTruthSimulator sim(pin_config());
  const std::string good = temp_path("dup_src");
  sim.set_hour_hook([&](graph::Time, Network&) {
    if (sim.hours_completed() == kMidHour) save_checkpoint(sim, good);
  });
  sim.run();

  // Rebuild the file section by section, with the last request key
  // replaced by a copy of the first: the count still matches the meta
  // section and every CRC is valid, so only the duplicate is wrong.
  const io::ContainerReader reader(good,
                                   io::PayloadKind::kSimulatorCheckpoint);
  io::ContainerWriter writer(io::PayloadKind::kSimulatorCheckpoint);
  for (std::uint32_t id = kFirstSection; id <= kLastSection; ++id) {
    ASSERT_TRUE(reader.has_section(id)) << id;
    const auto s = reader.section(id);
    std::vector<std::byte> payload(s.begin(), s.end());
    if (id == kSecRequested) {
      ASSERT_GE(payload.size(), 2 * sizeof(std::uint64_t));
      std::memcpy(payload.data() + payload.size() - sizeof(std::uint64_t),
                  payload.data(), sizeof(std::uint64_t));
    }
    writer.add_section(id, std::move(payload));
  }
  const std::string bad = temp_path("dup_bad");
  writer.commit(bad);
  std::remove(good.c_str());
  try {
    (void)load_checkpoint(bad);
    ADD_FAILURE() << "duplicate request keys were accepted";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kFormatViolation);
    EXPECT_NE(std::string(e.what()).find("duplicate keys"),
              std::string::npos)
        << e.what();
  }
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace sybil::osn
