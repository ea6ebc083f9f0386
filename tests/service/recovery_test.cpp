// Recovery-determinism suite (docs/ROBUSTNESS.md §Recovery model):
//
//   * kill-and-recover at EVERY durability boundary of a 500-account
//     ground-truth run — final flag verdicts and the accounting JSON
//     are byte-identical to the uninterrupted run, including the shed
//     breakdown (the run deliberately overloads so tier transitions
//     and shedding are part of what must replay exactly);
//   * the same, pinned across SYBIL_THREADS=1 and 8;
//   * a corrupt newest checkpoint falls back to the previous
//     generation with a typed RecoveryReport — never a crash, never
//     silent loss;
//   * recovery with no checkpoint at all (cold start) rebuilds from
//     the full WAL;
//   * a generation in the v3 layout (with the retired section 4)
//     restores and resumes byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/detector_state.h"
#include "core/parallel.h"
#include "faults/process_faults.h"
#include "io/container.h"
#include "osn/network.h"
#include "service/supervisor.h"
#include "service/workload.h"
#include "stats/rng.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

class ServiceRecovery : public ::testing::Test {
 protected:
  // The crash sweep commits thousands of checkpoints to a throwaway
  // dir; the durability knob exists exactly so such runs skip fsync.
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sybil_svc_" + name;
  fs::remove_all(dir);
  return dir;
}

/// A 500-account logged network exercising every event type: seeded
/// friendships, background chatter, three burst senders hot enough to
/// cross the (relaxed, see make_options) threshold rule even while the
/// overloaded service sheds part of the stream, mixed accept/reject,
/// and mid-stream bans.
std::vector<osn::Event> build_log(std::uint64_t seed) {
  osn::Network net(/*keep_event_log=*/true);
  stats::Rng rng(seed);
  constexpr int kAccounts = 500;
  for (int i = 0; i < kAccounts; ++i) net.add_account(osn::Account{});
  for (int i = 0; i < 60; ++i) {
    net.add_friendship(
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        -1.0 * static_cast<double>(i));
  }
  for (double t = 0.0; t < 4.0; t += 1.0) {
    for (int k = 0; k < 15; ++k) {  // background chatter
      net.send_request(
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
          t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
    }
    for (int s = 0; s < 3; ++s) {  // Sybil bursts
      for (int k = 0; k < 25; ++k) {
        net.send_request(
            static_cast<osn::NodeId>(10 + s),
            static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
            t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
      }
    }
    net.process_responses(t + 1.0, [&](osn::NodeId, osn::NodeId,
                                       std::uint8_t) {
      return rng.bernoulli(0.4);
    });
    if (t == 2.0) {
      net.ban(3, t);
      net.ban(7, t);
    }
  }
  net.process_responses(1e9, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
    return rng.bernoulli(0.4);
  });
  return net.log().events();
}

ServiceOptions make_options(const std::string& dir, CrashHook hook = {}) {
  ServiceOptions o;
  o.dir = dir;
  // In-process crash simulation: buffered bytes survive the simulated
  // death (abandoned-object close), so fsync is pure overhead here.
  o.wal_fsync = WalFsync::kNever;
  o.wal_segment_records = 48;
  o.checkpoint_every = 256;
  o.checkpoint_retain = 2;
  o.crash_hook = std::move(hook);
  // Watermarks the driver's pump cadence actually crosses, so tier
  // transitions and shedding are inside the determinism property.
  o.detector.overload.queue_capacity = 260;
  o.detector.overload.shed_watermark = 120;
  o.detector.overload.sweep_only_watermark = 200;
  o.detector.overload.resume_watermark = 60;
  o.detector.ingest.watermark_hours = 500.0;  // absorb log inversions
  // Relaxed rule so the burst senders flag even though shedding thins
  // their applied event stream.
  o.detector.rule.invite_rate_min = 4.0;
  o.detector.rule.min_requests = 5;
  return o;
}

/// Index-aligned driver: offers log[offer_from..N) with a fixed pump
/// cadence keyed to the event index. Alignment by index is what makes
/// queue depth — and therefore every admission decision — a pure
/// function of stream position.
///
/// After a crash, offers resume at the recovery report's next_index
/// (everything below it is already durable), but the pump schedule
/// must re-run from the recovered *checkpoint* position: pumps between
/// the checkpoint and the crash only touched in-memory state that died
/// with the process, so a cursor-replaying upstream re-applies them.
/// Re-pumping drains the identical FIFO prefix the lost pumps drained
/// (the replayed backlog is a superset of the live queue at each
/// schedule point), which re-aligns queue depth with the uninterrupted
/// run before the first post-crash admission decision.
void drive(ServiceSupervisor& s, const std::vector<osn::Event>& log,
           std::uint64_t offer_from, std::uint64_t pump_from = 0) {
  for (std::uint64_t i = std::min(offer_from, pump_from); i < log.size();
       ++i) {
    if (i >= offer_from) s.offer(log[i], i);
    if (i >= pump_from && i % 7 == 6) s.pump(3);
  }
  s.flush();
}

struct RunResult {
  std::string stats;
  core::FlagBatch flags;
  std::uint64_t boundaries = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t tier_transitions = 0;
};

/// The uninterrupted reference run, with a counting hook so the crash
/// sweep knows how many boundaries the schedule crosses. (The hook
/// switches WAL appends to two-phase writes, the same I/O pattern the
/// crashing runs see; detector state is unaffected.)
RunResult run_baseline(const std::vector<osn::Event>& log,
                       const std::string& dir) {
  RunResult result;
  const ServiceOptions opts = make_options(
      dir, [&result](CrashPoint) { ++result.boundaries; });
  ServiceSupervisor s(opts);
  const RecoveryReport report = s.start();
  EXPECT_TRUE(report.cold_start);
  drive(s, log, 0);
  EXPECT_TRUE(s.accounting_ok());
  result.stats = s.stats_json();
  result.flags = s.take_flagged();
  result.shed_total = s.shed_total();
  result.tier_transitions = s.tier_transitions();
  return result;
}

void expect_flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].account, b[i].account) << i;
    ASSERT_DOUBLE_EQ(a[i].flagged_at, b[i].flagged_at) << i;
    ASSERT_DOUBLE_EQ(a[i].features.invite_rate_short,
                     b[i].features.invite_rate_short)
        << i;
    ASSERT_DOUBLE_EQ(a[i].features.outgoing_accept_ratio,
                     b[i].features.outgoing_accept_ratio)
        << i;
    ASSERT_DOUBLE_EQ(a[i].features.clustering_coefficient,
                     b[i].features.clustering_coefficient)
        << i;
  }
}

/// Runs to the b-th boundary, dies there, recovers in a fresh
/// supervisor, finishes the stream, and returns the final state.
RunResult crash_recover_run(const std::vector<osn::Event>& log,
                            const std::string& dir, std::uint64_t b) {
  faults::CrashInjector crash(b);
  auto victim = std::make_unique<ServiceSupervisor>(
      make_options(dir, std::ref(crash)));
  bool crashed = false;
  try {
    victim->start();
    drive(*victim, log, 0);
  } catch (const faults::InjectedCrash&) {
    crashed = true;
  }
  EXPECT_TRUE(crashed) << "boundary " << b << " never crossed";
  victim.reset();  // simulated process death

  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_TRUE(recovered.accounting_ok()) << "boundary " << b;
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_TRUE(recovered.accounting_ok()) << "boundary " << b;
  RunResult result;
  result.stats = recovered.stats_json();
  result.flags = recovered.take_flagged();
  return result;
}

TEST_F(ServiceRecovery, ByteIdenticalAtEveryCrashPoint) {
  const std::vector<osn::Event> log = build_log(7);
  ASSERT_GT(log.size(), 500u);
  const RunResult base = run_baseline(log, fresh_dir("base"));
  ASSERT_GT(base.boundaries, 2 * log.size());  // half + append per offer
  ASSERT_FALSE(base.flags.records.empty())
      << "the run must actually flag accounts for the comparison to bite";
  ASSERT_GT(base.shed_total, 0u) << "overload must engage";
  ASSERT_GT(base.tier_transitions, 0u);

  const std::string dir = fresh_dir("sweep");
  for (std::uint64_t b = 0; b < base.boundaries; ++b) {
    fs::remove_all(dir);
    const RunResult run = crash_recover_run(log, dir, b);
    ASSERT_EQ(run.stats, base.stats) << "crash boundary " << b;
    expect_flags_equal(run.flags, base.flags);
    if (::testing::Test::HasFailure()) FAIL() << "crash boundary " << b;
  }
}

/// The recovery path is thread-count-invariant: a mid-run crash
/// recovered at SYBIL_THREADS=1 and at 8 lands on the same bytes.
TEST_F(ServiceRecovery, ByteIdenticalAcrossThreadCounts) {
  const std::vector<osn::Event> log = build_log(11);
  const RunResult base = run_baseline(log, fresh_dir("thr_base"));
  const std::uint64_t mid = base.boundaries / 2;

  core::set_thread_count(1);
  const RunResult one = crash_recover_run(log, fresh_dir("thr1"), mid);
  core::set_thread_count(8);
  const RunResult eight = crash_recover_run(log, fresh_dir("thr8"), mid);
  core::set_thread_count(0);  // back to automatic

  EXPECT_EQ(one.stats, base.stats);
  EXPECT_EQ(eight.stats, base.stats);
  expect_flags_equal(one.flags, base.flags);
  expect_flags_equal(eight.flags, base.flags);
}

/// A checkpoint taken while the reorder buffer holds both an in-order
/// run and out-of-order stragglers restores into a detector that
/// releases the same events in the same order: after a restart and the
/// rest of the stream, flags, stats_json and the detector's exact state
/// match the run that never stopped.
TEST_F(ServiceRecovery, CheckpointWithRunAndStragglersResumesIdentically) {
  WorkloadOptions w;
  w.accounts = 300;
  w.events = 3000;
  w.hours = 30.0;
  w.seed = 5;
  w.burst_senders = 3;
  std::vector<osn::Event> log = synthetic_workload(w);
  for (std::size_t i = 0; i < log.size(); i += 7) {
    log[i].time = std::max(0.0, log[i].time - 1.0);  // 1 h late
  }
  constexpr std::size_t kCut = 1500;

  struct Outcome {
    RunResult run;
    std::vector<std::byte> state;  // the detector's exact state
  };
  const auto run = [&](const std::string& dir, bool restart) {
    ServiceOptions o;
    o.dir = dir;
    o.wal_fsync = WalFsync::kNever;
    o.checkpoint_every = 0;
    o.detector.ingest.watermark_hours = 6.0;  // releases start mid-stream
    o.detector.rule.invite_rate_min = 4.0;
    o.detector.rule.outgoing_accept_max = 0.5;
    o.detector.rule.min_requests = 5;
    auto s = std::make_unique<ServiceSupervisor>(o);
    s->start();
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (i == kCut) {
        s->pump();
        const core::ReorderBuffer& held = s->detector().reorder_buffer();
        EXPECT_GT(held.stragglers(), 0u) << "the heap must hold stragglers";
        EXPECT_LT(held.stragglers(), held.size()) << "and the run entries";
        s->checkpoint_now();
        if (restart) {
          s = std::make_unique<ServiceSupervisor>(o);
          const RecoveryReport report = s->start();
          EXPECT_FALSE(report.cold_start);
          EXPECT_EQ(report.records_replayed, 0u);
        }
      }
      s->offer(log[i], i);
      if (i % 16 == 15) s->pump();
    }
    s->flush();
    Outcome out;
    out.run.stats = s->stats_json();
    out.run.flags = s->take_flagged();
    out.state = core::serialize_stream_state(s->detector());
    return out;
  };
  const Outcome base = run(fresh_dir("stragglers_base"), false);
  const Outcome resumed = run(fresh_dir("stragglers_resumed"), true);
  ASSERT_FALSE(base.run.flags.records.empty())
      << "the run must actually flag accounts for the comparison to bite";
  EXPECT_EQ(resumed.run.stats, base.run.stats);
  expect_flags_equal(resumed.run.flags, base.run.flags);
  EXPECT_TRUE(resumed.state == base.state) << "detector state diverged";
}

TEST_F(ServiceRecovery, CorruptNewestCheckpointFallsBackAGeneration) {
  const std::vector<osn::Event> log = build_log(13);
  const RunResult base = run_baseline(log, fresh_dir("corrupt_base"));

  const std::string dir = fresh_dir("corrupt");
  {
    ServiceSupervisor s(make_options(dir));
    s.start();
    drive(s, log, 0);
  }
  const auto generations = list_checkpoints(dir + "/ckpt");
  ASSERT_EQ(generations.size(), 2u);  // retention holds
  faults::tear_file_tail(generations.back().second, /*seed=*/99);

  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.generations_discarded, 1u);
  EXPECT_EQ(report.checkpoint_file, generations.front().second);
  EXPECT_EQ(report.checkpoint_position, generations.front().first);
  EXPECT_GT(report.records_replayed, 0u);
  EXPECT_TRUE(recovered.accounting_ok());
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
}

TEST_F(ServiceRecovery, ColdStartReplaysTheFullWal) {
  const std::vector<osn::Event> log = build_log(17);
  const RunResult base = run_baseline(log, fresh_dir("cold_base"));

  const std::string dir = fresh_dir("cold");
  {
    ServiceOptions opts = make_options(dir);
    opts.checkpoint_every = 0;  // never checkpoint...
    ServiceSupervisor s(opts);
    s.start();
    for (std::uint64_t i = 0; i < log.size(); ++i) {
      s.offer(log[i], i);
      if (i % 7 == 6) s.pump(3);
    }
    // ...and die without flush(): everything must come back from WAL.
  }
  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_TRUE(report.cold_start);
  EXPECT_EQ(report.records_replayed, log.size());
  EXPECT_EQ(report.next_index, log.size());
  EXPECT_TRUE(recovered.accounting_ok());
  // offer_from == N: only the pump schedule re-runs over the backlog.
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);
}

std::uint32_t meta_version(const io::ContainerReader& ckpt) {
  std::uint32_t version = 0;
  std::memcpy(&version, ckpt.section(1).data(), sizeof version);
  return version;
}

/// Rewrites a v4 generation in place in the v3 layout (docs/FORMATS.md
/// §5.4): meta version word 3 plus a section 4 blob, every other
/// section byte for byte.
void rewrite_as_v3(const std::string& path) {
  std::vector<std::byte> sections[6];
  {
    const io::ContainerReader v4(path, io::PayloadKind::kServiceCheckpoint);
    ASSERT_EQ(meta_version(v4), 4u);
    ASSERT_FALSE(v4.has_section(4));
    for (std::uint32_t id : {1u, 2u, 3u, 5u}) {
      if (!v4.has_section(id)) continue;
      const auto bytes = v4.section(id);
      sections[id].assign(bytes.begin(), bytes.end());
    }
  }
  const std::uint32_t v3 = 3;
  std::memcpy(sections[1].data(), &v3, sizeof v3);
  // A v3 reader parsed section 4 as the real-time detector's state;
  // today's reader never looks inside it, so any bytes stand in.
  sections[4] = {std::byte{0x52}, std::byte{0x33}};
  io::ContainerWriter writer(io::PayloadKind::kServiceCheckpoint);
  for (std::uint32_t id = 1; id <= 5; ++id) {
    if (id < 5 || !sections[id].empty()) {
      writer.add_section(id, std::move(sections[id]));
    }
  }
  writer.commit(path, io::SyncMode::kNever);
}

/// Upgrade path: a service that checkpointed under v3 restarts on this
/// build, resumes from that generation (section 4 skipped) and lands on
/// the bytes of a run that never stopped; its next checkpoint is v4.
TEST_F(ServiceRecovery, V3CheckpointUpgradesAndResumesIdentically) {
  const std::vector<osn::Event> log = build_log(19);
  const RunResult base = run_baseline(log, fresh_dir("v3_base"));

  const std::string dir = fresh_dir("v3_upgrade");
  const std::uint64_t cut = 400;  // past the checkpoint at WAL index 256
  ASSERT_GT(log.size(), cut + 100);
  {
    ServiceSupervisor s(make_options(dir));
    s.start();
    for (std::uint64_t i = 0; i < cut; ++i) {
      s.offer(log[i], i);
      if (i % 7 == 6) s.pump(3);
    }
    // Dies here without flush(): the newest generation is mid-run.
  }
  const auto generations = list_checkpoints(dir + "/ckpt");
  ASSERT_FALSE(generations.empty());
  for (const auto& generation : generations) {
    ASSERT_NO_FATAL_FAILURE(rewrite_as_v3(generation.second));
  }

  ServiceSupervisor recovered(make_options(dir));
  const RecoveryReport report = recovered.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.generations_discarded, 0u);
  EXPECT_EQ(report.checkpoint_file, generations.back().second);
  EXPECT_GT(report.records_replayed, 0u);
  EXPECT_TRUE(recovered.accounting_ok());
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_EQ(recovered.stats_json(), base.stats);
  expect_flags_equal(recovered.take_flagged(), base.flags);

  // drive() ends in flush(), whose checkpoint is written as v4.
  const io::ContainerReader newest(list_checkpoints(dir + "/ckpt").back().second,
                                   io::PayloadKind::kServiceCheckpoint);
  EXPECT_EQ(meta_version(newest), 4u);
  EXPECT_FALSE(newest.has_section(4));
}

}  // namespace
}  // namespace sybil::service
