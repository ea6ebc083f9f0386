// Reorder-buffer properties (src/core/reorder_buffer.h):
//
//   * the run-plus-heap buffer releases exactly what a single
//     std::priority_queue ordered by (time, seq) would, step by step,
//     for in-order, skewed, equal-timestamp and adversarial arrivals;
//   * StreamDetector's hardened ingest over the same arrival patterns
//     (plus redeliveries and time regressions) matches a priority-queue
//     reference model at every step: buffered(), the accounting
//     identity, and — through a trusted replay of the reference's
//     release sequence — every account's features and flags;
//   * the detector-state blob writes the buffer in (time, seq) order and
//     restores identically from any permutation of that section.
#include "core/reorder_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "core/detector_state.h"
#include "core/stream_detector.h"
#include "stats/rng.h"

namespace sybil::core {
namespace {

using Entry = ReorderBuffer::Entry;

struct Later {
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    return ReorderBuffer::before(b, a);
  }
};
using ReferenceQueue = std::priority_queue<Entry, std::vector<Entry>, Later>;

enum class Pattern { kInOrder, kBoundedSkew, kEqualTimes, kReversed, kMixed };

const char* name(Pattern p) {
  switch (p) {
    case Pattern::kInOrder: return "in-order";
    case Pattern::kBoundedSkew: return "bounded-skew";
    case Pattern::kEqualTimes: return "equal-times";
    case Pattern::kReversed: return "reversed";
    case Pattern::kMixed: return "mixed";
  }
  return "?";
}

constexpr Pattern kPatterns[] = {Pattern::kInOrder, Pattern::kBoundedSkew,
                                 Pattern::kEqualTimes, Pattern::kReversed,
                                 Pattern::kMixed};

/// Event time of arrival i under a pattern. Seqs are arrival indices,
/// so equal-time arrivals exercise the seq tie-break.
double arrival_time(Pattern p, std::size_t i, stats::Rng& rng) {
  const double t = 0.05 * static_cast<double>(i);
  switch (p) {
    case Pattern::kInOrder: return t;
    case Pattern::kBoundedSkew: return t - rng.uniform(0.0, 2.0);
    case Pattern::kEqualTimes: return static_cast<double>(i / 16);
    case Pattern::kReversed: return 100.0 - t;
    case Pattern::kMixed:
      return rng.bernoulli(0.2) ? t - rng.uniform(0.0, 6.0) : t;
  }
  return t;
}

/// A relational event among a few accounts, so releases in the wrong
/// order change first-friend sets, clustering and flag times.
osn::Event random_event(stats::Rng& rng, double time) {
  static constexpr osn::EventType kTypes[] = {
      osn::EventType::kRequestSent, osn::EventType::kRequestSent,
      osn::EventType::kRequestAccepted, osn::EventType::kRequestRejected,
      osn::EventType::kFriendshipSeeded};
  const auto a = static_cast<osn::NodeId>(rng.uniform_index(12));
  auto b = static_cast<osn::NodeId>(rng.uniform_index(11));
  if (b >= a) ++b;
  return {kTypes[rng.uniform_index(5)], a, b, time};
}

bool same_entry(const Entry& a, const Entry& b) {
  return a.seq == b.seq && a.event.time == b.event.time &&
         a.event.type == b.event.type && a.event.actor == b.event.actor &&
         a.event.subject == b.event.subject;
}

TEST(ReorderBuffer, ReleasesLikeAPriorityQueueAtEveryStep) {
  for (const Pattern pattern : kPatterns) {
    stats::Rng rng(17);
    ReorderBuffer buf;
    ReferenceQueue ref;
    double high = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < 3000; ++i) {
      const Entry e{i, random_event(rng, arrival_time(pattern, i, rng))};
      buf.push(e);
      ref.push(e);
      high = std::max(high, e.event.time);
      // Release like the detector does: everything at or below a low
      // watermark trailing the newest time.
      while (!ref.empty() && ref.top().event.time <= high - 3.0) {
        ASSERT_FALSE(buf.empty());
        ASSERT_TRUE(same_entry(buf.top(), ref.top()))
            << name(pattern) << " step " << i;
        buf.pop();
        ref.pop();
      }
      ASSERT_EQ(buf.size(), ref.size()) << name(pattern) << " step " << i;
      if (!ref.empty()) {
        ASSERT_TRUE(same_entry(buf.top(), ref.top()))
            << name(pattern) << " step " << i;
      }
    }
    if (pattern == Pattern::kInOrder || pattern == Pattern::kEqualTimes) {
      EXPECT_EQ(buf.stragglers(), 0u) << "in-order arrivals never hit the heap";
    } else {
      EXPECT_GT(buf.stragglers(), 0u) << name(pattern);
    }
    const std::vector<Entry> sorted = buf.sorted();
    ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                               ReorderBuffer::before));
    for (const Entry& e : sorted) {
      ASSERT_TRUE(same_entry(buf.top(), e));
      ASSERT_TRUE(same_entry(ref.top(), e));
      buf.pop();
      ref.pop();
    }
    EXPECT_TRUE(buf.empty());
  }
}

/// The hardened-ingest contract restated over a std::priority_queue:
/// structural validity aside, an arrival is a duplicate while its seq
/// was accepted with an event time at or above the low watermark, a
/// time regression when it is older than the low watermark, and
/// otherwise buffered; everything at or below the low watermark
/// releases in (time, seq) order.
struct ReferenceIngest {
  explicit ReferenceIngest(double w) : watermark(w) {}

  double watermark;
  double high = -std::numeric_limits<double>::infinity();
  ReferenceQueue queue;
  std::map<std::uint64_t, double> accepted;  // seq -> event time
  std::uint64_t applied = 0, deduped = 0, regressed = 0;
  std::vector<osn::Event> released;

  void ingest(const osn::Event& e, std::uint64_t seq) {
    const double low = high - watermark;
    const auto it = accepted.find(seq);
    if (it != accepted.end() && it->second >= low) {
      ++deduped;
      return;
    }
    if (e.time < low) {
      ++regressed;
      return;
    }
    accepted[seq] = e.time;
    queue.push(Entry{seq, e});
    high = std::max(high, e.time);
    release(high - watermark);
  }
  void release(double bound) {
    while (!queue.empty() && queue.top().event.time <= bound) {
      released.push_back(queue.top().event);
      queue.pop();
      ++applied;
    }
  }
};

void expect_same_view(const StreamDetector& got, const StreamDetector& want,
                      const std::string& where) {
  for (osn::NodeId id = 0; id < 12; ++id) {
    ASSERT_EQ(got.features(id).as_vector(), want.features(id).as_vector())
        << where << ", account " << id;
  }
  ASSERT_EQ(got.flagged_total(), want.flagged_total()) << where;
}

TEST(ReorderBuffer, IngestMatchesPriorityQueueReferenceAtEveryStep) {
  DetectorOptions opts;
  opts.ingest.watermark_hours = 3.0;
  opts.first_friends = 4;  // small K: release order decides the watched set
  opts.rule.invite_rate_min = 3.0;
  opts.rule.min_requests = 3;
  for (const Pattern pattern : kPatterns) {
    stats::Rng rng(29);
    StreamDetector det(opts);
    StreamDetector trusted(opts);  // fed the reference's releases in order
    ReferenceIngest ref(opts.ingest.watermark_hours);
    std::vector<std::pair<osn::Event, std::uint64_t>> history;
    std::size_t replayed = 0;
    for (std::size_t i = 0; i < 2500; ++i) {
      osn::Event e;
      std::uint64_t seq;
      if (!history.empty() && rng.bernoulli(0.1)) {
        // Redelivery of an earlier (event, seq): a duplicate while the
        // seq is inside the horizon, a time regression once pruned.
        const auto& old = history[rng.uniform_index(history.size())];
        e = old.first;
        seq = old.second;
      } else if (!history.empty() && rng.bernoulli(0.03)) {
        e = random_event(rng, ref.high - opts.ingest.watermark_hours - 1.0);
        seq = 1'000'000 + i;  // fresh seq, stale time: time regression
      } else {
        e = random_event(rng, arrival_time(pattern, i, rng));
        seq = i;
        history.emplace_back(e, seq);
      }
      det.ingest(e, seq);
      ref.ingest(e, seq);
      const std::string where =
          std::string(name(pattern)) + " step " + std::to_string(i);
      ASSERT_EQ(det.buffered(), ref.queue.size()) << where;
      ASSERT_EQ(det.applied_total(), ref.applied) << where;
      ASSERT_EQ(det.deduped_total(), ref.deduped) << where;
      ASSERT_EQ(det.deadletter_by_reason(StreamErrorCode::kTimeRegression),
                ref.regressed)
          << where;
      ASSERT_EQ(det.events_in(), det.applied_total() + det.deduped_total() +
                                     det.deadletter_total() + det.buffered())
          << where;
      for (; replayed < ref.released.size(); ++replayed) {
        osn::EventLog one;
        one.append(ref.released[replayed]);
        trusted.replay(one);
      }
      expect_same_view(det, trusted, where);
    }
    EXPECT_GT(det.deduped_total(), 0u) << name(pattern);
    EXPECT_GT(det.deadletter_total(), 0u) << name(pattern);
    det.finish();
    ref.release(1e300);
    for (; replayed < ref.released.size(); ++replayed) {
      osn::EventLog one;
      one.append(ref.released[replayed]);
      trusted.replay(one);
    }
    EXPECT_EQ(det.buffered(), 0u);
    EXPECT_EQ(det.applied_total(), ref.applied);
    expect_same_view(det, trusted, std::string(name(pattern)) + " finish");
    const FlagBatch a = det.take_flagged();
    const FlagBatch b = trusted.take_flagged();
    ASSERT_EQ(a.size(), b.size()) << name(pattern);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].account, b[k].account) << name(pattern) << " flag " << k;
      EXPECT_EQ(a[k].flagged_at, b[k].flagged_at)
          << name(pattern) << " flag " << k;
    }
  }
}

// ---- Detector-state blob: the reorder section ------------------------

/// Serialized size of one reorder-buffer entry: sort time, seq, event
/// (type, actor, subject, time).
constexpr std::size_t kEntryBytes = 8 + 8 + 4 + 4 + 4 + 8;

/// Offset of the reorder section's first entry in a stream-state blob:
/// located by its count followed by the (unique) smallest entry.
std::size_t reorder_section(const std::vector<std::byte>& blob,
                            const StreamDetector& d) {
  const std::vector<Entry> sorted = d.reorder_buffer().sorted();
  std::vector<std::byte> needle(8 + kEntryBytes);
  const std::uint64_t n = sorted.size();
  const Entry& e = sorted.front();
  const auto type = static_cast<std::uint32_t>(e.event.type);
  std::byte* p = needle.data();
  const auto put = [&p](const void* v, std::size_t len) {
    std::memcpy(p, v, len);
    p += len;
  };
  put(&n, 8);
  put(&e.event.time, 8);
  put(&e.seq, 8);
  put(&type, 4);
  put(&e.event.actor, 4);
  put(&e.event.subject, 4);
  put(&e.event.time, 8);
  const auto it =
      std::search(blob.begin(), blob.end(), needle.begin(), needle.end());
  if (it == blob.end()) {
    ADD_FAILURE() << "reorder section not found";
    return 0;
  }
  return static_cast<std::size_t>(it - blob.begin()) + 8;
}

TEST(ReorderBuffer, StateBlobIsSortedAndRestoresFromAnyOrder) {
  DetectorOptions opts;
  opts.ingest.watermark_hours = 4.0;
  opts.rule.invite_rate_min = 3.0;
  opts.rule.min_requests = 3;
  stats::Rng rng(41);
  std::vector<osn::Event> feed;
  for (std::size_t i = 0; i < 1200; ++i) {
    feed.push_back(random_event(rng, arrival_time(Pattern::kMixed, i, rng)));
  }
  StreamDetector original(opts);
  constexpr std::size_t kCut = 700;
  for (std::size_t i = 0; i < kCut; ++i) original.ingest(feed[i], i);
  const ReorderBuffer& held = original.reorder_buffer();
  ASSERT_GT(held.stragglers(), 0u) << "the heap must hold stragglers";
  ASSERT_LT(held.stragglers(), held.size()) << "and the run must be non-empty";

  const std::vector<std::byte> blob = serialize_stream_state(original);
  const std::size_t at = reorder_section(blob, original);
  ASSERT_GT(at, 0u);
  const std::size_t n = original.buffered();

  // The section is written in ascending (time, seq) order.
  std::vector<Entry> written(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::byte* p = blob.data() + at + k * kEntryBytes;
    std::memcpy(&written[k].event.time, p, 8);
    std::memcpy(&written[k].seq, p + 8, 8);
  }
  EXPECT_TRUE(std::is_sorted(written.begin(), written.end(),
                             ReorderBuffer::before));

  // The uninterrupted detector continues to the end: the reference.
  for (std::size_t i = kCut; i < feed.size(); ++i) original.ingest(feed[i], i);
  original.finish();
  const std::vector<std::byte> final_state = serialize_stream_state(original);
  const FlagBatch final_flags = original.take_flagged();
  ASSERT_FALSE(final_flags.records.empty())
      << "the feed must flag accounts for the comparison to bite";

  // Reversed plus a few seeded shuffles of the section's entries.
  for (std::uint64_t shuffle = 0; shuffle < 4; ++shuffle) {
    std::vector<std::size_t> order(n);
    for (std::size_t k = 0; k < n; ++k) order[k] = k;
    if (shuffle == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      stats::Rng perm(shuffle);
      for (std::size_t k = n; k > 1; --k) {
        std::swap(order[k - 1], order[perm.uniform_index(k)]);
      }
    }
    std::vector<std::byte> shuffled = blob;
    for (std::size_t k = 0; k < n; ++k) {
      std::memcpy(shuffled.data() + at + k * kEntryBytes,
                  blob.data() + at + order[k] * kEntryBytes, kEntryBytes);
    }
    ASSERT_FALSE(shuffled == blob);
    StreamDetector restored(opts);  // a restart from the shuffled blob
    restore_stream_state(restored, shuffled);
    EXPECT_TRUE(serialize_stream_state(restored) == blob)
        << "shuffle " << shuffle << ": save-load-save must re-sort";
    for (std::size_t i = kCut; i < feed.size(); ++i) {
      restored.ingest(feed[i], i);
    }
    restored.finish();
    EXPECT_TRUE(serialize_stream_state(restored) == final_state)
        << "shuffle " << shuffle;
    const FlagBatch flags = restored.take_flagged();
    ASSERT_EQ(flags.size(), final_flags.size()) << "shuffle " << shuffle;
    for (std::size_t k = 0; k < flags.size(); ++k) {
      EXPECT_EQ(flags[k].account, final_flags[k].account);
      EXPECT_EQ(flags[k].flagged_at, final_flags[k].flagged_at);
    }
  }
}

}  // namespace
}  // namespace sybil::core
