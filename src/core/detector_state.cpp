#include "core/detector_state.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/stream_detector.h"
#include "io/container.h"
#include "io/error.h"

namespace sybil::core {

namespace {

using io::ByteReader;
using io::ByteWriter;
using io::SnapshotError;
using io::SnapshotErrorCode;

void check_version(std::uint32_t version, const char* what) {
  // Exact match: v2 redefined the seen-by-time section (released-only
  // prune queue instead of the full accepted-seq heap), so a v1 blob
  // cannot be reinterpreted — and nothing writes v1 anymore.
  if (version != kDetectorStateVersion) {
    throw SnapshotError(SnapshotErrorCode::kUnsupportedVersion,
                        std::string(what) + " state v" +
                            std::to_string(version) +
                            " incompatible with supported v" +
                            std::to_string(kDetectorStateVersion));
  }
}

/// Bound for element counts read from untrusted blobs: any count a real
/// checkpoint produces is far below this; a corrupted count above it is
/// rejected before a multi-gigabyte allocation is attempted. ByteReader
/// still bounds-checks every element read.
constexpr std::uint64_t kSaneCount = std::uint64_t{1} << 32;

std::uint64_t read_count(ByteReader& r, const char* what) {
  const auto n = r.read<std::uint64_t>();
  if (n > kSaneCount) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        std::string(what) + " count " + std::to_string(n) +
                            " implausibly large");
  }
  return n;
}

void write_event(ByteWriter& w, const osn::Event& e) {
  w.write(static_cast<std::uint32_t>(e.type));
  w.write(e.actor);
  w.write(e.subject);
  w.write(e.time);
}

osn::Event read_event(ByteReader& r) {
  osn::Event e;
  e.type = static_cast<osn::EventType>(r.read<std::uint32_t>());
  e.actor = r.read<graph::NodeId>();
  e.subject = r.read<graph::NodeId>();
  e.time = r.read<graph::Time>();
  return e;
}

void write_features(ByteWriter& w, const SybilFeatures& f) {
  w.write(f.invite_rate_short);
  w.write(f.invite_rate_long);
  w.write(f.outgoing_accept_ratio);
  w.write(f.incoming_accept_ratio);
  w.write(f.clustering_coefficient);
}

SybilFeatures read_features(ByteReader& r) {
  SybilFeatures f;
  f.invite_rate_short = r.read<double>();
  f.invite_rate_long = r.read<double>();
  f.outgoing_accept_ratio = r.read<double>();
  f.incoming_accept_ratio = r.read<double>();
  f.clustering_coefficient = r.read<double>();
  return f;
}

void write_ledger(ByteWriter& w, const osn::RequestLedger& ledger) {
  const osn::RequestLedger::Raw raw = ledger.raw();
  w.write(raw.sent);
  w.write(raw.sent_accepted);
  w.write(raw.received);
  w.write(raw.received_accepted);
  w.write(raw.current_bucket);
  w.write(raw.current_bucket_count);
  w.write(raw.active_hours);
  w.write(raw.max_hourly);
  w.write(raw.first_send);
  w.write(raw.last_send);
}

osn::RequestLedger read_ledger(ByteReader& r) {
  osn::RequestLedger::Raw raw;
  raw.sent = r.read<std::uint32_t>();
  raw.sent_accepted = r.read<std::uint32_t>();
  raw.received = r.read<std::uint32_t>();
  raw.received_accepted = r.read<std::uint32_t>();
  raw.current_bucket = r.read<std::int64_t>();
  raw.current_bucket_count = r.read<std::uint32_t>();
  raw.active_hours = r.read<std::uint32_t>();
  raw.max_hourly = r.read<std::uint32_t>();
  raw.first_send = r.read<graph::Time>();
  raw.last_send = r.read<graph::Time>();
  return osn::RequestLedger::from_raw(raw);
}

}  // namespace

/// The one friend of StreamDetector: all member access happens in these
/// statics.
struct DetectorStateAccess {
  static std::vector<std::byte> save_stream(const StreamDetector& d) {
    ByteWriter w;
    w.write(kDetectorStateVersion);

    // The record of an account another shard owns is the default one;
    // only its ban byte is real.
    w.write(static_cast<std::uint64_t>(d.accounts_.size()));
    for (std::size_t id = 0; id < d.accounts_.size(); ++id) {
      const StreamDetector::AccountState& acc = d.accounts_[id];
      write_ledger(w, acc.ledger);
      w.write(static_cast<std::uint64_t>(acc.first_friends.size()));
      for (osn::NodeId f : acc.first_friends) w.write(f);
      w.write(acc.internal_links);
      w.write(static_cast<std::uint8_t>(acc.flagged ? 1 : 0));
      w.write(static_cast<std::uint8_t>(
          (d.status_[id] & StreamDetector::kBanned) != 0 ? 1 : 0));
    }
    for (const auto& watchers : d.watchers_) {
      w.write(static_cast<std::uint64_t>(watchers.size()));
      for (osn::NodeId who : watchers) w.write(who);
    }

    std::vector<std::uint64_t> edges(d.edges_.begin(), d.edges_.end());
    std::sort(edges.begin(), edges.end());
    w.write(static_cast<std::uint64_t>(edges.size()));
    for (std::uint64_t key : edges) w.write(key);

    w.write(static_cast<std::uint64_t>(d.newly_flagged_.size()));
    for (const FlagRecord& rec : d.newly_flagged_) {
      w.write(rec.account);
      write_features(w, rec.features);
      w.write(rec.flagged_at);
    }
    w.write(static_cast<std::uint64_t>(d.flagged_total_));

    // Ascending (time, seq): the bytes depend only on what is buffered,
    // not on how it arrived. A sorted array is also a valid min-heap, so
    // readers that load this section as an exact heap array still pop
    // it in the same order.
    const std::vector<ReorderBuffer::Entry> reorder = d.reorder_.sorted();
    w.write(static_cast<std::uint64_t>(reorder.size()));
    for (const ReorderBuffer::Entry& b : reorder) {
      w.write(b.event.time);  // the entry's sort time
      w.write(b.seq);
      write_event(w, b.event);
    }

    std::vector<std::uint64_t> seqs(d.seen_seqs_.begin(), d.seen_seqs_.end());
    std::sort(seqs.begin(), seqs.end());
    w.write(static_cast<std::uint64_t>(seqs.size()));
    for (std::uint64_t s : seqs) w.write(s);

    w.write(static_cast<std::uint64_t>(d.released_.size()));
    for (const auto& [time, seq] : d.released_) {
      w.write(time);
      w.write(seq);
    }

    w.write(d.high_watermark_);
    w.write(static_cast<std::uint64_t>(d.dead_letters_.size()));
    for (const StreamDetector::DeadLetter& dl : d.dead_letters_) {
      write_event(w, dl.event);
      w.write(dl.seq);
      w.write(static_cast<std::uint32_t>(dl.reason));
    }
    w.write(d.next_auto_seq_);
    w.write(d.events_in_);
    w.write(d.applied_total_);
    w.write(d.deduped_total_);
    w.write(d.deadletter_total_);
    for (std::uint64_t c : d.deadletter_by_reason_) w.write(c);
    w.write(d.dead_letters_dropped_);
    w.write(d.banned_party_total_);
    return std::move(w).take();
  }

  static void load_stream(StreamDetector& d, std::span<const std::byte> blob) {
    ByteReader r(blob);
    check_version(r.read<std::uint32_t>(), "stream detector");

    const std::uint64_t n_accounts = read_count(r, "account");
    // Loaded as written. A checkpoint from before shards kept owner-only
    // state also holds non-owned records (and watcher entries); no
    // verdict reads them again.
    d.accounts_.assign(n_accounts, StreamDetector::AccountState{});
    d.status_.assign(n_accounts, 0);
    for (std::size_t id = 0; id < n_accounts; ++id) {
      StreamDetector::AccountState& acc = d.accounts_[id];
      acc.ledger = read_ledger(r);
      const std::uint64_t n_friends = read_count(r, "first-friend");
      acc.first_friends.resize(n_friends);
      for (auto& f : acc.first_friends) f = r.read<osn::NodeId>();
      acc.internal_links = r.read<std::uint32_t>();
      acc.flagged = r.read<std::uint8_t>() != 0;
      const bool banned = r.read<std::uint8_t>() != 0;
      d.status_[id] = static_cast<std::uint8_t>(
          (d.owns(static_cast<osn::NodeId>(id)) ? StreamDetector::kOwned : 0) |
          (banned ? StreamDetector::kBanned : 0));
    }
    d.watchers_.assign(n_accounts, {});
    for (auto& watchers : d.watchers_) {
      const std::uint64_t n = read_count(r, "watcher");
      watchers.resize(n);
      for (auto& who : watchers) who = r.read<osn::NodeId>();
    }

    d.edges_.clear();
    const std::uint64_t n_edges = read_count(r, "edge");
    d.edges_.reserve(n_edges);
    for (std::uint64_t i = 0; i < n_edges; ++i) {
      d.edges_.insert(r.read<std::uint64_t>());
    }

    const std::uint64_t n_flags = read_count(r, "pending flag");
    d.newly_flagged_.resize(n_flags);
    for (auto& rec : d.newly_flagged_) {
      rec.account = r.read<osn::NodeId>();
      rec.features = read_features(r);
      rec.flagged_at = r.read<graph::Time>();
    }
    d.flagged_total_ = static_cast<std::size_t>(r.read<std::uint64_t>());

    // Entries may come in any order (older writers saved the raw heap
    // array); assign() sorts them.
    const std::uint64_t n_buffered = read_count(r, "reorder-buffer");
    std::vector<ReorderBuffer::Entry> reorder(n_buffered);
    for (auto& b : reorder) {
      const graph::Time time = r.read<graph::Time>();
      b.seq = r.read<std::uint64_t>();
      b.event = read_event(r);
      if (time != b.event.time || !std::isfinite(time)) {
        throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                            "reorder-buffer entry time is not finite or "
                            "disagrees with its event time");
      }
    }
    d.reorder_.assign(std::move(reorder));

    d.seen_seqs_.clear();
    const std::uint64_t n_seqs = read_count(r, "seen-seq");
    d.seen_seqs_.reserve(n_seqs);
    for (std::uint64_t i = 0; i < n_seqs; ++i) {
      d.seen_seqs_.insert(r.read<std::uint64_t>());
    }
    d.released_.clear();
    const std::uint64_t n_released = read_count(r, "released-seq");
    for (std::uint64_t i = 0; i < n_released; ++i) {
      const graph::Time time = r.read<graph::Time>();
      const std::uint64_t seq = r.read<std::uint64_t>();
      d.released_.emplace_back(time, seq);
    }

    d.high_watermark_ = r.read<graph::Time>();
    d.dead_letters_.clear();
    const std::uint64_t n_dead = read_count(r, "dead-letter");
    for (std::uint64_t i = 0; i < n_dead; ++i) {
      StreamDetector::DeadLetter dl;
      dl.event = read_event(r);
      dl.seq = r.read<std::uint64_t>();
      const auto reason = r.read<std::uint32_t>();
      if (reason >= kStreamErrorCodeCount) {
        throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                            "dead-letter reason " + std::to_string(reason) +
                                " out of range");
      }
      dl.reason = static_cast<StreamErrorCode>(reason);
      d.dead_letters_.push_back(dl);
    }
    d.next_auto_seq_ = r.read<std::uint64_t>();
    d.events_in_ = r.read<std::uint64_t>();
    d.applied_total_ = r.read<std::uint64_t>();
    d.deduped_total_ = r.read<std::uint64_t>();
    d.deadletter_total_ = r.read<std::uint64_t>();
    for (std::uint64_t& c : d.deadletter_by_reason_) {
      c = r.read<std::uint64_t>();
    }
    d.dead_letters_dropped_ = r.read<std::uint64_t>();
    d.banned_party_total_ = r.read<std::uint64_t>();
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "trailing bytes after stream detector state");
    }
  }
};

std::vector<std::byte> serialize_stream_state(const StreamDetector& d) {
  return DetectorStateAccess::save_stream(d);
}

void restore_stream_state(StreamDetector& d, std::span<const std::byte> blob) {
  DetectorStateAccess::load_stream(d, blob);
}

}  // namespace sybil::core
