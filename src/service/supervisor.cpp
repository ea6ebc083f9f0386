#include "service/supervisor.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/detector_state.h"
#include "core/metrics/instrument.h"
#include "io/error.h"
#include "service/defense_scorer.h"

namespace sybil::service {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t tier_bits(core::ServiceTier tier) noexcept {
  return (static_cast<std::uint32_t>(tier) << WalRecordFlags::kTierShift) &
         WalRecordFlags::kTierMask;
}

constexpr core::ServiceTier tier_from_flags(std::uint32_t flags) noexcept {
  return static_cast<core::ServiceTier>((flags & WalRecordFlags::kTierMask) >>
                                        WalRecordFlags::kTierShift);
}

enum class ShedKind { kLowPriority, kSweepOnly, kCapacity };

/// The one shed verdict -> counter map: the capacity bit, else the
/// sweep-only tier, else low priority. offer() and the WAL replay in
/// start() both count through it, so a replayed shed record advances
/// exactly the counter it advanced live.
inline ShedKind count_shed(ServiceCounters& c, std::uint32_t flags) noexcept {
  if ((flags & WalRecordFlags::kCapacity) != 0) {
    ++c.shed_capacity;
    return ShedKind::kCapacity;
  }
  if (tier_from_flags(flags) == core::ServiceTier::kSweepOnly) {
    ++c.shed_sweep_only;
    return ShedKind::kSweepOnly;
  }
  ++c.shed_low_priority;
  return ShedKind::kLowPriority;
}

/// Kinds shed at ServiceTier::kShedLowPriority — bookkeeping events
/// whose loss degrades feature freshness but cannot lose a verdict
/// (the request/accept/reject flow and bans still land).
bool low_priority(osn::EventType t) noexcept {
  return t == osn::EventType::kAccountCreated ||
         t == osn::EventType::kRequestDropped ||
         t == osn::EventType::kFriendshipSeeded;
}

void fire(const CrashHook& hook, CrashPoint p) {
  if (hook) hook(p);
}

void append_field(std::string& out, const char* key, std::uint64_t value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

#if SYBIL_METRICS_COMPILED

// Per-instance metric handles. The instrument.h macros cache handles in
// function-local statics, which would fuse every shard of a sharded
// service onto one metric name; a supervisor therefore resolves its own
// handles once, under its shard namespace ("service.shard.<i>.*" when
// it is one of N, plain "service.*" standalone), and sharded counters
// additionally feed the aggregated "service.*" family so fleet-wide
// dashboards need no client-side summing (docs/OBSERVABILITY.md).
struct ServiceSupervisor::Metrics {
  struct Count {
    core::metrics::Counter* local = nullptr;
    core::metrics::Counter* agg = nullptr;  // aggregate twin (sharded only)
    void add(std::uint64_t n = 1) const noexcept {
      // Unregistered handles (the defense family with the tier off)
      // no-op, so a defense-off build exports exactly the PR 7 rows.
      if (n == 0 || local == nullptr || !core::metrics::metrics_enabled()) {
        return;
      }
      local->add(n);
      if (agg != nullptr) agg->add(n);
    }
  };
  // A counter whose total lives in the detector or the scorer:
  // publish_metrics() adds what the total gained since the last publish
  // (ops-only, not checkpointed).
  struct Delta {
    Count count;
    std::uint64_t published = 0;
    std::uint64_t publish(std::uint64_t total) noexcept {
      const std::uint64_t delta = total - published;
      published = total;
      count.add(delta);
      return delta;
    }
  };
  // Gauges are instantaneous, so an aggregated twin would be
  // last-writer-wins noise across shards: local only.
  struct Level {
    core::metrics::Gauge* local = nullptr;
    void set(double v) const noexcept {
      if (core::metrics::metrics_enabled()) local->set(v);
    }
  };

  Count recoveries;
  Count cold_starts;
  Count replayed_records;
  Count generations_discarded;
  Count tier_transitions;
  Count shed_low_priority;
  Count shed_sweep_only;
  Count shed_capacity;
  Count sweeps;
  Delta deadletter[core::kStreamErrorCodeCount];
  Count deadletter_total;
  Delta deadletter_dropped;
  // Defense tier (registered only when DetectorOptions::defense is on;
  // unregistered handles no-op — see Count::add).
  Delta defense_edges;
  Delta defense_dirty;
  Delta defense_rounds;
  Delta defense_full;
  Count defense_scores;
  // Storage-degraded mode incidents (docs/OBSERVABILITY.md §storage.*).
  Count storage_entries;
  Count storage_exits;
  Count storage_retries;
  Count storage_retry_failures;
  Count storage_checkpoints_suspended;
  Level storage_buffered;
  Level reorder_buffered;
  Level queue_depth;
  Level tier;

  Count& shed(ShedKind kind) noexcept {
    switch (kind) {
      case ShedKind::kCapacity:
        return shed_capacity;
      case ShedKind::kSweepOnly:
        return shed_sweep_only;
      case ShedKind::kLowPriority:
        break;
    }
    return shed_low_priority;
  }

  explicit Metrics(const ServiceOptions& o) {
    auto& reg = core::metrics::MetricsRegistry::instance();
    const bool sharded = o.shard_count > 1;
    const std::string prefix =
        sharded ? "service.shard." + std::to_string(o.shard_id) + "."
                : std::string("service.");
    const auto count = [&](const std::string& name) {
      Count c;
      c.local = &reg.counter(prefix + name);
      if (sharded) c.agg = &reg.counter("service." + name);
      return c;
    };
    const auto level = [&](const std::string& name) {
      Level l;
      l.local = &reg.gauge(prefix + name);
      return l;
    };
    recoveries = count("recovery.count");
    cold_starts = count("recovery.cold_starts");
    replayed_records = count("recovery.replayed_records");
    generations_discarded = count("recovery.generations_discarded");
    tier_transitions = count("tier.transitions");
    shed_low_priority = count("shed.low_priority");
    shed_sweep_only = count("shed.sweep_only");
    shed_capacity = count("shed.capacity");
    sweeps = count("sweeps");
    for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
      deadletter[i].count =
          count(std::string("deadletter.") +
                core::to_string(static_cast<core::StreamErrorCode>(i)));
    }
    deadletter_total = count("deadletter.total");
    deadletter_dropped.count = count("deadletter.dropped");
    if (o.detector.defense.enabled) {
      defense_edges.count = count("defense.edges_observed");
      defense_dirty.count = count("defense.dirty_vertices");
      defense_rounds.count = count("defense.propagation_rounds");
      defense_full.count = count("defense.full_recomputes");
      defense_scores = count("defense.scores_published");
    }
    storage_entries = count("storage.degraded_entries");
    storage_exits = count("storage.degraded_exits");
    storage_retries = count("storage.retries");
    storage_retry_failures = count("storage.retry_failures");
    storage_checkpoints_suspended = count("storage.checkpoints_suspended");
    storage_buffered = level("storage.buffered");
    reorder_buffered = level("reorder.buffered");
    queue_depth = level("queue.depth");
    tier = level("tier");
  }
};

#define SYBIL_SERVICE_METRIC(expr)           \
  do {                                       \
    if (metrics_ != nullptr) metrics_->expr; \
  } while (0)

#else  // SYBIL_METRICS_COMPILED == 0

struct ServiceSupervisor::Metrics {};

#define SYBIL_SERVICE_METRIC(expr) \
  do {                             \
  } while (0)

#endif  // SYBIL_METRICS_COMPILED

void StorageOptions::validate() const {
  if (buffer_records == 0) {
    throw std::invalid_argument("StorageOptions::buffer_records must be >= 1");
  }
  if (retry_backoff == 0) {
    throw std::invalid_argument("StorageOptions::retry_backoff must be >= 1");
  }
  if (retry_backoff_cap < retry_backoff) {
    throw std::invalid_argument(
        "StorageOptions::retry_backoff_cap must be >= retry_backoff");
  }
}

void ServiceOptions::validate() const {
  detector.validate();
  storage.validate();
  if (dir.empty()) {
    throw std::invalid_argument("ServiceOptions::dir must be non-empty");
  }
  if (wal_segment_records == 0) {
    throw std::invalid_argument(
        "ServiceOptions::wal_segment_records must be >= 1");
  }
  if (checkpoint_retain == 0) {
    throw std::invalid_argument("ServiceOptions::checkpoint_retain must be "
                                ">= 1 (retention is the fallback depth)");
  }
  if (shard_count == 0) {
    throw std::invalid_argument("ServiceOptions::shard_count must be >= 1");
  }
  if (shard_id >= shard_count) {
    throw std::invalid_argument(
        "ServiceOptions::shard_id must be < shard_count");
  }
}

ServiceSupervisor::ServiceSupervisor(const ServiceOptions& options)
    : options_((options.validate(), options)),
      detector_(options.detector, options.shard_id, options.shard_count) {
  if (options_.detector.defense.enabled) {
    scorer_ = std::make_unique<DefenseScorer>(options_.detector);
  }
#if SYBIL_METRICS_COMPILED
  metrics_ = std::make_unique<Metrics>(options_);
#endif
}

ServiceSupervisor::~ServiceSupervisor() = default;

void ServiceSupervisor::require_started(const char* what) const {
  if (!started_) {
    throw std::logic_error(std::string("ServiceSupervisor::") + what +
                           " before start()");
  }
}

void ServiceSupervisor::reset_state() {
  detector_ = core::StreamDetector(options_.detector, options_.shard_id,
                                   options_.shard_count);
  if (scorer_ != nullptr) {
    scorer_ = std::make_unique<DefenseScorer>(options_.detector);
  }
  queue_.clear();
  tier_ = core::ServiceTier::kFull;
  counters_ = {};
  next_seq_ = 0;
  storage_degraded_ = false;
  storage_backoff_ = storage_retry_in_ = 0;
}

RecoveryReport ServiceSupervisor::start() {
  if (started_) {
    throw std::logic_error("ServiceSupervisor::start called twice");
  }
  SYBIL_METRIC_SCOPED_TIMER(span, "service.recovery");
  const std::string wal_dir = options_.dir + "/wal";
  const std::string ckpt_dir = options_.dir + "/ckpt";
  fs::create_directories(ckpt_dir);

  RecoveryReport report;
  std::uint64_t from_index = 0;

  // Newest valid checkpoint generation wins; corrupt generations are
  // discarded (typed SnapshotError) and the previous one is tried —
  // never a crash, never silent loss, just a longer WAL replay.
  const auto generations = list_checkpoints(ckpt_dir);
  for (std::size_t i = generations.size(); i-- > 0;) {
    try {
      const ServiceCheckpointState state =
          load_service_checkpoint(generations[i].second);
      // Identity check before anything is restored: a checkpoint from
      // another shard is misconfiguration, not corruption, so it must
      // escape the fallback loop and fail the whole start() loudly
      // (plain logic_error — only SnapshotError triggers fallback).
      if (state.shard_count != 0 &&
          (state.shard_count != options_.shard_count ||
           state.shard_id != options_.shard_id)) {
        throw std::logic_error(
            "service checkpoint " + generations[i].second +
            " was written by shard " + std::to_string(state.shard_id) +
            "/" + std::to_string(state.shard_count) +
            " but this supervisor is shard " +
            std::to_string(options_.shard_id) + "/" +
            std::to_string(options_.shard_count));
      }
      core::restore_stream_state(detector_, state.stream_state);
      if (scorer_ != nullptr) {
        // A defense-enabled supervisor refuses a checkpoint without a
        // scorer section: typed SnapshotError, so the fallback loop
        // tries an older generation and ultimately rebuilds the scorer
        // from the full WAL (cold start) rather than resuming with a
        // silently empty graph. A defense-off supervisor ignores any
        // defense_state it finds.
        if (state.defense_state.empty()) {
          throw io::SnapshotError(
              io::SnapshotErrorCode::kFormatViolation,
              "checkpoint " + generations[i].second +
                  " carries no defense-scorer section but "
                  "DetectorOptions::defense is enabled");
        }
        scorer_->restore(state.defense_state);
      }
      queue_.assign(state.queue.begin(), state.queue.end());
      tier_ = static_cast<core::ServiceTier>(state.tier);
      counters_ = state.counters;
      next_seq_ = state.next_seq;
      report.cold_start = false;
      report.checkpoint_file = generations[i].second;
      report.checkpoint_position = state.wal_position;
      from_index = state.wal_position;
      break;
    } catch (const io::SnapshotError&) {
      reset_state();  // a partial restore must not leak into a fallback
      ++report.generations_discarded;
      SYBIL_SERVICE_METRIC(generations_discarded.add(1));
    }
  }

  // Replay the WAL suffix, re-executing each record's recorded
  // admission verdict: shed records advance the shed counters they
  // advanced the first time, admitted records re-enter the queue. The
  // checkpointed queue holds only indices below from_index and the
  // replay only indices at or above it, so nothing is applied twice.
  WalScanReport scan;
  const std::vector<WalRecord> records =
      scan_wal(wal_dir, from_index, scan, options_.shard_id, options_.vfs);
  for (const WalRecord& r : records) {
    ++counters_.offered;
    if (r.seq < kExplicitSeqLimit) {
      next_seq_ = std::max(next_seq_, r.seq + 1);
    }
    if (r.shed()) {
      count_shed(counters_, r.flags);
    } else {
      queue_.push_back(r);
      ++counters_.admitted;
    }
    tier_ = tier_from_flags(r.flags);
  }
  report.records_replayed = records.size();
  report.records_truncated = scan.records_truncated;
  report.torn_tails_healed = scan.torn_tails_healed;

  // Appends resume on a fresh segment past everything durable. (The
  // max guards the kOnRotate/kNever policies, where a checkpoint may
  // outlive unsynced WAL records it thought it covered.)
  const std::uint64_t next = std::max(from_index, scan.next_index);
  WalOptions wal_opts;
  wal_opts.dir = wal_dir;
  wal_opts.segment_records = options_.wal_segment_records;
  wal_opts.fsync = options_.wal_fsync;
  wal_opts.shard_id = options_.shard_id;
  wal_opts.crash_hook = options_.crash_hook;
  wal_opts.vfs = options_.vfs;
  wal_ = std::make_unique<WalWriter>(wal_opts, next);

  report.next_index = next;
  report.next_seq = next_seq_;
  recovery_ = report;
  started_ = true;
  SYBIL_SERVICE_METRIC(recoveries.add(1));
  if (report.cold_start) SYBIL_SERVICE_METRIC(cold_starts.add(1));
  SYBIL_SERVICE_METRIC(replayed_records.add(report.records_replayed));
  SYBIL_SERVICE_METRIC(queue_depth.set(static_cast<double>(queue_.size())));
  SYBIL_SERVICE_METRIC(tier.set(static_cast<std::uint32_t>(tier_)));
  return report;
}

void ServiceSupervisor::update_tier() {
  const auto& o = options_.detector.overload;
  const std::size_t depth = queue_.size();
  core::ServiceTier next = tier_;
  if (depth >= o.sweep_only_watermark) {
    next = core::ServiceTier::kSweepOnly;
  } else if (depth >= o.shed_watermark) {
    // Degrade at least one tier, but never un-degrade here: a queue
    // between the watermarks keeps the tier it has (hysteresis).
    if (tier_ == core::ServiceTier::kFull) {
      next = core::ServiceTier::kShedLowPriority;
    }
  } else if (depth <= o.resume_watermark) {
    next = core::ServiceTier::kFull;
  }
  if (next != tier_) {
    tier_ = next;
    ++tier_transitions_;
    SYBIL_SERVICE_METRIC(tier_transitions.add(1));
  }
  SYBIL_SERVICE_METRIC(tier.set(static_cast<std::uint32_t>(tier_)));
}

bool ServiceSupervisor::offer(const osn::Event& e, std::uint64_t seq) {
  require_started("offer");
  update_tier();
  const bool ban = e.type == osn::EventType::kAccountBanned;
  bool shed = false;
  bool capacity = false;
  if (!ban) {
    if (queue_.size() >= options_.detector.overload.queue_capacity) {
      shed = capacity = true;
    } else if (tier_ == core::ServiceTier::kSweepOnly) {
      shed = true;
    } else if (tier_ == core::ServiceTier::kShedLowPriority &&
               low_priority(e.type)) {
      shed = true;
    }
  }

  std::uint32_t flags = tier_bits(tier_);
  if (shed) flags |= WalRecordFlags::kShed;
  if (capacity) flags |= WalRecordFlags::kCapacity;

  // Durability first: the verdict is logged before it takes effect, so
  // a crash between append and enqueue loses only counter increments
  // that replay re-derives from the record itself.
  //
  // Storage faults (ENOSPC/EIO) do NOT lose the offer: the supervisor
  // enters storage-degraded mode, where the record lands in the WAL
  // writer's bounded in-memory buffer and everything downstream —
  // verdict, counters, queue, detector — proceeds identically to the
  // undisturbed run. Power loss is the exception: the process is
  // "dead", so the error propagates.
  std::uint64_t index;
  if (storage_degraded_) {
    const std::uint64_t buffered = wal_->unsynced_records();
    if (buffered >= options_.storage.buffer_records) {
      throw StorageBufferOverflow(options_.shard_id, buffered,
                                  options_.storage.buffer_records);
    }
    index = wal_->append(e, seq, flags);  // suspended: cannot throw
  } else {
    const std::uint64_t before = wal_->next_index();
    try {
      index = wal_->append(e, seq, flags);
    } catch (const io::VfsError& err) {
      if (err.kind() == io::VfsFaultKind::kPowerLoss) throw;
      enter_storage_degraded(err);
      if (wal_->next_index() == before) {
        // Rotation failed before anything was appended; now that sync
        // is suspended the append is buffer-only and cannot throw.
        index = wal_->append(e, seq, flags);
      } else {
        // The record IS appended (buffered, not durable); the failure
        // was the post-append flush/fsync.
        index = wal_->next_index() - 1;
      }
    }
  }
  if (storage_degraded_) {
    SYBIL_SERVICE_METRIC(
        storage_buffered.set(static_cast<double>(wal_->unsynced_records())));
  }
  ++counters_.offered;
  if (seq < kExplicitSeqLimit) next_seq_ = std::max(next_seq_, seq + 1);
  if (shed) {
    [[maybe_unused]] const ShedKind kind = count_shed(counters_, flags);
    SYBIL_SERVICE_METRIC(shed(kind).add(1));
  } else {
    queue_.push_back(WalRecord{index, seq, e, flags});
    ++counters_.admitted;
  }
  SYBIL_SERVICE_METRIC(queue_depth.set(static_cast<double>(queue_.size())));
  maybe_checkpoint();
  storage_tick();
  return !shed;
}

void ServiceSupervisor::begin_offer_batch() {
  require_started("begin_offer_batch");
  wal_->begin_group();
}

std::uint64_t ServiceSupervisor::commit_offer_batch() {
  require_started("commit_offer_batch");
  try {
    return wal_->commit_group();
  } catch (const io::VfsError& err) {
    // The group's records are appended and buffered; only the commit
    // fsync failed. Degrade instead of unwinding — the caller simply
    // must not acknowledge the batch upstream yet (and recovery already
    // treats an unsynced group as losable, which is the contract).
    if (err.kind() == io::VfsFaultKind::kPowerLoss) throw;
    if (!storage_degraded_) enter_storage_degraded(err);
    SYBIL_SERVICE_METRIC(
        storage_buffered.set(static_cast<double>(wal_->unsynced_records())));
    return 0;
  }
}

std::size_t ServiceSupervisor::pump(std::size_t max_events) {
  require_started("pump");
  return pump_queue(max_events, ~std::uint64_t{0});
}

std::size_t ServiceSupervisor::pump_through(std::uint64_t seq_bound) {
  require_started("pump_through");
  // Auto-seq records (>= kExplicitSeqLimit) stop the drain too.
  return pump_queue(0, std::min(seq_bound, kExplicitSeqLimit - 1));
}

std::size_t ServiceSupervisor::pump_queue(std::size_t max_events,
                                          std::uint64_t seq_bound) {
  std::size_t n = 0;
  while (!queue_.empty() && (max_events == 0 || n < max_events) &&
         queue_.front().seq <= seq_bound) {
    const WalRecord r = queue_.front();
    queue_.pop_front();
    ++counters_.pumped;
    ++n;
    detector_.ingest(r.event, r.seq);
    if (scorer_ != nullptr) scorer_->observe(r.event);
  }
  SYBIL_SERVICE_METRIC(queue_depth.set(static_cast<double>(queue_.size())));
  publish_metrics();
  return n;
}

std::size_t ServiceSupervisor::drain() {
  const std::size_t n = pump(0);
  detector_.finish();
  publish_metrics();
  return n;
}

std::size_t ServiceSupervisor::sweep_flags(graph::Time now) {
  require_started("sweep_flags");
  ++counters_.sweeps;
  const std::size_t n = detector_.sweep_flags(now);
  counters_.sweep_flagged += n;
  // Defense refresh rides the sweep cadence: scores fold in everything
  // pumped before this sweep, a pure function of the event prefix —
  // what keeps N-shard and 1-shard annotations identical.
  if (scorer_ != nullptr) scorer_->refresh();
  SYBIL_SERVICE_METRIC(sweeps.add(1));
  return n;
}

core::FlagBatch ServiceSupervisor::take_flagged() {
  core::FlagBatch batch = detector_.take_flagged();
  if (scorer_ != nullptr) {
    for (core::FlagRecord& r : batch.records) {
      r.defense_scored = true;
      r.defense_rank = scorer_->rank_score(r.account);
      r.defense_clustering = scorer_->clustering_score(r.account);
    }
    SYBIL_SERVICE_METRIC(defense_scores.add(batch.records.size()));
  }
  return batch;
}

void ServiceSupervisor::publish_metrics() {
#if SYBIL_METRICS_COMPILED
  if (metrics_ == nullptr) return;
  metrics_->reorder_buffered.set(static_cast<double>(detector_.buffered()));
  SYBIL_METRIC_GAUGE_SET("stream.ingest.buffered", detector_.buffered());
  std::uint64_t total_delta = 0;
  for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
    total_delta += metrics_->deadletter[i].publish(
        detector_.deadletter_by_reason(static_cast<core::StreamErrorCode>(i)));
  }
  metrics_->deadletter_total.add(total_delta);
  metrics_->deadletter_dropped.publish(detector_.dead_letters_dropped());
  if (scorer_ != nullptr) {
    metrics_->defense_edges.publish(scorer_->edges_observed());
    metrics_->defense_dirty.publish(scorer_->dirty_processed());
    metrics_->defense_rounds.publish(scorer_->rank().rounds_total());
    metrics_->defense_full.publish(scorer_->rank().full_recomputes());
  }
#endif
}

void ServiceSupervisor::maybe_checkpoint() {
  if (options_.checkpoint_every == 0) return;
  if (wal_->next_index() % options_.checkpoint_every == 0) checkpoint_now();
}

void ServiceSupervisor::checkpoint_now() {
  require_started("checkpoint_now");
  // Checkpointing is suspended while storage-degraded: a checkpoint's
  // WAL position must never outrun durable records, and the disk is
  // rejecting writes anyway. Counted, never silent — the backlog of
  // suspended checkpoints shows up in storage.checkpoints_suspended.
  if (storage_degraded_) {
    ++storage_checkpoints_suspended_;
    SYBIL_SERVICE_METRIC(storage_checkpoints_suspended.add(1));
    return;
  }
  fire(options_.crash_hook, CrashPoint::kCheckpointCommit);

  ServiceCheckpointState state;
  state.wal_position = wal_->next_index();
  state.tier = static_cast<std::uint32_t>(tier_);
  state.shard_id = options_.shard_id;
  state.shard_count = options_.shard_count;
  state.next_seq = next_seq_;
  state.counters = counters_;
  state.queue.assign(queue_.begin(), queue_.end());
  state.stream_state = core::serialize_stream_state(detector_);
  if (scorer_ != nullptr) state.defense_state = scorer_->serialize();

  const std::string ckpt_dir = options_.dir + "/ckpt";
  try {
    // A checkpoint must never claim a position past the durable WAL,
    // so the WAL syncs first; the container commit is atomic and
    // removes its temp file on any storage fault, so a failure here
    // never touches existing generations.
    wal_->sync();
    save_service_checkpoint(checkpoint_path(ckpt_dir, state.wal_position),
                            state, options_.vfs);
  } catch (const io::VfsError& err) {
    if (err.kind() == io::VfsFaultKind::kPowerLoss) throw;
    enter_storage_degraded(err);
    ++storage_checkpoints_suspended_;
    SYBIL_SERVICE_METRIC(storage_checkpoints_suspended.add(1));
    return;
  }
  fire(options_.crash_hook, CrashPoint::kCheckpointCommitted);

  // Retention, then WAL pruning up to the oldest *retained* generation
  // — the fallback path must always find the records it would replay.
  prune_checkpoints(ckpt_dir, options_.checkpoint_retain);
  const auto generations = list_checkpoints(ckpt_dir);
  if (!generations.empty()) {
    prune_wal(options_.dir + "/wal", generations.front().first, options_.vfs);
  }
}

void ServiceSupervisor::flush(bool checkpoint) {
  require_started("flush");
  drain();
  // End-of-stream is the loud boundary: a flush cannot leave records
  // buffered behind a degraded disk, so it forces one retry and throws
  // the original fault kind if the disk still refuses.
  if (storage_degraded_ && !retry_storage_now()) {
    throw io::VfsError(
        storage_error_kind_,
        "flush: storage still degraded on shard " +
            std::to_string(options_.shard_id) + " with " +
            std::to_string(wal_->unsynced_records()) + " records buffered");
  }
  if (checkpoint) checkpoint_now();
}

void ServiceSupervisor::enter_storage_degraded(const io::VfsError& err) {
  storage_degraded_ = true;
  storage_error_kind_ = err.kind();
  wal_->suspend_sync();
  storage_backoff_ = options_.storage.retry_backoff;
  storage_retry_in_ = storage_backoff_;
  ++storage_entries_;
  SYBIL_SERVICE_METRIC(storage_entries.add(1));
}

void ServiceSupervisor::storage_tick() {
  if (!storage_degraded_) return;
  if (storage_retry_in_ > 0) --storage_retry_in_;
  if (storage_retry_in_ == 0) retry_storage_now();
}

bool ServiceSupervisor::retry_storage_now() {
  if (!storage_degraded_) return true;
  ++storage_retries_;
  SYBIL_SERVICE_METRIC(storage_retries.add(1));
  try {
    wal_->resume_sync();
  } catch (const io::VfsError& err) {
    if (err.kind() == io::VfsFaultKind::kPowerLoss) throw;
    ++storage_retry_failures_;
    SYBIL_SERVICE_METRIC(storage_retry_failures.add(1));
    storage_backoff_ =
        std::min(storage_backoff_ * 2, options_.storage.retry_backoff_cap);
    storage_retry_in_ = storage_backoff_;
    return false;
  }
  storage_degraded_ = false;
  storage_backoff_ = storage_retry_in_ = 0;
  ++storage_exits_;
  SYBIL_SERVICE_METRIC(storage_exits.add(1));
  SYBIL_SERVICE_METRIC(storage_buffered.set(0));
  return true;
}

bool ServiceSupervisor::accounting_ok() const noexcept {
  const ServiceCounters& c = counters_;
  if (c.offered != c.shed_total() + queue_.size() + detector_.events_in()) {
    return false;
  }
  if (c.admitted != c.offered - c.shed_total()) return false;
  if (c.pumped != detector_.events_in()) return false;
  return detector_.events_in() ==
         detector_.applied_total() + detector_.deduped_total() +
             detector_.deadletter_total() + detector_.buffered();
}

std::string ServiceSupervisor::stats_json() const {
  std::string out = "{";
  append_field(out, "offered", counters_.offered);
  append_field(out, "admitted", counters_.admitted);
  out += ",\"shed\":{";
  append_field(out, "low_priority", counters_.shed_low_priority);
  append_field(out, "sweep_only", counters_.shed_sweep_only);
  append_field(out, "capacity", counters_.shed_capacity);
  append_field(out, "total", counters_.shed_total());
  out += '}';
  append_field(out, "queued", queue_.size());
  append_field(out, "pumped", counters_.pumped);
  append_field(out, "applied", detector_.applied_total());
  append_field(out, "deduped", detector_.deduped_total());
  out += ",\"deadlettered\":{";
  append_field(out, "total", detector_.deadletter_total());
  for (std::size_t i = 0; i < core::kStreamErrorCodeCount; ++i) {
    const auto code = static_cast<core::StreamErrorCode>(i);
    append_field(out, core::to_string(code),
                 detector_.deadletter_by_reason(code));
  }
  append_field(out, "dropped", detector_.dead_letters_dropped());
  out += '}';
  append_field(out, "buffered", detector_.buffered());
  append_field(out, "banned_party", detector_.banned_party_total());
  append_field(out, "accounts_seen", detector_.accounts_seen());
  append_field(out, "flagged_total", detector_.flagged_total());
  append_field(out, "sweeps", counters_.sweeps);
  append_field(out, "sweep_flagged", counters_.sweep_flagged);
  append_field(out, "next_seq", next_seq_);
  if (scorer_ != nullptr) {
    // Replay-exact like everything else here: the scorer's counters are
    // checkpointed and WAL replay re-derives them deterministically.
    out += ",\"defense\":{";
    append_field(out, "edges", scorer_->edges_observed());
    append_field(out, "ignored", scorer_->ignored());
    append_field(out, "refreshes", scorer_->refreshes());
    append_field(out, "dirty", scorer_->dirty_processed());
    append_field(out, "rank_full_recomputes",
                 scorer_->rank().full_recomputes());
    append_field(out, "rank_updates", scorer_->rank().incremental_updates());
    append_field(out, "rank_rounds", scorer_->rank().rounds_total());
    append_field(out, "rank_propagated", scorer_->rank().propagated_total());
    append_field(out, "triangles_closed",
                 scorer_->clustering().triangles_closed());
    out += '}';
  }
  out += ",\"tier\":\"";
  out += core::to_string(tier_);
  out += "\"}";
  return out;
}

}  // namespace sybil::service
