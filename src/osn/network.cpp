#include "osn/network.h"

#include <stdexcept>

namespace sybil::osn {

NodeId Network::add_account(const Account& account, Time now) {
  accounts_.push_back(account);
  ledgers_.emplace_back();
  const NodeId id = graph_.add_node();
  if (keep_log_) log_.append({EventType::kAccountCreated, id, id, now});
  return id;
}

bool Network::add_friendship(NodeId u, NodeId v, Time t) {
  if (u >= accounts_.size() || v >= accounts_.size()) {
    throw std::out_of_range("network: unknown account");
  }
  const bool added = graph_.add_edge(u, v, t);
  if (added && keep_log_) {
    log_.append({EventType::kFriendshipSeeded, u, v, t});
  }
  return added;
}

RequestResult Network::send_request(NodeId from, NodeId to, Time now,
                                    Time respond_at, std::uint8_t tag) {
  if (from >= accounts_.size() || to >= accounts_.size() || from == to) {
    return RequestResult::kInvalid;
  }
  if (accounts_[from].banned() || accounts_[to].banned()) {
    return RequestResult::kPartyBanned;
  }
  if (graph_.has_edge(from, to)) return RequestResult::kAlreadyFriends;
  if (!requested_.insert(pair_key(from, to))) {
    return RequestResult::kDuplicate;
  }
  ledgers_[from].record_sent(now);
  ledgers_[to].record_received();
  pending_.push({std::max(respond_at, now), from, to, tag});
  if (keep_log_) log_.append({EventType::kRequestSent, from, to, now});
  return RequestResult::kSent;
}

std::size_t Network::process_responses(Time now, const DecideFn& decide) {
  std::size_t accepted = 0;
  while (!pending_.empty() && pending_.top().respond_at <= now) {
    const Pending p = pending_.top();
    pending_.pop();
    if (accounts_[p.from].banned() || accounts_[p.to].banned()) {
      if (keep_log_) {
        log_.append({EventType::kRequestDropped, p.to, p.from, p.respond_at});
      }
      continue;
    }
    if (decide(p.to, p.from, p.tag)) {
      ledgers_[p.from].record_sent_accepted();
      ledgers_[p.to].record_received_accepted();
      // Stranger-request friendships are weak ties; friend-of-friend
      // introductions are strong (tag 0 == stranger; see osn::RequestTag).
      graph_.add_edge(p.from, p.to, p.respond_at, /*weak=*/p.tag == 0);
      ++accepted;
      if (keep_log_) {
        log_.append({EventType::kRequestAccepted, p.to, p.from, p.respond_at});
      }
    } else if (keep_log_) {
      log_.append({EventType::kRequestRejected, p.to, p.from, p.respond_at});
    }
  }
  return accepted;
}

void Network::ban(NodeId who, Time now) {
  Account& acc = accounts_.at(who);
  if (acc.banned()) return;
  acc.banned_at = now;
  if (keep_log_) log_.append({EventType::kAccountBanned, who, who, now});
}

std::vector<NodeId> Network::ids_of_kind(AccountKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < accounts_.size(); ++id) {
    if (accounts_[id].kind == kind) out.push_back(id);
  }
  return out;
}

}  // namespace sybil::osn
