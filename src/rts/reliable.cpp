#include "rts/reliable.hpp"

#include <algorithm>
#include <chrono>

#include "rts/runtime.hpp"

namespace paratreet::rts {

namespace {
/// Modeled size of an ack / protocol control message.
constexpr std::size_t kAckBytes = 32;
}  // namespace

ReliableLayer::ReliableLayer(Runtime& rt, FaultInjector& injector)
    : rt_(rt), injector_(injector) {
  procs_.reserve(static_cast<std::size_t>(rt.numProcs()));
  for (int p = 0; p < rt.numProcs(); ++p) {
    procs_.push_back(std::make_unique<ProcState>());
  }
  const auto n = static_cast<std::size_t>(std::max(0, rt.numProcs()));
  abandoned_to_ = std::make_unique<std::atomic<bool>[]>(n);
  for (std::size_t p = 0; p < n; ++p) {
    abandoned_to_[p].store(false, std::memory_order_relaxed);
  }
}

ReliableLayer::~ReliableLayer() = default;

void ReliableLayer::send(Message msg) {
  auto p = std::make_shared<Pending>();
  p->seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  p->from = msg.from;
  p->to = msg.to;
  p->bytes = msg.bytes;
  p->kind = msg.kind;
  p->payload = std::move(msg.on_receive);
  p->wire_payload = std::move(msg.payload);
  {
    std::lock_guard lock(procs_[static_cast<std::size_t>(p->from)]->mutex);
    procs_[static_cast<std::size_t>(p->from)]->pending.emplace(p->seq, p);
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  transmit(p);
}

Message ReliableLayer::wireCopy(const std::shared_ptr<Pending>& p,
                                Task on_receive) {
  Message copy;
  copy.from = p->from;
  copy.to = p->to;
  copy.bytes = p->bytes;
  copy.kind = p->kind;
  copy.payload = p->wire_payload;
  copy.on_receive = std::move(on_receive);
  return copy;
}

void ReliableLayer::transmit(const std::shared_ptr<Pending>& p) {
  int attempt;
  {
    std::lock_guard lock(procs_[static_cast<std::size_t>(p->from)]->mutex);
    attempt = p->attempts++;
  }
  const FaultDecision d =
      injector_.onMessage(p->seq, static_cast<std::uint32_t>(attempt));
  const double wire_us = rt_.config_.comm.costUs(p->bytes);
  if (d.drop) {
    rt_.noteFault(FaultKind::kDrop);
    traceFault("rts.fault.drop");
  } else {
    if (d.delayed) {
      rt_.noteFault(FaultKind::kDelay);
      traceFault("rts.fault.delay");
    }
    if (d.reordered) {
      rt_.noteFault(FaultKind::kReorder);
      traceFault("rts.fault.reorder");
    }
    rt_.transport().deliver(wireCopy(p, [this, p] { deliver(p); }),
                            wire_us + d.delay_us);
    if (d.duplicate) {
      rt_.noteFault(FaultKind::kDuplicate);
      traceFault("rts.fault.duplicate");
      rt_.transport().deliver(wireCopy(p, [this, p] { deliver(p); }),
                              wire_us + d.delay_us + d.duplicate_skew_us);
    }
  }
  // Exactly one ack-timeout timer per live message, rearmed on each
  // retransmission; it is the entry's sole retirement path.
  rt_.enqueueAfterUs(p->from, backoffUs(attempt + 1),
                     [this, p] { onTimer(p); });
}

void ReliableLayer::deliver(const std::shared_ptr<Pending>& p) {
  // A copy addressed to a dead rank is discarded without running the
  // payload or acking: acking would let the sender believe the message
  // was processed, resurrecting work the recovery already abandoned.
  if (abandoned_to_[static_cast<std::size_t>(p->to)].load(
          std::memory_order_acquire) ||
      !rt_.rankAlive(p->to)) {
    return;
  }
  bool fresh;
  {
    auto& st = *procs_[static_cast<std::size_t>(p->to)];
    std::lock_guard lock(st.mutex);
    fresh = st.delivered.insert(p->seq).second;
  }
  if (fresh) {
    p->payload();
    p->payload = nullptr;  // release captures before the ack round-trip
  } else {
    dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
    if (auto* m = rt_.metrics_.load(std::memory_order_acquire)) {
      m->dup_suppressed->add(1);
    }
    traceFault("rts.dup_suppressed");
  }
  // Always ack — a re-ack covers the retransmission-after-lost-copy case.
  // Acks are wire traffic too: they ride the transport as kAck control
  // frames (but are never themselves injected with faults).
  Message ack;
  ack.from = p->to;
  ack.to = p->from;
  ack.bytes = kAckBytes;
  ack.kind = MessageKind::kAck;
  ack.on_receive = [this, p] { handleAck(p); };
  rt_.transport().deliver(std::move(ack), rt_.config_.comm.costUs(kAckBytes));
}

void ReliableLayer::handleAck(const std::shared_ptr<Pending>& p) {
  std::lock_guard lock(procs_[static_cast<std::size_t>(p->from)]->mutex);
  if (!p->acked) {
    p->acked = true;
    acked_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ReliableLayer::onTimer(const std::shared_ptr<Pending>& p) {
  enum class Action { kRetire, kExhaust, kRetransmit };
  Action action;
  {
    std::lock_guard lock(procs_[static_cast<std::size_t>(p->from)]->mutex);
    if (p->acked || abandon_.load(std::memory_order_relaxed) ||
        abandoned_to_[static_cast<std::size_t>(p->to)].load(
            std::memory_order_acquire)) {
      action = Action::kRetire;
    } else if (p->attempts >
               injector_.config().max_transport_retries) {
      action = Action::kExhaust;
    } else {
      action = Action::kRetransmit;
    }
  }
  switch (action) {
    case Action::kRetire:
      retire(p);
      break;
    case Action::kExhaust:
      undeliverable_.fetch_add(1, std::memory_order_relaxed);
      if (auto* m = rt_.metrics_.load(std::memory_order_acquire)) {
        m->undeliverable->add(1);
      }
      traceFault("rts.undeliverable");
      retire(p);
      break;
    case Action::kRetransmit:
      retries_.fetch_add(1, std::memory_order_relaxed);
      if (auto* m = rt_.metrics_.load(std::memory_order_acquire)) {
        m->retries->add(1);
      }
      traceFault("rts.retry");
      transmit(p);
      break;
  }
}

void ReliableLayer::retire(const std::shared_ptr<Pending>& p) {
  std::size_t erased;
  {
    auto& st = *procs_[static_cast<std::size_t>(p->from)];
    std::lock_guard lock(st.mutex);
    erased = st.pending.erase(p->seq);
  }
  if (erased != 0) inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void ReliableLayer::abandonAll() {
  abandon_.store(true, std::memory_order_relaxed);
}

void ReliableLayer::abandonRank(int rank) {
  abandoned_to_[static_cast<std::size_t>(rank)].store(
      true, std::memory_order_release);
}

void ReliableLayer::readmitRank(int rank) {
  abandoned_to_[static_cast<std::size_t>(rank)].store(
      false, std::memory_order_release);
}

double ReliableLayer::backoffUs(int attempts) const {
  const auto& cfg = injector_.config();
  double backoff = cfg.retry_backoff_us;
  for (int i = 1; i < attempts && backoff < cfg.retry_backoff_cap_us; ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, cfg.retry_backoff_cap_us);
}

std::string ReliableLayer::describeInflight() const {
  std::string out;
  for (std::size_t sender = 0; sender < procs_.size(); ++sender) {
    auto& st = *procs_[sender];
    std::lock_guard lock(st.mutex);
    if (st.pending.empty()) continue;
    out += "  proc " + std::to_string(sender) + ": " +
           std::to_string(st.pending.size()) + " unacked message(s), seq";
    int shown = 0;
    for (const auto& [seq, entry] : st.pending) {
      // Appended piecewise: chaining operator+ temporaries here trips
      // GCC 12's -Wrestrict false positive (PR 105651) under -O3.
      out += ' ';
      out += std::to_string(seq);
      out += "(attempts=";
      out += std::to_string(entry->attempts);
      out += ')';
      if (++shown == 4) break;
    }
    if (st.pending.size() > 4) out += " ...";
    out += "\n";
  }
  return out;
}

void ReliableLayer::traceFault(const char* name) const {
  if (auto* tb = rt_.trace_.load(std::memory_order_acquire)) {
    tb->instant(name, "fault", Runtime::currentProc(),
                Runtime::currentWorker());
  }
}

}  // namespace paratreet::rts
