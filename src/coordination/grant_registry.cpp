#include "coordination/grant_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/span.hpp"

namespace hdc::coordination {

void GrantRegistry::instrument(telemetry::MetricsRegistry& metrics) {
  grant_ns_ = metrics.histogram(telemetry::kCoordinationGrantSpan);
  renew_ns_ = metrics.histogram(telemetry::kCoordinationRenewSpan);
  expire_ns_ = metrics.histogram(telemetry::kCoordinationExpireSpan);
  grants_counter_ = metrics.counter(telemetry::kCoordinationGrants);
  denials_counter_ = metrics.counter(telemetry::kCoordinationDenials);
  revocations_counter_ = metrics.counter(telemetry::kCoordinationRevocations);
  renewals_counter_ = metrics.counter(telemetry::kCoordinationRenewals);
  expiries_counter_ = metrics.counter(telemetry::kCoordinationExpiries);
}

GrantRegistry::GrantRegistry(std::size_t cells, std::uint64_t ttl)
    : slots_(cells), ttl_(ttl) {
  if (cells == 0) {
    throw std::invalid_argument("GrantRegistry: need at least one cell");
  }
  if (ttl == 0) {
    throw std::invalid_argument("GrantRegistry: ttl must be positive");
  }
}

GrantRegistry::Slot& GrantRegistry::slot(int cell) {
  if (cell < 0 || static_cast<std::size_t>(cell) >= slots_.size()) {
    throw std::out_of_range("GrantRegistry: bad cell id");
  }
  return slots_[static_cast<std::size_t>(cell)];
}

const GrantRegistry::Slot& GrantRegistry::slot(int cell) const {
  if (cell < 0 || static_cast<std::size_t>(cell) >= slots_.size()) {
    throw std::out_of_range("GrantRegistry: bad cell id");
  }
  return slots_[static_cast<std::size_t>(cell)];
}

void GrantRegistry::publish(Slot& slot, const GrantRecord& record) {
  // The standard C++ seqlock writer (cf. Boehm, "Can seqlocks get along
  // with programming memory models?"): odd version first, then RELEASE
  // field stores — each one publishes the odd version to any reader whose
  // acquire load observes it — and a release store of the even version so
  // a reader that acquires it sees every field. Ordered accesses rather
  // than a standalone fence, because ThreadSanitizer models those.
  const std::uint32_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  slot.state.store(static_cast<std::uint8_t>(record.state),
                   std::memory_order_release);
  slot.holder.store(record.holder, std::memory_order_release);
  slot.granted_seq.store(record.granted_seq, std::memory_order_release);
  slot.expires_seq.store(record.expires_seq, std::memory_order_release);
  slot.renewals.store(record.renewals, std::memory_order_release);
  slot.version.store(v + 2, std::memory_order_release);
}

GrantRecord GrantRegistry::writer_read(const Slot& slot) {
  GrantRecord record;
  record.state = static_cast<GrantState>(slot.state.load(std::memory_order_relaxed));
  record.holder = slot.holder.load(std::memory_order_relaxed);
  record.granted_seq = slot.granted_seq.load(std::memory_order_relaxed);
  record.expires_seq = slot.expires_seq.load(std::memory_order_relaxed);
  record.renewals = slot.renewals.load(std::memory_order_relaxed);
  return record;
}

GrantRecord GrantRegistry::read(int cell) const {
  const Slot& s = slot(cell);
  GrantRecord record;
  for (;;) {
    const std::uint32_t before = s.version.load(std::memory_order_acquire);
    if (before & 1U) continue;  // write in progress; retry
    // ACQUIRE field loads: one that observes a writer's release store also
    // observes that writer's earlier odd version, so the re-read below sees
    // the odd version (or a newer one) and retries. Acquire also keeps the
    // re-read from moving above any field load.
    record.state =
        static_cast<GrantState>(s.state.load(std::memory_order_acquire));
    record.holder = s.holder.load(std::memory_order_acquire);
    record.granted_seq = s.granted_seq.load(std::memory_order_acquire);
    record.expires_seq = s.expires_seq.load(std::memory_order_acquire);
    record.renewals = s.renewals.load(std::memory_order_acquire);
    if (s.version.load(std::memory_order_relaxed) == before) return record;
  }
}

void GrantRegistry::snapshot(std::vector<GrantRecord>& out) const {
  out.resize(slots_.size());
  for (std::size_t cell = 0; cell < slots_.size(); ++cell) {
    out[cell] = read(static_cast<int>(cell));
  }
}

bool GrantRegistry::held_by(int cell, std::uint32_t holder,
                            std::uint64_t now) const {
  const GrantRecord record = read(cell);
  return live_grant(record, now) && record.holder == holder;
}

bool GrantRegistry::grant(int cell, std::uint32_t holder,
                          std::uint64_t sequence) {
  // Covers the whole call, including the re-grant-as-renewal path (which
  // then records under the renew span as well).
  TELEMETRY_SPAN(grant_ns_);
  Slot& s = slot(cell);
  const GrantRecord current = writer_read(s);
  if (live_grant(current, sequence) && current.holder != holder) {
    // Single-holder invariant: the cell is taken. This is the late-abort
    // race made harmless — a loser whose dialogue completed anyway cannot
    // displace the winner's grant.
    conflicts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (live_grant(current, sequence) && current.holder == holder) {
    // Re-granting to the holder is a lease renewal, not a new grant.
    return renew(cell, holder, sequence);
  }
  GrantRecord next;
  next.state = GrantState::kGranted;
  next.holder = holder;
  next.granted_seq = sequence;
  next.expires_seq = sequence + ttl_;
  next.renewals = 0;
  publish(s, next);
  grants_.fetch_add(1, std::memory_order_relaxed);
  grants_counter_.add(1);
  return true;
}

bool GrantRegistry::deny(int cell, std::uint32_t by, std::uint64_t sequence) {
  Slot& s = slot(cell);
  const GrantRecord current = writer_read(s);
  if (live_grant(current, sequence) && current.holder != by) {
    // Another drone validly holds the cell; a third party's denied
    // dialogue must not erase that lease (same single-holder reasoning as
    // grant(): only the human's No — a revocation — may end it early).
    conflicts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  GrantRecord next;
  next.state = GrantState::kDenied;
  next.holder = by;
  next.granted_seq = sequence;
  next.expires_seq = sequence + ttl_;
  next.renewals = 0;
  publish(s, next);
  denials_.fetch_add(1, std::memory_order_relaxed);
  denials_counter_.add(1);
  return true;
}

bool GrantRegistry::revoke(int cell, std::uint64_t sequence) {
  Slot& s = slot(cell);
  GrantRecord current = writer_read(s);
  if (current.state != GrantState::kGranted) return false;
  current.state = GrantState::kRevoked;
  current.granted_seq = sequence;
  // A revocation is the human's refusal, like a denial: keep-clear for
  // one TTL, then age out (a permanent fleet-wide block would need a
  // fresh No every lease period — the human stays in charge either way).
  current.expires_seq = sequence + ttl_;
  publish(s, current);
  revocations_.fetch_add(1, std::memory_order_relaxed);
  revocations_counter_.add(1);
  return true;
}

bool GrantRegistry::renew(int cell, std::uint32_t holder,
                          std::uint64_t sequence) {
  TELEMETRY_SPAN(renew_ns_);
  Slot& s = slot(cell);
  GrantRecord current = writer_read(s);
  // Revoked/expired/denied grants stay dead: renewal extends a LIVE lease
  // only (the revocation-vs-renewal race always ends revoked).
  if (!live_grant(current, sequence) || current.holder != holder) return false;
  // Monotone lease end: a renewal stamped with a stale sequence extends
  // the lease or leaves it alone — it can never pull expiry earlier.
  current.expires_seq = std::max(current.expires_seq, sequence + ttl_);
  current.renewals += 1;
  publish(s, current);
  renewals_.fetch_add(1, std::memory_order_relaxed);
  renewals_counter_.add(1);
  return true;
}

std::size_t GrantRegistry::expire(std::uint64_t now) {
  TELEMETRY_SPAN(expire_ns_);
  std::size_t expired = 0;
  for (Slot& s : slots_) {
    GrantRecord current = writer_read(s);
    const bool leased = current.state == GrantState::kGranted ||
                        current.state == GrantState::kDenied ||
                        current.state == GrantState::kRevoked;
    if (!leased || now < current.expires_seq) continue;
    current.state = GrantState::kExpired;
    publish(s, current);
    ++expired;
  }
  expiries_.fetch_add(expired, std::memory_order_relaxed);
  if (expired != 0) expiries_counter_.add(expired);
  return expired;
}

RegistryStats GrantRegistry::stats() const noexcept {
  return {grants_.load(std::memory_order_relaxed),
          denials_.load(std::memory_order_relaxed),
          revocations_.load(std::memory_order_relaxed),
          renewals_.load(std::memory_order_relaxed),
          expiries_.load(std::memory_order_relaxed),
          conflicts_.load(std::memory_order_relaxed)};
}

}  // namespace hdc::coordination
