package core

import (
	"log/slog"
	"sort"
	"time"

	"gupster/internal/coverage"
	"gupster/internal/wire"
)

// Store liveness (leases). A Napster-style directory is only as good as
// its knowledge of which peers are still there: a registration from a
// store that died an hour ago turns every resolve touching it into a
// timeout. With Config.LeaseTTL set, each registration or heartbeat
// grants the store a lease; a store silent past TTL+grace is quarantined
// — its registrations stay in the directory (it may only be partitioned)
// but query planning skips them, degrading resolves to partial results
// instead of burning retries against a corpse. A heartbeat or
// re-registration lifts the quarantine instantly.
//
// Liveness is judged lazily against the wall clock wherever it is asked —
// planning, the leader's shipped verdict, the `gupctl health` table, a
// renewal — so quarantine takes effect the moment the grace period
// lapses, and whichever of those first sees a store change state counts
// the quarantine or the recovery. No background goroutine sweeps leases.
//
// In a quorum constellation the leader is the one lease authority: store
// heartbeats are leader-only writes, the leader's quarantined set rides
// every append it ships, and a follower plans by that set instead of its
// own clocks (FollowLeases). A node that wins an election restarts every
// clock (LeadLeases), as boot's first-sight rule does, so no replica ever
// disagrees with the leader about which stores are reachable.

// lease tracks one store's liveness.
type lease struct {
	expires time.Time
	// quarantined is the verdict last observed, so each transition is
	// counted once.
	quarantined bool
}

func (m *MDM) leasesEnabled() bool { return m.cfg.LeaseTTL > 0 }

// grace returns the silence tolerated past lease expiry.
func (m *MDM) grace() time.Duration {
	if m.cfg.LeaseGrace > 0 {
		return m.cfg.LeaseGrace
	}
	return m.cfg.LeaseTTL
}

// renewLease grants or renews a store's lease (registration, heartbeat).
// A quarantine nobody had observed yet is counted before the renewal lifts
// it, so the recovery always follows a counted quarantine.
func (m *MDM) renewLease(storeID coverage.StoreID) {
	if !m.leasesEnabled() {
		return
	}
	now := time.Now()
	m.leaseMu.Lock()
	l := m.leases[storeID]
	if l == nil {
		l = &lease{expires: now}
		m.leases[storeID] = l
	}
	m.quarantinedLocked(storeID, l, now)
	l.expires = now.Add(m.cfg.LeaseTTL)
	m.quarantinedLocked(storeID, l, now)
	m.leaseMu.Unlock()
	m.Liveness.Renewals.Add(1)
}

// dropLease forgets a store's lease (last registration gone).
func (m *MDM) dropLease(storeID coverage.StoreID) {
	if !m.leasesEnabled() {
		return
	}
	m.leaseMu.Lock()
	delete(m.leases, storeID)
	m.leaseMu.Unlock()
}

// storeLive reports whether a store may appear in query plans: always
// true with leases disabled, otherwise true until the store's lease has
// been expired for longer than the grace period. A store with no lease
// entry (registered before leases were enabled, or restored from a
// snapshot) is granted one on first sight rather than condemned.
func (m *MDM) storeLive(storeID coverage.StoreID) bool {
	if !m.leasesEnabled() {
		return true
	}
	now := time.Now()
	m.leaseMu.Lock()
	defer m.leaseMu.Unlock()
	l := m.leases[storeID]
	if l == nil {
		// First sight (e.g. replayed from the journal at boot): start the
		// clock now so a recovering constellation gets a full TTL+grace to
		// re-heartbeat before anything is quarantined.
		l = &lease{expires: now.Add(m.cfg.LeaseTTL)}
		m.leases[storeID] = l
	}
	return !m.quarantinedLocked(storeID, l, now)
}

// quarantinedLocked is the one liveness verdict: the leader's on a
// follower that adopted one, this node's clock otherwise. It counts and
// logs a transition the first time it sees one; a store makes one per
// silence, so the event is not deferred past leaseMu. Caller holds
// leaseMu.
func (m *MDM) quarantinedLocked(storeID coverage.StoreID, l *lease, now time.Time) bool {
	q := now.After(l.expires.Add(m.grace()))
	if m.verdict != nil {
		q = m.verdict[storeID]
	}
	if q != l.quarantined {
		l.quarantined = q
		if q {
			m.Liveness.Quarantines.Add(1)
			slog.Info("store quarantined", "store", string(storeID))
		} else {
			m.Liveness.Recoveries.Add(1)
			slog.Info("store recovered", "store", string(storeID))
		}
	}
	return q
}

// Quarantined lists the stores this node's verdict excludes from plans —
// what a replication leader ships with every append. Nil when leases are
// disabled or every store is live.
func (m *MDM) Quarantined() []string {
	if !m.leasesEnabled() {
		return nil
	}
	now := time.Now()
	m.leaseMu.Lock()
	defer m.leaseMu.Unlock()
	var out []string
	for storeID, l := range m.leases {
		if m.quarantinedLocked(storeID, l, now) {
			out = append(out, string(storeID))
		}
	}
	return out
}

// FollowLeases makes this node plan by its replication leader's verdict:
// the listed stores are quarantined, every other store is live. The clocks
// of the live ones restart, so the health table's remaining time stays
// meaningful and a follower that wins the next election starts near where
// its leader left off.
func (m *MDM) FollowLeases(quarantined []string) {
	if !m.leasesEnabled() {
		return
	}
	verdict := make(map[coverage.StoreID]bool, len(quarantined))
	for _, id := range quarantined {
		verdict[coverage.StoreID(id)] = true
	}
	expires := time.Now().Add(m.cfg.LeaseTTL)
	m.leaseMu.Lock()
	defer m.leaseMu.Unlock()
	m.verdict = verdict
	for storeID, l := range m.leases {
		if !verdict[storeID] {
			l.expires = expires
		}
	}
}

// LeadLeases returns a node that won an election to its own clocks, every
// one restarted: the stores get a full TTL+grace to find the new leader
// with their heartbeats, as after a boot.
func (m *MDM) LeadLeases() {
	if !m.leasesEnabled() {
		return
	}
	expires := time.Now().Add(m.cfg.LeaseTTL)
	m.leaseMu.Lock()
	defer m.leaseMu.Unlock()
	m.verdict = nil
	for _, l := range m.leases {
		l.expires = expires
	}
}

// Heartbeat renews a store's lease. The response tells the store whether
// the MDM knows it as it is — Known false means the directory has no
// registrations for the store (an MDM restart without a journal) or names
// another address than the heartbeat's, and the store must re-register.
// A heartbeat changes no directory state: the re-registration carries the
// new address through the log like any other write.
func (m *MDM) Heartbeat(req *wire.HeartbeatRequest) *wire.HeartbeatResponse {
	storeID := coverage.StoreID(req.Store)
	known := m.Registry.StoreCount(storeID) > 0 && (req.Addr == "" || req.Addr == m.AddrOf(storeID))
	if known {
		m.renewLease(storeID)
	}
	return &wire.HeartbeatResponse{
		Known:     known,
		TTLMillis: m.cfg.LeaseTTL.Milliseconds(),
	}
}

// LeaseTable returns the store-liveness table for `gupctl health`, sorted
// by store. Empty when leases are disabled.
func (m *MDM) LeaseTable() []wire.LeaseInfo {
	if !m.leasesEnabled() {
		return nil
	}
	now := time.Now()
	m.leaseMu.Lock()
	out := make([]wire.LeaseInfo, 0, len(m.leases))
	for storeID, l := range m.leases {
		out = append(out, wire.LeaseInfo{
			Store:           string(storeID),
			Addr:            m.AddrOf(storeID),
			RemainingMillis: l.expires.Sub(now).Milliseconds(),
			Quarantined:     m.quarantinedLocked(storeID, l, now),
			Registrations:   m.Registry.StoreCount(storeID),
		})
	}
	m.leaseMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Store < out[j].Store })
	return out
}
