package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/coverage"
	"gupster/internal/dirclient"
	"gupster/internal/wire"
)

// Registrar keeps a data store's coverage alive at the MDM: it announces
// the store's registrations at startup, heartbeats them on an interval so
// the MDM's lease never lapses, and — when a heartbeat comes back
// Known=false (an MDM that restarted without its journal and forgot the
// directory) — re-registers every coverage path automatically. Combined
// with the MDM's own journal this closes the recovery loop from both
// sides: a durable MDM needs no re-registration, and a forgetful one is
// healed by its stores within one heartbeat interval.
type Registrar struct {
	cfg RegistrarConfig
	// dir is the handle on the directory: it follows leader and shard
	// redirects, learns the shard map, and rotates off a dead address.
	dir *dirclient.Directory
	// beatOwner addresses heartbeats. Leases are kept per shard and a
	// heartbeat frame names no owner, so the beat goes where the last
	// coverage path was registered: a single-owner store renews the lease
	// its registrations created.
	beatOwner string

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup

	// Heartbeats and Reregistrations count successful renewals and full
	// coverage replays (observability, tests).
	Heartbeats      atomic.Uint64
	Reregistrations atomic.Uint64
}

// RegistrarConfig parameterizes a Registrar.
type RegistrarConfig struct {
	// Store is the store identity; Addr its dialable address, announced
	// with every registration and heartbeat.
	Store string
	Addr  string
	// MDM is the directory's address.
	MDM string
	// Coverage lists the store's coverage paths.
	Coverage []string
	// Interval is the heartbeat cadence; 0 disables heartbeating (the
	// registrar then only registers once). Keep it under the MDM's lease
	// TTL — half the TTL is a good default.
	Interval time.Duration
	// Logf, when non-nil, receives registrar events (re-registrations).
	Logf func(format string, args ...any)
}

// NewRegistrar creates a registrar; call Start.
func NewRegistrar(cfg RegistrarConfig) *Registrar {
	r := &Registrar{cfg: cfg, dir: dirclient.New(cfg.MDM), stop: make(chan struct{})}
	if n := len(cfg.Coverage); n > 0 {
		r.beatOwner = pathOwner(cfg.Coverage[n-1])
	}
	return r
}

func (r *Registrar) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// pathOwner names the profile owner a coverage path belongs to, so the
// call goes straight to the owner's home shard; "" when the path names
// none.
func pathOwner(path string) string {
	owner, _ := coverage.UserOfPath(path)
	return owner
}

// Register announces every coverage path (idempotent at the MDM).
func (r *Registrar) Register(ctx context.Context) error {
	for _, path := range r.cfg.Coverage {
		err := r.dir.Call(ctx, pathOwner(path), wire.TypeRegister, &wire.RegisterRequest{
			Store: r.cfg.Store, Address: r.cfg.Addr, Path: path,
		}, nil)
		if err != nil {
			return fmt.Errorf("register %q: %w", path, err)
		}
	}
	return nil
}

// Deregister withdraws every coverage path (orderly shutdown).
func (r *Registrar) Deregister(ctx context.Context) error {
	var firstErr error
	for _, path := range r.cfg.Coverage {
		err := r.dir.Call(ctx, pathOwner(path), wire.TypeUnregister, &wire.UnregisterRequest{
			Store: r.cfg.Store, Path: path,
		}, nil)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Start registers the coverage and, with an interval configured, begins
// heartbeating in the background. The initial registration failing is an
// error — a store that cannot reach its directory at startup is
// misconfigured; transient failures later are retried forever.
func (r *Registrar) Start(ctx context.Context) error {
	if err := r.Register(ctx); err != nil {
		return err
	}
	if r.cfg.Interval > 0 {
		r.done.Add(1)
		go r.loop()
	}
	return nil
}

// loop heartbeats until Close.
func (r *Registrar) loop() {
	defer r.done.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.beat()
		}
	}
}

// beat sends one heartbeat, re-registering when the MDM does not know us.
func (r *Registrar) beat() {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Interval)
	defer cancel()
	var resp wire.HeartbeatResponse
	err := r.dir.Call(ctx, r.beatOwner, wire.TypeHeartbeat, &wire.HeartbeatRequest{
		Store: r.cfg.Store, Addr: r.cfg.Addr,
	}, &resp)
	if err != nil {
		r.logf("registrar: heartbeat: %v", err)
		return
	}
	r.Heartbeats.Add(1)
	if !resp.Known {
		// The directory forgot us (restart without a journal): replay the
		// whole coverage.
		r.logf("registrar: MDM does not know %s; re-registering %d paths", r.cfg.Store, len(r.cfg.Coverage))
		if err := r.Register(ctx); err != nil {
			r.logf("registrar: re-register: %v", err)
			return
		}
		r.Reregistrations.Add(1)
	}
}

// Close stops heartbeating and drops the MDM connection. It does not
// deregister — call Deregister first for an orderly departure; after a
// crash the MDM's lease machinery quarantines the silence.
func (r *Registrar) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.done.Wait()
	r.dir.Close()
}
