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
// the MDM's lease never lapses — one beat per shard its coverage is homed
// on — and, when a heartbeat comes back Known=false (an MDM that restarted
// without its journal and forgot the directory), re-registers the coverage
// paths homed there automatically. Combined
// with the MDM's own journal this closes the recovery loop from both
// sides: a durable MDM needs no re-registration, and a forgetful one is
// healed by its stores within one heartbeat interval.
type Registrar struct {
	cfg RegistrarConfig
	// dir is the handle on the directory: it follows leader and shard
	// redirects, learns the shard map, and rotates off a dead address.
	dir *dirclient.Directory

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup

	// Heartbeats and Reregistrations count successful renewals and
	// coverage replays, per home (observability, tests).
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
	return &Registrar{cfg: cfg, dir: dirclient.New(cfg.MDM), stop: make(chan struct{})}
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
	return r.register(ctx, r.cfg.Coverage)
}

func (r *Registrar) register(ctx context.Context, paths []string) error {
	for _, path := range paths {
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

// beat renews the store's lease at every home of its coverage. Leases are
// kept per shard and a heartbeat frame names no owner, so the coverage is
// grouped by where the handle routes each path's owner right now (one group
// on an unsharded directory) and each home gets a beat addressed through
// one of its owners. A home that does not know us — a directory restarted
// without its journal, a shard whose slice moved away — gets its own paths
// re-registered, which the handle routes wherever they live now.
func (r *Registrar) beat() {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Interval)
	defer cancel()
	homes := map[string][]string{}
	for _, path := range r.cfg.Coverage {
		addr := r.dir.AddrFor(pathOwner(path))
		homes[addr] = append(homes[addr], path)
	}
	for _, paths := range homes {
		var resp wire.HeartbeatResponse
		err := r.dir.Call(ctx, pathOwner(paths[0]), wire.TypeHeartbeat, &wire.HeartbeatRequest{
			Store: r.cfg.Store, Addr: r.cfg.Addr,
		}, &resp)
		if err != nil {
			r.logf("registrar: heartbeat: %v", err)
			continue
		}
		r.Heartbeats.Add(1)
		if resp.Known {
			continue
		}
		r.logf("registrar: MDM does not know %s; re-registering %d paths", r.cfg.Store, len(paths))
		if err := r.register(ctx, paths); err != nil {
			r.logf("registrar: re-register: %v", err)
			continue
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
