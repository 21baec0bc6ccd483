// Package core implements the GUPster meta-data manager (MDM) — the paper's
// primary contribution (§4): a Napster-style server that stores no profile
// data itself, only meta-data (coverage and access-control policy), and
// resolves client requests into signed referrals to the data stores that
// hold the profile components.
//
// The MDM composes the substrate packages: the coverage registry (§4.3,
// §4.5), the privacy shield and policy infrastructure (§4.6), signed query
// tokens (§5.3), and the distributed query patterns — referral, chaining,
// recruiting (§5.2) — plus the optional component cache and the
// subscription (push) service §5.2 calls for.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gupster/internal/coverage"
	"gupster/internal/flight"
	"gupster/internal/journal"
	"gupster/internal/metrics"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/provenance"
	"gupster/internal/resilience"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/trace"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Resolution failures.
var (
	ErrDenied     = errors.New("gupster: access denied")
	ErrSpurious   = errors.New("gupster: query does not fit the GUP schema")
	ErrNoCoverage = store.ErrNoCoverage
	ErrNoOwner    = errors.New("gupster: request does not identify a profile owner")
)

// Config parameterizes an MDM.
type Config struct {
	// Schema validates request paths (spurious-query filtering, §5.3) and
	// is handed to the policy administration point. Nil disables filtering.
	Schema *schema.Schema
	// Signer signs referrals; shared with the data stores.
	Signer *token.Signer
	// GrantTTL bounds referral validity; default 30s.
	GrantTTL time.Duration
	// CacheEntries sizes the component cache used by chaining resolves;
	// 0 disables caching.
	CacheEntries int
	// Provenance, when non-nil, receives a disclosure record for every
	// grant and denial the MDM renders (§7's data-provenance challenge).
	Provenance *provenance.Ledger
	// Adjuncts, when non-nil, supply schema-adjunct metadata (requirement
	// 8): components annotated NoCache bypass the chaining cache even when
	// caching is enabled.
	Adjuncts *schema.Adjuncts
	// Retry and Breaker parameterize the MDM's resilience layer on the
	// server-side query patterns (chaining and recruiting store fetches);
	// zero values mean defaults.
	Retry   resilience.Policy
	Breaker resilience.BreakerConfig
	// FanOut bounds the worker pool of every parallel fan-out (store
	// fetches within an alternative, batch-resolve entries); 0 means
	// flight.DefaultWorkers.
	FanOut int
	// DisableCoalescing turns off in-flight request coalescing of
	// chaining/recruiting resolves — the ablation measured by the resolve
	// benchmark.
	DisableCoalescing bool
	// SlowThreshold flags traced resolves slower than this into the slow
	// query log; 0 means trace.DefaultSlowThreshold, negative disables the
	// log.
	SlowThreshold time.Duration
	// LeaseTTL enables store-liveness leases: every registration and
	// heartbeat grants the store a lease of this duration, and a store
	// silent past LeaseTTL+LeaseGrace is quarantined out of query plans
	// until it heartbeats or re-registers. 0 (the default) disables
	// leases: registrations never expire, matching pre-lease behavior.
	LeaseTTL time.Duration
	// LeaseGrace is the extra silence tolerated past lease expiry before
	// quarantine; 0 means LeaseTTL (i.e. a store is cut after two missed
	// lease periods).
	LeaseGrace time.Duration
	// Overload parameterizes the admission controller in front of the
	// MDM's wire dispatch: bounded concurrency, the LIFO wait queue,
	// priority classes, and the brownout detector. A zero MaxConcurrency
	// disables admission control (pre-overload behavior).
	Overload overload.Config
}

// Stats are the MDM's observability counters.
type Stats struct {
	Resolves    atomic.Uint64
	Denied      atomic.Uint64
	Spurious    atomic.Uint64
	CacheHits   atomic.Uint64
	CacheMisses atomic.Uint64
	// ShieldEvals counts privacy-shield decisions — the quantity push
	// subscriptions save versus polling (benchmark E8).
	ShieldEvals  atomic.Uint64
	BytesProxied atomic.Uint64
	Notifies     atomic.Uint64
}

// MDM is the GUPster server core. It is usable in-process (benchmarks,
// embedded deployments) or wrapped by Server for the wire protocol.
type MDM struct {
	cfg      Config
	Registry *coverage.Registry
	Repo     *policy.Repository
	PAP      *policy.AdministrationPoint
	PDP      *policy.DecisionPoint
	Stats    Stats

	mu    sync.RWMutex
	addrs map[coverage.StoreID]string // store → dialable address

	// mutMu serialises the mutation path (check + append, and on a
	// standalone MDM the publish), so a check still holds when its record
	// is applied. Resolves never take it.
	mutMu sync.Mutex

	// pubMu serialises the publish step and Restore's install; published
	// is the index of the last journal record the directory holds.
	pubMu     sync.Mutex
	published atomic.Uint64

	cache *componentCache
	subs  *subscriptions

	res *resilience.Group

	// adm gates the wire dispatch (Server.serve) and drives brownout
	// answers; always non-nil, disabled unless Config.Overload enables it.
	adm *overload.Controller

	// flights coalesces identical concurrent chaining/recruiting resolves
	// (keyed on pattern+verb+requester+owner+grants) so N callers cost one
	// upstream round trip; pipe counts flights, coalesce hits, fan-outs
	// and batches.
	flights *flight.Group
	pipe    *metrics.PipelineStats

	// tracer records this MDM's spans and — because clients report their
	// finished traces here — acts as the constellation's trace directory.
	tracer *trace.Collector

	// pool holds the connections to the data stores; plans executes the
	// server-side query patterns (chaining, recruiting) over it.
	pool  wire.Pool
	plans store.Executor

	// journal, when attached, makes the meta-data directory crash-safe:
	// every Register/Unregister/PutRule/DeleteRule appends a durable
	// record before the caller is acknowledged, and the directory is the
	// log's published prefix. Set once via AttachJournal before the MDM
	// starts serving.
	journal *journal.Journal

	// replicate, when set, owns the durable append path: instead of
	// appending to the local journal directly, write hands the record to
	// the replication layer, which acknowledges only after a quorum of the
	// constellation has it durably. Set once via SetReplicator before
	// serving.
	replicate func(journal.Record) error

	// replStatus, when set, feeds the node's replication/election view
	// into Snapshot(); core cannot import the replication package (it
	// imports core), so the status crosses as a callback.
	replStatus func() *wire.ReplStatus

	// Store-liveness state (leases). leases is keyed by store; entries
	// exist only while the store holds registrations and leases are
	// enabled. verdict, when non-nil, is the replication leader's
	// quarantined set a follower plans by instead of its own clocks.
	leaseMu  sync.Mutex
	leases   map[coverage.StoreID]*lease
	verdict  map[coverage.StoreID]bool
	Liveness *metrics.LivenessStats
}

// New assembles an MDM.
func New(cfg Config) *MDM {
	if cfg.GrantTTL == 0 {
		cfg.GrantTTL = 30 * time.Second
	}
	repo := policy.NewRepository()
	m := &MDM{
		cfg:      cfg,
		Registry: coverage.New(),
		Repo:     repo,
		PDP:      &policy.DecisionPoint{Repo: repo, DefaultOwnerAccess: true},
		addrs:    make(map[coverage.StoreID]string),
		subs:     newSubscriptions(),
		res:      resilience.NewGroup(cfg.Retry, cfg.Breaker, nil),
		adm:      overload.New(cfg.Overload, nil),
		leases:   make(map[coverage.StoreID]*lease),
		Liveness: &metrics.LivenessStats{},
	}
	m.pipe = &metrics.PipelineStats{}
	m.flights = flight.NewGroup(m.pipe)
	m.plans = store.Executor{
		Pool:       &m.pool,
		Resilience: m.res,
		FanOut:     cfg.FanOut,
		Pipe:       m.pipe,
		Span:       "mdm.fetch",
	}
	m.tracer = trace.NewCollector("mdm", 0, cfg.SlowThreshold)
	m.PAP = &policy.AdministrationPoint{Repo: repo}
	if cfg.Schema != nil {
		m.PAP.ValidatePath = cfg.Schema.ValidatePath
	}
	if cfg.CacheEntries > 0 {
		m.cache = newComponentCache(cfg.CacheEntries)
	}
	return m
}

// Register records that a store (reachable at addr) covers path. A
// re-registration with a new address is authoritative: a store that moved
// replaces its previous address (the stale pooled connection is dropped).
// An empty addr means "no address update" — a store adding a second
// coverage path without repeating its address keeps the address the
// directory already knows. With a journal attached the registration is
// durable before Register returns; with leases enabled it also
// grants/renews the store's lease.
func (m *MDM) Register(storeID coverage.StoreID, addr string, path xpath.Path) error {
	if err := coverage.CheckPath(path); err != nil {
		return err
	}
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	return m.write(journal.Record{Op: journal.OpRegister, Register: &wire.RegisterRequest{
		Store: string(storeID), Address: addr, Path: path.String(),
	}})
}

func (m *MDM) applyRegister(storeID coverage.StoreID, addr string, path xpath.Path) error {
	if err := m.Registry.Register(path, storeID); err != nil {
		return err
	}
	m.mu.Lock()
	old := m.addrs[storeID]
	// An empty addr is "no address update", not "forget the address":
	// wiping it would leave every other registration of the store
	// undialable until its next heartbeat.
	if addr != "" {
		m.addrs[storeID] = addr
	}
	m.mu.Unlock()
	if old != "" && addr != "" && old != addr {
		m.pool.Evict(old)
	}
	m.renewLease(storeID)
	return nil
}

// Unregister withdraws a coverage registration. When the store's last
// registration goes, its address, pooled connection, and lease go with it
// — the directory forgets the store completely.
func (m *MDM) Unregister(storeID coverage.StoreID, path xpath.Path) error {
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	if !m.Registry.Registered(path, storeID) {
		return coverage.ErrNotRegistered
	}
	return m.write(journal.Record{Op: journal.OpUnregister, Unregister: &wire.UnregisterRequest{
		Store: string(storeID), Path: path.String(),
	}})
}

func (m *MDM) applyUnregister(storeID coverage.StoreID, path xpath.Path) error {
	if err := m.Registry.Unregister(path, storeID); err != nil {
		return err
	}
	if m.Registry.StoreCount(storeID) == 0 {
		m.forgetStore(storeID)
	}
	return nil
}

// forgetStore drops every per-store resource outside the registry: the
// dialable address, the pooled chaining connection, and the lease.
func (m *MDM) forgetStore(storeID coverage.StoreID) {
	m.mu.Lock()
	addr := m.addrs[storeID]
	delete(m.addrs, storeID)
	m.mu.Unlock()
	if addr != "" {
		m.pool.Evict(addr)
	}
	m.dropLease(storeID)
}

// AddrOf returns a store's dialable address.
func (m *MDM) AddrOf(storeID coverage.StoreID) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.addrs[storeID]
}

// ownerOf determines the profile owner of a request.
func ownerOf(req *wire.ResolveRequest, p xpath.Path) (string, error) {
	if req.Owner != "" {
		return req.Owner, nil
	}
	if u, ok := coverage.UserOf(p); ok {
		return u, nil
	}
	return "", ErrNoOwner
}

// Resolve is the MDM's central operation: filter, decide, rewrite, sign.
// For the referral pattern the response carries alternatives of signed
// queries; for chaining and recruiting it carries merged data. A token is
// signed only where it is used: every referral, and inside the flight of a
// chaining miss or a recruit — a chaining resolve the component cache
// answers signs nothing.
func (m *MDM) Resolve(ctx context.Context, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	// The span finishes before Resolve returns so the serving layer can
	// drain it onto the reply frame (a deferred finish would fire after the
	// frame left).
	ctx, sp := trace.Start(ctx, "mdm.resolve")
	resp, err := m.resolve(ctx, sp, req)
	sp.Finish(err)
	return resp, err
}

func (m *MDM) resolve(ctx context.Context, sp *trace.Active, req *wire.ResolveRequest) (*wire.ResolveResponse, error) {
	m.Stats.Resolves.Add(1)
	p, err := xpath.Parse(req.Path)
	if err != nil {
		m.Stats.Spurious.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrSpurious, err)
	}
	if m.cfg.Schema != nil {
		if err := m.cfg.Schema.ValidatePath(p); err != nil {
			m.Stats.Spurious.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrSpurious, err)
		}
	}
	owner, err := ownerOf(req, p)
	if err != nil {
		return nil, err
	}
	verb := req.Verb
	if verb == "" {
		verb = token.VerbFetch
	}

	m.Stats.ShieldEvals.Add(1)
	decision := m.PDP.Decide(owner, p, req.Context)
	if !decision.Granted() {
		m.Stats.Denied.Add(1)
		m.recordProvenance(owner, req, verb, decision, nil, nil)
		return nil, fmt.Errorf("%w: %s for %s", ErrDenied, req.Path, req.Context.Requester)
	}

	routes, degraded, err := m.plan(decision.Grants)
	if err != nil {
		return nil, err
	}
	// The grants are rendered once: the provenance record and the cache
	// key share the strings.
	grants := renderGrants(decision.Grants)
	m.recordProvenance(owner, req, verb, decision, grants, routes)
	if len(degraded) > 0 {
		m.Liveness.DegradedResolves.Add(1)
		sp.Annotate("degraded=" + strings.Join(degraded, ","))
	}
	requester := req.Context.Requester

	switch req.Pattern {
	case "", wire.PatternReferral:
		// Referral planning is local CPU work (lookup + sign); coalescing
		// would only serialize it.
		sp.Annotate("pattern=referral")
		return &wire.ResolveResponse{Alternatives: m.sign(routes, owner, verb, requester), Degraded: degraded}, nil
	case wire.PatternChaining:
		sp.Annotate("pattern=chaining")
		key := cacheKey(owner, grants)
		cacheable, ttl := m.cacheableGrants(decision.Grants)
		if cacheable {
			// A hit has passed the filter, the decision and the routing
			// above, so it keeps every verdict a miss gets; it only skips
			// the tokens and the flight, which exist to fetch.
			if xml, ok := m.cache.get(key); ok {
				m.Stats.CacheHits.Add(1)
				sp.Annotate("cache-hit")
				return &wire.ResolveResponse{Data: xml, Cached: true, Degraded: degraded}, nil
			}
		}
		return m.coalesce(ctx, flightKey(wire.PatternChaining, requester, verb, key), sp, func() (*wire.ResolveResponse, error) {
			resp, err := m.chain(ctx, owner, key, cacheable, ttl, grants, m.sign(routes, owner, verb, requester))
			if resp != nil {
				// Append, not overwrite: chain may have stamped its own
				// degradation (brownout-stale paths) that must survive.
				resp.Degraded = append(resp.Degraded, degraded...)
			}
			return resp, err
		})
	case wire.PatternRecruiting:
		sp.Annotate("pattern=recruiting")
		key := flightKey(wire.PatternRecruiting, requester, verb, cacheKey(owner, grants))
		return m.coalesce(ctx, key, sp, func() (*wire.ResolveResponse, error) {
			resp, err := m.recruit(ctx, m.sign(routes, owner, verb, requester))
			if resp != nil {
				resp.Degraded = append(resp.Degraded, degraded...)
			}
			return resp, err
		})
	default:
		return nil, fmt.Errorf("gupster: unknown query pattern %q", req.Pattern)
	}
}

// flightKey identifies a coalesceable resolve: same pattern, verb,
// requester, owner, and grant set (the last two are the cacheKey) means
// the same upstream work and the same access-control outcome, so
// concurrent callers may share one flight. The requester is part of the
// key — two principals never share a flight even when their grants happen
// to coincide.
func flightKey(pattern wire.QueryPattern, requester string, verb token.Verb, cacheKey string) string {
	return string(pattern) + "\x00" + string(verb) + "\x00" + requester + "\x00" + cacheKey
}

// coalesce funnels fn through the MDM's flight group: concurrent
// identical resolves execute once and share the result (and the error —
// a breaker trip on the leader is the followers' verdict too, without
// extra attempts inflating the failure counters). Coalesced callers are
// visible in traces: followers' spans carry a "coalesced" note.
func (m *MDM) coalesce(ctx context.Context, key string, sp *trace.Active, fn func() (*wire.ResolveResponse, error)) (*wire.ResolveResponse, error) {
	if m.cfg.DisableCoalescing {
		return fn()
	}
	v, shared, err := m.flights.Do(ctx, key, func() (any, error) { return fn() })
	if shared {
		sp.Annotate("coalesced")
	}
	if err != nil {
		return nil, err
	}
	resp, _ := v.(*wire.ResolveResponse)
	return resp, nil
}

// BatchResolve answers every entry of a batch concurrently on the MDM's
// bounded fan-out pool. Results are positional and independent: entry i
// answers req.Requests[i], and a failing entry carries its error string
// without affecting its siblings. Identical entries still coalesce
// through the flight group, inside and across batches.
func (m *MDM) BatchResolve(ctx context.Context, req *wire.BatchResolveRequest) (*wire.BatchResolveResponse, error) {
	if len(req.Requests) == 0 {
		return nil, errors.New("gupster: empty batch")
	}
	m.pipe.BatchResolves.Add(1)
	m.pipe.BatchedQueries.Add(uint64(len(req.Requests)))
	results := make([]wire.BatchResolveEntry, len(req.Requests))
	_ = flight.ForEach(ctx, len(req.Requests), m.cfg.FanOut, func(i int) error {
		r := req.Requests[i]
		resp, err := m.Resolve(ctx, &r)
		if err != nil {
			results[i] = wire.BatchResolveEntry{Error: err.Error()}
		} else {
			results[i] = wire.BatchResolveEntry{Response: resp}
		}
		return nil // per-entry failures stay in the entry
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &wire.BatchResolveResponse{Results: results}, nil
}

// route is one referral of a plan before it is signed: the store that
// holds the piece, the grant it serves, and, for a store holding only part
// of the grant, the registration that says which part.
type route struct {
	store coverage.StoreID
	grant xpath.Path
	reg   xpath.Path // zero when the store covers the whole grant
}

// path is what the route's token allows: the grant itself where the store
// covers all of it (the store holds a superset, the client asks for exactly
// what was granted), else the intersection of the grant and the
// registration, exactly the piece this store holds of what was granted.
// The registration partly covers the grant, so the two meet.
func (r route) path() xpath.Path {
	if r.reg.IsZero() {
		return r.grant
	}
	piece, _ := xpath.Intersect(r.grant, r.reg)
	return piece
}

// option is one alternative of a plan: its routes are answered together,
// deep-unioned when merge says so.
type option struct {
	routes []route
	merge  string
}

// plan rewrites granted paths into the alternatives a referral will carry,
// without signing them: sign turns them into signed referrals where a
// resolve needs tokens.
//
// For a single grant: every full-cover registration yields a one-referral
// alternative (the client's choice, the paper's "||"); if none exists but
// partial covers do, they form one multi-referral alternative whose pieces
// the client merges (Figure 9). With several narrowed grants the per-grant
// plans are combined into a single alternative (all pieces needed).
//
// Quarantined stores (lease expired past the grace period) are excluded.
// A grant whose every covering store is quarantined degrades: its path is
// returned in degraded and the resolve proceeds with the remaining grants
// as a partial result. A grant with no coverage at all — quarantine aside
// — is still a hard ErrNoCoverage, as is the case where quarantine leaves
// nothing to answer with.
func (m *MDM) plan(grants []xpath.Path) ([]option, []string, error) {
	var degraded []string
	var local [4][]option
	perGrant := local[:0]
	for _, g := range grants {
		// Lookup answers full covers before partial ones.
		matches := m.Registry.Lookup(g)
		var opts []option
		var pieces []route
		excluded := 0
		for i, mt := range matches {
			switch {
			case !m.storeLive(mt.Store):
				excluded++
			case mt.Rel == xpath.CoverFull:
				opts = append(opts, option{routes: []route{{store: mt.Store, grant: g}}})
			case len(opts) == 0:
				if pieces == nil {
					pieces = make([]route, 0, len(matches)-i)
				}
				pieces = append(pieces, route{store: mt.Store, grant: g, reg: mt.Path})
			}
		}
		if excluded > 0 {
			m.Liveness.PlanExclusions.Add(uint64(excluded))
		}
		if len(opts) == 0 && len(pieces) > 0 {
			opts = []option{{routes: pieces, merge: "deep-union"}}
		}
		if len(opts) == 0 {
			if excluded > 0 {
				degraded = append(degraded, g.String())
				continue
			}
			return nil, nil, fmt.Errorf("%w: %s", ErrNoCoverage, g)
		}
		perGrant = append(perGrant, opts)
	}

	if len(perGrant) == 0 {
		return nil, nil, fmt.Errorf("%w: every covering store is quarantined", ErrNoCoverage)
	}
	if len(perGrant) == 1 {
		return perGrant[0], degraded, nil
	}
	// Multiple narrowed grants: all pieces are needed together. Take the
	// first alternative of each grant and combine.
	combined := option{merge: "deep-union"}
	for _, opts := range perGrant {
		combined.routes = append(combined.routes, opts[0].routes...)
	}
	return []option{combined}, degraded, nil
}

// sign turns a plan into referral alternatives: one token per route, for
// requester to perform verb on owner's data, valid for GrantTTL. A route's
// path is cut here, so only the routes signed are intersected.
func (m *MDM) sign(opts []option, owner string, verb token.Verb, requester string) []wire.Alternative {
	alts := make([]wire.Alternative, len(opts))
	for i, o := range opts {
		refs := make([]wire.Referral, len(o.routes))
		for j, r := range o.routes {
			refs[j] = wire.Referral{
				Query:   m.cfg.Signer.Sign(string(r.store), owner, r.path(), verb, requester, m.cfg.GrantTTL),
				Address: m.AddrOf(r.store),
			}
		}
		alts[i] = wire.Alternative{Referrals: refs, Merge: o.merge}
	}
	return alts
}

// renderGrants renders granted paths, in order.
func renderGrants(grants []xpath.Path) []string {
	out := make([]string, len(grants))
	for i, g := range grants {
		out[i] = g.String()
	}
	return out
}

// cacheKey derives the cache identity of a grant set: the owner and the
// sorted rendered grants, NUL-separated.
func cacheKey(owner string, grants []string) string {
	if len(grants) == 1 {
		return owner + "\x00" + grants[0]
	}
	parts := make([]string, 1+len(grants))
	parts[0] = owner
	copy(parts[1:], grants)
	sort.Strings(parts[1:])
	return strings.Join(parts, "\x00")
}

// chain implements the chaining pattern on a cache miss: the MDM fetches
// the pieces itself, merges, and returns data — for clients too limited to
// follow referrals (§5.2). When cacheable, the result is cached under key
// (resolve probed it before the flight), to expire after ttl if positive.
func (m *MDM) chain(ctx context.Context, owner, key string, cacheable bool, ttl time.Duration, grants []string, alts []wire.Alternative) (resp *wire.ResolveResponse, err error) {
	ctx, sp := trace.Start(ctx, "mdm.chain")
	defer func() { sp.Finish(err) }()
	var gen uint64
	if cacheable {
		m.Stats.CacheMisses.Add(1)
		sp.Annotate("cache-miss")
		// Brownout: under sustained pressure a miss serves the invalidated
		// entry instead of dialing stores — a possibly outdated answer on
		// the call-setup path beats a shed, and skipping the fetch is
		// precisely what relieves the pressure. The response is stamped
		// Stale and lists the grants whose fresh fetch was skipped.
		if m.adm.Brownout() {
			if xml, ok := m.cache.staleGet(key); ok {
				m.adm.Stats.BrownoutServed.Add(1)
				sp.Annotate("brownout-stale")
				deg := slices.Clone(grants)
				return &wire.ResolveResponse{Data: xml, Cached: true, Stale: true, Degraded: deg}, nil
			}
		}
		// Read the owner's invalidation generation before fetching: if a
		// component changes while this flight is up, the stale result must
		// not be reinstated into the cache (fill below refuses it).
		gen = m.cache.gen(owner)
	}

	xml, err := store.Run(ctx, m.plans, alts, m.plans.FetchXML)
	if err != nil {
		return nil, err
	}
	m.Stats.BytesProxied.Add(uint64(len(xml)))
	if cacheable && xml != "" {
		m.cache.fill(key, owner, xml, gen, ttl)
	}
	return &wire.ResolveResponse{Data: xml}, nil
}

// cacheableGrants reports whether the answer to grants may be cached: the
// MDM has a cache and no granted path is annotated NoCache by the schema
// adjuncts (volatile and financial components are). It also says for how
// long: the least CacheTTL among the grants, 0 when none sets one. Without
// adjuncts everything is cacheable, for as long as it stays in the cache.
func (m *MDM) cacheableGrants(grants []xpath.Path) (bool, time.Duration) {
	if m.cache == nil {
		return false, 0
	}
	if m.cfg.Adjuncts == nil {
		return true, 0
	}
	var ttl time.Duration
	for _, g := range grants {
		adj, ok := m.cfg.Adjuncts.Lookup(g)
		if !ok {
			continue
		}
		if adj.NoCache {
			return false, 0
		}
		if adj.CacheTTL > 0 && (ttl == 0 || adj.CacheTTL < ttl) {
			ttl = adj.CacheTTL
		}
	}
	return true, ttl
}

// recruit implements the recruiting pattern: the query migrates to the
// first referral's store, which gathers the sibling pieces itself.
func (m *MDM) recruit(ctx context.Context, alts []wire.Alternative) (*wire.ResolveResponse, error) {
	// Under brownout the recruit carries no sibling fan-out: the primary
	// store serves only its own piece, and the skipped referrals are
	// reported as degraded paths. Recruit fan-out multiplies one inbound
	// request into N store-to-store fetches — the first amplification to
	// cut when the fabric is drowning.
	brown := m.adm.Brownout()
	var skipped []string // of the alternative that answered
	xml, err := store.Run(ctx, m.plans, alts, func(ctx context.Context, alt wire.Alternative) (xml string, err error) {
		if len(alt.Referrals) == 0 {
			return "", ErrNoCoverage
		}
		primary, siblings := alt.Referrals[0], alt.Referrals[1:]
		skipped = nil
		if brown {
			for _, ref := range siblings {
				skipped = append(skipped, ref.Query.Path)
			}
			siblings = nil
		}
		rctx, rsp := trace.Start(ctx, "mdm.recruit")
		rsp.Annotate("store=" + primary.Query.Store)
		if len(skipped) > 0 {
			rsp.Annotate("brownout-skip-siblings")
		}
		err = m.plans.Call(rctx, primary.Address, func(actx context.Context, c store.Client) error {
			xml, err = c.Exec(actx, wire.FetchRequest{Query: primary.Query}, siblings)
			return err
		})
		if err == nil {
			// The store's answer is relayed as the union of one piece:
			// checked, and as String writes it.
			xml, err = xmltree.MergeXML(xmltree.DefaultKeys, xml)
		}
		rsp.Finish(err)
		return xml, err
	})
	if err != nil {
		return nil, err
	}
	// Recruiting moves only the final result through neither the MDM
	// nor extra client round trips; the MDM just relays the response.
	m.Stats.BytesProxied.Add(uint64(len(xml)))
	if len(skipped) > 0 {
		m.adm.Stats.BrownoutServed.Add(1)
	}
	return &wire.ResolveResponse{Data: xml, Degraded: skipped}, nil
}

// recordProvenance appends a disclosure record when the ledger is enabled.
// A grant's record lists the stores its plan routes to, whether or not the
// resolve went on to sign for them.
func (m *MDM) recordProvenance(owner string, req *wire.ResolveRequest, verb token.Verb, d policy.Decision, grants []string, opts []option) {
	if m.cfg.Provenance == nil {
		return
	}
	rec := provenance.Record{
		Owner:     owner,
		Path:      req.Path,
		Requester: req.Context.Requester,
		Role:      req.Context.Role,
		Purpose:   string(req.Context.Purpose),
		Verb:      string(verb),
		Outcome:   provenance.Denied,
		RuleID:    d.RuleID,
	}
	if d.Granted() {
		rec.Outcome = provenance.Granted
		rec.Grants = grants
		n := 0
		for _, o := range opts {
			n += len(o.routes)
		}
		if n > 0 {
			rec.Stores = make([]string, 0, n)
		}
		for _, o := range opts {
			for _, r := range o.routes {
				if !slices.Contains(rec.Stores, string(r.store)) {
					rec.Stores = append(rec.Stores, string(r.store))
				}
			}
		}
		sort.Strings(rec.Stores)
	}
	m.cfg.Provenance.Append(rec)
}

// Provenance exposes the ledger (nil when disabled).
func (m *MDM) Provenance() *provenance.Ledger { return m.cfg.Provenance }

// Resilience exposes the MDM's breaker/retry observability surface: per
// store breaker states and retry counters for the server-side query
// patterns.
func (m *MDM) Resilience() *resilience.Group { return m.res }

// Admission exposes the overload controller so the wire dispatch
// (Server.serve) can gate requests before they reach a handler. Always
// non-nil; disabled (admits everything) unless Config.Overload sets a
// positive MaxConcurrency.
func (m *MDM) Admission() *overload.Controller { return m.adm }

// HandleChanged ingests a component-change notice from a store: it
// invalidates cache entries and fans out subscription notifications.
func (m *MDM) HandleChanged(n *wire.ChangedNotice) {
	if m.cache != nil {
		m.cache.invalidateOwner(n.User)
	}
	p, err := xpath.Parse(n.Path)
	if err != nil {
		return
	}
	m.notifySubscribers(n.User, p, n.XML, n.Version)
}

// CoverageSnapshot exports every live registration in wire form: the
// journal's checkpoint, a shard's coverage dump for gossip repair and
// rebalance, and the scenario audits read it.
func (m *MDM) CoverageSnapshot() []wire.RegisterRequest {
	regs := m.Registry.Snapshot()
	out := make([]wire.RegisterRequest, 0, len(regs))
	for _, reg := range regs {
		out = append(out, wire.RegisterRequest{
			Store:   string(reg.Store),
			Address: m.AddrOf(reg.Store),
			Path:    reg.Path.String(),
		})
	}
	return out
}

// ShieldSnapshot exports every provisioned privacy-shield rule in wire
// form, for the same readers. Rules with conditions outside the
// provisioning syntax serialize as "always" (see policy.Encode); shields
// are normally provisioned over the wire, so this is lossless in practice.
func (m *MDM) ShieldSnapshot() []wire.PutRuleRequest {
	var out []wire.PutRuleRequest
	for _, owner := range m.Repo.ChangedSince(0) {
		shield, err := m.Repo.Get(owner)
		if err != nil {
			continue
		}
		for _, rule := range shield.Rules {
			out = append(out, wire.PutRuleRequest{Owner: owner, Rule: encodeRule(rule)})
		}
	}
	return out
}

// SetReplicator installs the replication layer's append hook: every
// checked mutation goes through fn instead of the local journal, and the
// caller is acknowledged only when fn returns nil (quorum-durable in a
// replicated constellation). fn publishes nothing itself: the directory
// changes only when the replication layer calls Publish at commit. Install
// once, before the MDM starts serving.
func (m *MDM) SetReplicator(fn func(journal.Record) error) { m.replicate = fn }

// SetReplStatus installs the callback that surfaces replication status
// through Snapshot() (and so through `gupctl replication`).
func (m *MDM) SetReplStatus(fn func() *wire.ReplStatus) { m.replStatus = fn }

// RetainOwners drops every coverage registration and shield rule whose
// owner fails keep — the cleanup half of a shard handoff, after an owner
// range has been replayed to its new shard. Removals go through the
// normal durable mutation path so a restart cannot resurrect the moved
// owners; cached components are invalidated and the owners' push
// subscriptions are cancelled with tombstones so subscribers re-home to
// the owning shard. Returns how many registrations were dropped.
func (m *MDM) RetainOwners(keep func(owner string) bool) int {
	dropped := 0
	moved := make(map[string]bool)
	for _, reg := range m.Registry.Snapshot() {
		owner, _ := coverage.UserOf(reg.Path)
		if keep(owner) {
			continue
		}
		if err := m.Unregister(reg.Store, reg.Path); err == nil {
			dropped++
			moved[owner] = true
		}
	}
	for _, owner := range m.Repo.ChangedSince(0) {
		if keep(owner) {
			continue
		}
		shield, err := m.Repo.Get(owner)
		if err != nil {
			continue
		}
		for _, rule := range shield.Rules {
			_ = m.DeleteRule(owner, rule.ID)
		}
		moved[owner] = true
	}
	for owner := range moved {
		if m.cache != nil {
			m.cache.invalidateOwner(owner)
		}
		for _, sub := range m.subs.dropOwner(owner) {
			sub.deliver(wire.Notification{Path: sub.path.String(), Canceled: true})
		}
	}
	return dropped
}

// Pipeline exposes the resolve-pipeline counters (coalescing, fan-out,
// batching).
func (m *MDM) Pipeline() *metrics.PipelineStats { return m.pipe }

// Tracer exposes the MDM's trace collector — the constellation's trace
// directory, queried by `gupctl trace` and `gupctl slow`.
func (m *MDM) Tracer() *trace.Collector { return m.tracer }

// Snapshot returns a point-in-time stats view.
func (m *MDM) Snapshot() wire.StatsResponse {
	rs := m.res.Stats
	ps := m.pipe.Snapshot()
	// The lease table observes every lease, counting the transitions it is
	// first to see, so the counters are read after it.
	leases := m.LeaseTable()
	ls := m.Liveness.Snapshot()
	resp := wire.StatsResponse{
		Resolves:       m.Stats.Resolves.Load(),
		Denied:         m.Stats.Denied.Load(),
		Spurious:       m.Stats.Spurious.Load(),
		CacheHits:      m.Stats.CacheHits.Load(),
		CacheMisses:    m.Stats.CacheMisses.Load(),
		Registrations:  m.Registry.Len(),
		Subscriptions:  m.subs.len(),
		BytesProxied:   m.Stats.BytesProxied.Load(),
		Retries:        rs.Retries.Load(),
		BreakerTrips:   rs.BreakerTrips.Load(),
		ShortCircuits:  rs.ShortCircuits.Load(),
		Flights:        ps.Flights,
		CoalesceHits:   ps.CoalesceHits,
		FanOuts:        ps.FanOuts,
		FanOutCalls:    ps.FanOutCalls,
		BatchResolves:  ps.BatchResolves,
		BatchedQueries: ps.BatchedQueries,
		Hops:           m.tracer.HopStats(),
		TraceSpans:     m.tracer.SpanCount(),
		TraceDropped:   m.tracer.Dropped(),

		Leases:           leases,
		LeaseRenewals:    ls.Renewals,
		Quarantines:      ls.Quarantines,
		LeaseRecoveries:  ls.Recoveries,
		PlanExclusions:   ls.PlanExclusions,
		DegradedResolves: ls.DegradedResolves,
	}
	if m.journal != nil {
		js := m.journal.Stats()
		resp.JournalAppends = js.Appends.Load()
		resp.JournalSyncs = js.Syncs.Load()
		resp.JournalCompactions = js.Compactions.Load()
		resp.JournalRecovered = js.RecoveredRecords.Load()
		resp.JournalTornBytes = js.TornBytes.Load()
	}
	m.adm.Report(&resp)
	if m.replStatus != nil {
		resp.Repl = m.replStatus()
	}
	return resp
}

// Close releases pooled store connections and closes the journal
// (flushing any pending appends).
func (m *MDM) Close() {
	m.pool.Close()
	if m.journal != nil {
		m.journal.Close()
	}
}
