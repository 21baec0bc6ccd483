package main

import (
	"fmt"
	"os"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/journal"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/provenance"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// numStores is the constellation's store count on every workload; a
// workload spreads each address book over rigSpec.split of them.
const numStores = 4

// itemKinds are the item[@type] values books are split by (paper Fig. 9
// uses the first two); split k uses the first k.
var itemKinds = [numStores]string{"personal", "corporate", "family", "service"}

// rigSpec is what a workload asks of the constellation.
type rigSpec struct {
	users     int
	bookBytes int  // serialized size of each user's address book
	split     int  // stores each book is partially covered by
	cache     int  // MDM CacheEntries; 0 = cache off
	durable   bool // journal the directory (fsync on, default CompactEvery)
}

// user is one generated profile owner: the inputs the program sees (pieces)
// and what the oracle expects back.
type user struct {
	id     string
	path   string          // the request every op on this owner carries
	pieces []*xmltree.Node // piece j lives at store storeOf(i, j)
	digest uint64          // order-insensitive digest of the merged book
}

// population is generated from the seed alone, before set-up is timed: it is
// the benchmark's input, not the program's work.
type population struct {
	users []user
	split int
}

func userPath(id, rest string) string { return "/user[@id='" + id + "']" + rest }

// coverPath is the partial cover the store holding piece j of a user's book
// registers (paper Fig. 9).
func coverPath(id string, j int) xpath.Path {
	return xpath.MustParse(userPath(id, "/address-book/item[@type='"+itemKinds[j]+"']"))
}

func generate(spec rigSpec, seed int64) *population {
	rng := workload.Rand(seed)
	pop := &population{users: make([]user, spec.users), split: spec.split}
	for i := range pop.users {
		id := workload.UserID(i)
		book := workload.AddressBookOfSize(spec.bookBytes, rng)
		pieces := make([]*xmltree.Node, spec.split)
		for j := range pieces {
			pieces[j] = xmltree.New("address-book")
		}
		// The generator labels items personal/corporate alternately; a
		// k-way split needs k labels, dealt round-robin so pieces are even.
		for n, item := range book.Children {
			item.SetAttr("type", itemKinds[n%spec.split])
			pieces[n%spec.split].Add(item)
		}
		want := xmltree.New("user").SetAttr("id", id).Add(book)
		pop.users[i] = user{id: id, path: userPath(id, "/address-book"), pieces: pieces, digest: digest(want)}
	}
	return pop
}

// storeOf places piece j of user i: consecutive users start on consecutive
// store groups so every store holds the same share.
func (p *population) storeOf(i, j int) int { return (i*p.split + j) % numStores }

// rig is one in-process constellation over loopback wire sockets.
type rig struct {
	signer  *token.Signer
	mdm     *core.MDM
	mdmSrv  *core.Server
	engines [numStores]*store.Engine
	stores  [numStores]*store.Server
	clients []*core.Client
	roamers []*wire.Client // directory-churn's roaming stores, one per client
	dataDir string
}

func storeID(s int) string { return fmt.Sprintf("s%d.gup.example", s) }

func (r *rig) engineByID(id string) *store.Engine {
	for _, e := range r.engines {
		if e.ID() == id {
			return e
		}
	}
	return nil
}

// mdmConfig is the MDM as gupsterd ships it (GUP schema and adjuncts,
// provenance ledger 4096, GrantTTL 30s, no leases) with admission on at a
// window the closed loop never fills.
func mdmConfig(signer *token.Signer, cache int) core.Config {
	return core.Config{
		Schema:       schema.GUP(),
		Signer:       signer,
		GrantTTL:     30 * time.Second,
		CacheEntries: cache,
		Adjuncts:     schema.GUPAdjuncts(),
		Provenance:   provenance.NewLedger(4096),
		Overload:     overload.Config{MaxConcurrency: 64},
	}
}

// shieldRules is every owner's 8-rule privacy shield. Requesters are
// friends: exactly one rule grants them the address book, three more have a
// true condition but a scope that does not cover it, and four are guarded
// by conditions that fail — so a decision walks the whole set.
func shieldRules(id string) []policy.Rule {
	at := func(rest string) xpath.Path { return xpath.MustParse(userPath(id, rest)) }
	friend := policy.RoleIs("friend")
	return []policy.Rule{
		{ID: "friends-book", Path: at("/address-book"), Cond: friend, Effect: policy.Permit},
		{ID: "friends-presence", Path: at("/presence"), Cond: friend, Effect: policy.Permit},
		{ID: "friends-calendar", Path: at("/calendar"), Cond: friend, Effect: policy.Permit},
		{ID: "wallet-lock", Path: at("/wallet"), Cond: policy.Not{C: policy.RoleIs("self")}, Effect: policy.Deny, Priority: 10},
		{ID: "family-all", Path: at(""), Cond: policy.RoleIs("family"), Effect: policy.Permit},
		{ID: "boss-self", Path: at("/self"), Cond: policy.RoleIs("boss"), Effect: policy.Permit},
		{ID: "coworker-hours", Path: at("/presence"), Cond: policy.And{policy.RoleIs("co-worker"), policy.HoursBetween("09:00", "18:00")}, Effect: policy.Permit},
		{ID: "third-party", Path: at(""), Cond: policy.RoleIs("third-party"), Effect: policy.Deny, Priority: 10},
	}
}

// buildRig is the set-up setup_s times: servers up, population loaded into
// the stores, coverage and shields registered at the MDM, clients dialed.
// journalDir is used only by durable rigs.
func buildRig(spec rigSpec, pop *population, clients int, journalDir string) (r *rig, err error) {
	r = &rig{signer: token.NewSigner([]byte("benchmark-shared-key"))}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.mdm = core.New(mdmConfig(r.signer, spec.cache))
	r.mdmSrv = core.NewServer(r.mdm)
	if err = r.mdmSrv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	var addrs [numStores]string
	for s := range r.engines {
		eng := store.NewEngine(storeID(s))
		eng.Schema = schema.GUP()
		srv := store.NewServer(eng, r.signer)
		if err = srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		r.engines[s], r.stores[s], addrs[s] = eng, srv, srv.Addr()
	}

	for i := range pop.users {
		u := &pop.users[i]
		book := xpath.MustParse(u.path)
		for j, piece := range u.pieces {
			s := pop.storeOf(i, j)
			if _, err = r.engines[s].Put(u.id, book, piece); err != nil {
				return nil, fmt.Errorf("load %s: %w", u.id, err)
			}
			if err = r.mdm.Register(coverage.StoreID(storeID(s)), addrs[s], coverPath(u.id, j)); err != nil {
				return nil, fmt.Errorf("register %s: %w", u.id, err)
			}
		}
		for _, rule := range shieldRules(u.id) {
			if err = r.mdm.PAP.PutRule(u.id, rule); err != nil {
				return nil, fmt.Errorf("shield %s: %w", u.id, err)
			}
		}
	}

	if spec.durable {
		// Bulk-load, then checkpoint: the journal starts from a snapshot of
		// the population, and every later write is an fsynced append.
		r.dataDir = journalDir
		if _, err = core.OpenDurable(r.mdm, journalDir, journal.Options{}); err != nil {
			return nil, err
		}
		if err = r.mdm.Journal().Compact(); err != nil {
			return nil, err
		}
	}

	for c := 0; c < clients; c++ {
		cli, derr := core.DialMDM(r.mdmSrv.Addr(), fmt.Sprintf("friend-%d", c), "friend")
		if derr != nil {
			return nil, derr
		}
		// The program's own tracing stays off: one MDM connection per
		// client, and spans are the benchmark's (see spans.go).
		cli.Tracer = nil
		r.clients = append(r.clients, cli)
		if spec.durable {
			rc, derr := wire.Dial(r.mdmSrv.Addr())
			if derr != nil {
				return nil, derr
			}
			r.roamers = append(r.roamers, rc)
		}
	}
	return r, nil
}

// close stops every server and connection and waits for their goroutines.
// The journal directory is left for the restart check; the caller removes
// it.
func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	for _, rc := range r.roamers {
		rc.Close()
	}
	if r.mdm != nil {
		r.mdm.Close()
	}
	if r.mdmSrv != nil {
		r.mdmSrv.Close()
	}
	for _, s := range r.stores {
		if s != nil {
			s.Close()
		}
	}
}

// baseCoverage is the set of registrations buildRig made, in the model's
// "store path" form.
func (p *population) baseCoverage() map[string]bool {
	out := make(map[string]bool, len(p.users)*p.split)
	for i := range p.users {
		for j := range p.users[i].pieces {
			out[storeID(p.storeOf(i, j))+" "+coverPath(p.users[i].id, j).String()] = true
		}
	}
	return out
}

// restartCoverage reopens the closed journal in dir, replays it into a fresh
// MDM exactly as gupsterd does at boot, and returns that MDM's coverage in
// model form.
func restartCoverage(dir string, signer *token.Signer) (map[string]bool, error) {
	fresh := core.New(mdmConfig(signer, 0))
	defer fresh.Close()
	if _, err := core.OpenDurable(fresh, dir, journal.Options{}); err != nil {
		return nil, err
	}
	return coverageSet(fresh.CoverageSnapshot()), nil
}

func coverageSet(regs []wire.RegisterRequest) map[string]bool {
	out := make(map[string]bool, len(regs))
	for _, reg := range regs {
		out[reg.Store+" "+reg.Path] = true
	}
	return out
}

// sameSet reports the first difference between two coverage sets.
func sameSet(got, want map[string]bool) error {
	for k := range want {
		if !got[k] {
			return fmt.Errorf("missing registration %q", k)
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("unexpected registration %q", k)
		}
	}
	return nil
}

// digest is an order-insensitive fingerprint of a component tree: siblings
// and attributes combine commutatively, because deep-union orders items by
// the store that returned them while the generator orders them by index.
func digest(n *xmltree.Node) uint64 {
	h := hashString(hashString(14695981039346656037, n.Name)^0xff, n.Text)
	var sum uint64
	for k, v := range n.Attrs {
		sum += mix(hashString(hashString(14695981039346656037, k)^0xfe, v))
	}
	for _, c := range n.Children {
		sum += mix(digest(c))
	}
	return mix(h ^ (sum * 1099511628211))
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer: it keeps sums of child digests from
// cancelling.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newScratchDir makes a fresh directory under out/ (inside the checkout, so
// the journal's fsyncs hit the same filesystem every run).
func newScratchDir(outDir, prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix)
}
