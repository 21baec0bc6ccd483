package core

import (
	"fmt"
	"sync"

	"gupster/internal/coverage"
	"gupster/internal/policy"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// subscriptions manages the MDM's push service (§5.2: a subscription
// handled inside GUPster saves the per-poll privacy-shield check — the
// shield is re-evaluated only when a covered component actually changes).
// A subscription has no ID: it is named by its own pointer, and a
// subscriber names it by the connection it rides.
type subscriptions struct {
	mu sync.Mutex
	// byOwner indexes subscriptions for fan-out.
	byOwner map[string]map[*subscription]struct{}
	n       int
}

type subscription struct {
	owner   string
	path    xpath.Path
	ctx     policy.Context
	deliver func(wire.Notification)
}

func newSubscriptions() *subscriptions {
	return &subscriptions{byOwner: make(map[string]map[*subscription]struct{})}
}

func (s *subscriptions) add(sub *subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owned := s.byOwner[sub.owner]
	if owned == nil {
		owned = make(map[*subscription]struct{})
		s.byOwner[sub.owner] = owned
	}
	owned[sub] = struct{}{}
	s.n++
}

// remove drops sub; removing one already gone (reset, handed off) is a
// no-op.
func (s *subscriptions) remove(sub *subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owned := s.byOwner[sub.owner]
	if _, ok := owned[sub]; !ok {
		return
	}
	delete(owned, sub)
	if len(owned) == 0 {
		delete(s.byOwner, sub.owner)
	}
	s.n--
}

// forOwner snapshots an owner's subscriptions for fan-out outside the lock.
func (s *subscriptions) forOwner(owner string) []*subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return subList(s.byOwner[owner])
}

func (s *subscriptions) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// reset drops every live subscription and returns them, so the caller
// can deliver cancellation tombstones. Used when the directory the
// subscriptions were admitted against is discarded wholesale (a follower
// re-homing from a leader snapshot).
func (s *subscriptions) reset() []*subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*subscription
	for _, owned := range s.byOwner {
		out = append(out, subList(owned)...)
	}
	s.byOwner = make(map[string]map[*subscription]struct{})
	s.n = 0
	return out
}

// dropOwner removes and returns one owner's subscriptions (shard handoff:
// the owner's slice of the directory moved to another shard).
func (s *subscriptions) dropOwner(owner string) []*subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := subList(s.byOwner[owner])
	delete(s.byOwner, owner)
	s.n -= len(out)
	return out
}

func subList(set map[*subscription]struct{}) []*subscription {
	out := make([]*subscription, 0, len(set))
	for sub := range set {
		out = append(out, sub)
	}
	return out
}

// Subscribe registers a push subscription after checking the privacy shield
// with the subscribe purpose. deliver runs on the MDM's notification path
// and must not block. The returned cancel drops the subscription; calling
// it again, or after a reset or handoff dropped it, does nothing.
func (m *MDM) Subscribe(req *wire.SubscribeRequest, deliver func(wire.Notification)) (cancel func(), err error) {
	p, err := xpath.Parse(req.Path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpurious, err)
	}
	if m.cfg.Schema != nil {
		if err := m.cfg.Schema.ValidatePath(p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpurious, err)
		}
	}
	owner := req.Owner
	if owner == "" {
		u, ok := coverage.UserOf(p)
		if !ok {
			return nil, ErrNoOwner
		}
		owner = u
	}
	ctx := req.Context
	if ctx.Purpose == "" {
		ctx.Purpose = policy.PurposeSubscribe
	}
	m.Stats.ShieldEvals.Add(1)
	decision := m.PDP.Decide(owner, p, ctx)
	m.recordProvenance(owner, &wire.ResolveRequest{Path: req.Path, Context: ctx}, token.VerbSubscribe, decision, nil)
	if !decision.Granted() {
		m.Stats.Denied.Add(1)
		return nil, fmt.Errorf("%w: subscribe %s for %s", ErrDenied, req.Path, ctx.Requester)
	}
	sub := &subscription{owner: owner, path: p, ctx: ctx, deliver: deliver}
	m.subs.add(sub)
	return func() { m.subs.remove(sub) }, nil
}

// notifySubscribers pushes a changed component to every subscription whose
// path intersects it and whose shield still grants access under the
// subscriber's context at notification time (time-of-day windows keep
// working).
func (m *MDM) notifySubscribers(owner string, changed xpath.Path, xml string, version uint64) {
	for _, sub := range m.subs.forOwner(owner) {
		if !pathsIntersect(sub.path, changed) {
			continue
		}
		m.Stats.ShieldEvals.Add(1)
		decision := m.PDP.Decide(owner, sub.path, sub.ctx)
		if !decision.Granted() {
			continue
		}
		out := xml
		if !decision.Full(sub.path) && xml != "" {
			// Narrowed grant: filter the component to the granted paths.
			if filtered := filterToGrants(xml, decision.Grants, m.cfg.Keys); filtered != "" {
				out = filtered
			} else {
				continue
			}
		}
		m.Stats.Notifies.Add(1)
		sub.deliver(wire.Notification{
			Path:    changed.String(),
			XML:     out,
			Version: version,
		})
	}
}

// pathsIntersect reports whether a change at path b is relevant to a
// subscription on path a: one covers the other in either direction.
func pathsIntersect(a, b xpath.Path) bool {
	return xpath.Covers(a, b) != xpath.CoverNone || xpath.Covers(b, a) != xpath.CoverNone
}

// filterToGrants prunes a changed component document to the granted paths.
// Change fragments are usually rooted at the component element (the store
// hook passes the fragment, not the profile spine), so each grant path is
// first aligned to the fragment's root by dropping the leading steps above
// it.
func filterToGrants(xml string, grants []xpath.Path, keys xmltree.KeySpec) string {
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		return ""
	}
	var pieces []*xmltree.Node
	for _, g := range grants {
		sub, ok := alignToRoot(g, doc.Name)
		if !ok {
			continue
		}
		if ext := xpath.Extract(doc, sub); ext != nil {
			pieces = append(pieces, ext)
		}
	}
	merged := xmltree.MergeAll(keys, pieces...)
	if merged == nil {
		return ""
	}
	return merged.String()
}

// alignToRoot drops the leading steps of p above the element named root,
// yielding a path evaluable against a fragment rooted at that element.
func alignToRoot(p xpath.Path, root string) (xpath.Path, bool) {
	for i, s := range p.Steps {
		if s.Name == root || s.Name == "*" {
			return xpath.Path{Steps: p.Steps[i:], Attr: p.Attr}, true
		}
	}
	return xpath.Path{}, false
}

// SignFor lets trusted co-located services (e.g. the reach-me service
// running beside the MDM) obtain a signed query directly after a Resolve
// has authorized them; exposed mainly for tests and embedded use.
func (m *MDM) SignFor(storeID string, owner string, p xpath.Path, verb token.Verb, requester string) token.SignedQuery {
	return m.cfg.Signer.Sign(storeID, owner, p, verb, requester, m.cfg.GrantTTL)
}
