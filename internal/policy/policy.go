// Package policy implements the GUPster privacy shield (paper §4.6): the
// per-user access-control rules that govern who may see which profile
// components and when, together with the abstract policy infrastructure of
// Figure 10 — policy repository, administration point, decision point and
// enforcement point.
//
// A request has two facets, a path (what profile data is asked for) and a
// context (who asks, for what purpose, when). The paper rejects stock XACML
// because its request context is "too limited (restricted to principals)";
// this package therefore models the context as a structured document and
// lets rule conditions predicate over all of it, including time of day —
// the paper's canonical example is "presence data is revealed to co-workers
// only at times when the end-user is at work".
package policy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gupster/internal/xpath"
)

// Context carries the non-path facet of a request (§4.6 "the context
// provides some information about the context of the request").
type Context struct {
	// Requester is the identity of the principal making the request.
	Requester string `json:"requester"`
	// Role is the requester's relationship to the profile owner, as
	// asserted by the identity layer: "self", "family", "co-worker",
	// "boss", "third-party", …
	Role string `json:"role,omitempty"`
	// Purpose distinguishes plain queries from caching requests,
	// subscriptions and provisioning, per §4.6.
	Purpose Purpose `json:"purpose,omitempty"`
	// Time is the moment of the request; zero means time.Now() at
	// evaluation.
	Time time.Time `json:"time,omitzero"`
	// Location optionally carries the requester's own location claim.
	Location string `json:"location,omitempty"`
}

// Purpose enumerates why profile data is being requested.
type Purpose string

// Purposes used by the framework.
const (
	PurposeQuery     Purpose = "query"
	PurposeCache     Purpose = "cache"
	PurposeSubscribe Purpose = "subscribe"
	PurposeProvision Purpose = "provision"
	PurposeSync      Purpose = "sync"
)

// Effect is a rule's outcome.
type Effect int

// Rule effects. Deny wins ties at equal priority.
const (
	Deny Effect = iota
	Permit
)

func (e Effect) String() string {
	if e == Permit {
		return "permit"
	}
	return "deny"
}

// Condition is a predicate over the request context. Implementations must
// be safe for concurrent use.
type Condition interface {
	Eval(Context) bool
	// String renders the condition for provisioning UIs and logs.
	String() string
}

// Always is the vacuous condition.
type Always struct{}

// Eval implements Condition.
func (Always) Eval(Context) bool { return true }
func (Always) String() string    { return "always" }

// RequesterIs matches an exact requester identity.
type RequesterIs string

// Eval implements Condition.
func (r RequesterIs) Eval(c Context) bool { return string(r) == c.Requester }
func (r RequesterIs) String() string      { return "requester=" + string(r) }

// RoleIs matches the asserted relationship role.
type RoleIs string

// Eval implements Condition.
func (r RoleIs) Eval(c Context) bool { return string(r) == c.Role }
func (r RoleIs) String() string      { return "role=" + string(r) }

// PurposeIs matches the request purpose.
type PurposeIs Purpose

// Eval implements Condition.
func (p PurposeIs) Eval(c Context) bool { return Purpose(p) == c.Purpose }
func (p PurposeIs) String() string      { return "purpose=" + string(p) }

// TimeBetween matches requests whose local time-of-day lies in [From, To).
// From and To are minutes since midnight; a window wrapping past midnight
// (From > To) is supported.
type TimeBetween struct {
	From, To int
}

// HoursBetween builds a TimeBetween from "HH:MM" strings; it panics on
// malformed input (static configuration).
func HoursBetween(from, to string) TimeBetween {
	return TimeBetween{From: mustMinutes(from), To: mustMinutes(to)}
}

func mustMinutes(s string) int {
	var h, m int
	if _, err := fmt.Sscanf(s, "%d:%d", &h, &m); err != nil || h < 0 || h > 23 || m < 0 || m > 59 {
		panic(fmt.Sprintf("policy: bad time %q", s))
	}
	return h*60 + m
}

// Eval implements Condition.
func (t TimeBetween) Eval(c Context) bool {
	now := c.Time
	if now.IsZero() {
		now = time.Now()
	}
	min := now.Hour()*60 + now.Minute()
	if t.From <= t.To {
		return min >= t.From && min < t.To
	}
	return min >= t.From || min < t.To
}

func (t TimeBetween) String() string {
	return fmt.Sprintf("time in [%02d:%02d,%02d:%02d)", t.From/60, t.From%60, t.To/60, t.To%60)
}

// Weekdays matches requests made on any of the given weekdays.
type Weekdays []time.Weekday

// Eval implements Condition.
func (w Weekdays) Eval(c Context) bool {
	now := c.Time
	if now.IsZero() {
		now = time.Now()
	}
	for _, d := range w {
		if now.Weekday() == d {
			return true
		}
	}
	return false
}

func (w Weekdays) String() string {
	parts := make([]string, len(w))
	for i, d := range w {
		parts[i] = d.String()[:3]
	}
	return "weekday in {" + strings.Join(parts, ",") + "}"
}

// And is conjunction.
type And []Condition

// Eval implements Condition.
func (a And) Eval(c Context) bool {
	for _, x := range a {
		if !x.Eval(c) {
			return false
		}
	}
	return true
}

func (a And) String() string { return joinConds(a, " and ") }

// Or is disjunction.
type Or []Condition

// Eval implements Condition.
func (o Or) Eval(c Context) bool {
	for _, x := range o {
		if x.Eval(c) {
			return true
		}
	}
	return false
}

func (o Or) String() string { return joinConds(o, " or ") }

func joinConds(cs []Condition, sep string) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Not is negation.
type Not struct{ C Condition }

// Eval implements Condition.
func (n Not) Eval(c Context) bool { return !n.C.Eval(c) }
func (n Not) String() string      { return "not " + n.C.String() }

// Rule is one entry in a user's privacy shield.
type Rule struct {
	// ID identifies the rule for provisioning.
	ID string
	// Path scopes the rule to a subtree of the owner's profile. The rule
	// applies to a request when its path covers the request (fully or — for
	// Permit rules — partially, yielding a narrowed grant).
	Path xpath.Path
	// Cond guards the rule; nil means Always.
	Cond Condition
	// Effect is what the rule decides.
	Effect Effect
	// Priority orders rules; higher wins. At equal priority Deny wins.
	Priority int
}

func (r Rule) cond() Condition {
	if r.Cond == nil {
		return Always{}
	}
	return r.Cond
}

func (r Rule) String() string {
	return fmt.Sprintf("rule %s: %s[prio %d] on %s if %s", r.ID, r.Effect, r.Priority, r.Path, r.cond().String())
}

// Decision is the outcome of evaluating a shield against a request.
type Decision struct {
	// Effect is Permit when at least some of the request is granted.
	Effect Effect
	// Grants are the paths actually granted: the request itself when a
	// permit rule covers all of it, otherwise the permitted sub-paths
	// (narrowed grant). Empty on deny.
	Grants []xpath.Path
	// RuleID names the decisive rule; "" when the default applied.
	RuleID string
}

// Granted reports whether anything was permitted.
func (d Decision) Granted() bool { return d.Effect == Permit && len(d.Grants) > 0 }

// Full reports whether the entire request was granted (a single grant equal
// to the request path).
func (d Decision) Full(req xpath.Path) bool {
	return d.Granted() && len(d.Grants) == 1 && xpath.Equivalent(d.Grants[0], req)
}

// Shield is a user's complete rule set. The zero value denies everything.
type Shield struct {
	// Owner is the user the shield protects.
	Owner string
	// Rules in no particular order; Decide sorts by priority.
	Rules []Rule
}

// Decide evaluates the shield against a request for path under ctx.
//
// Semantics: among rules whose condition holds, the highest-priority rule
// that fully covers the request decides it (Deny wins priority ties). If no
// full-cover rule permits the request, Permit rules whose scope lies inside
// the request contribute narrowed grants, each of which must itself survive
// full-cover deny rules of higher or equal priority. The default is deny —
// the paper's stance that "the end-user should be in control" implies
// fail-closed.
//
// The owner always has full access to her own profile ("self" role with a
// requester equal to the owner), unless an explicit higher-priority deny
// (e.g. a provisioning lock) says otherwise.
func (s *Shield) Decide(req xpath.Path, ctx Context) Decision {
	// The applicable rules are ranked as pointers into s.Rules, on the
	// stack while they fit; the shield itself is only read.
	type ranked struct {
		rule *Rule
		rel  xpath.CoverRelation
	}
	var local [16]ranked
	applicable := local[:0]
	for i := range s.Rules {
		r := &s.Rules[i]
		if !r.cond().Eval(ctx) {
			continue
		}
		rel := xpath.Covers(r.Path, req)
		if rel == xpath.CoverNone {
			continue
		}
		applicable = append(applicable, ranked{r, rel})
	}
	if ctx.Requester != "" && ctx.Requester == s.Owner {
		applicable = append(applicable, ranked{&ownerRule, xpath.CoverFull})
	}
	// Highest priority first; deny before permit at the same priority.
	slices.SortStableFunc(applicable, func(a, b ranked) int {
		if a.rule.Priority != b.rule.Priority {
			return cmp.Compare(b.rule.Priority, a.rule.Priority)
		}
		switch {
		case a.rule.Effect == Deny && b.rule.Effect == Permit:
			return -1
		case a.rule.Effect == Permit && b.rule.Effect == Deny:
			return 1
		}
		return 0
	})

	for _, a := range applicable {
		if a.rel != xpath.CoverFull {
			continue
		}
		if a.rule.Effect == Deny {
			return Decision{Effect: Deny, RuleID: a.rule.ID}
		}
		return Decision{Effect: Permit, Grants: []xpath.Path{req}, RuleID: a.rule.ID}
	}

	// No full-cover rule decided; assemble narrowed grants from partial
	// permits.
	var grants []xpath.Path
	ruleID := ""
	for _, a := range applicable {
		if a.rel != xpath.CoverPartial || a.rule.Effect != Permit {
			continue
		}
		if s.deniedBy(a.rule.Path, ctx, a.rule.Priority) {
			continue
		}
		grants = append(grants, a.rule.Path)
		if ruleID == "" {
			ruleID = a.rule.ID
		}
	}
	if len(grants) == 0 {
		return Decision{Effect: Deny}
	}
	return Decision{Effect: Permit, Grants: dedupePaths(grants), RuleID: ruleID}
}

// ownerPriority ranks the implicit owner-access rule: high, but beatable by
// explicit administrative locks.
const ownerPriority = 1 << 20

// ownerRule is the implicit owner-access rule. It always covers the whole
// request, so Decide never reads its path.
var ownerRule = Rule{ID: "owner", Effect: Permit, Priority: ownerPriority}

func (s *Shield) deniedBy(p xpath.Path, ctx Context, priority int) bool {
	for _, r := range s.Rules {
		if r.Effect != Deny || r.Priority < priority {
			continue
		}
		if !r.cond().Eval(ctx) {
			continue
		}
		if xpath.Covers(r.Path, p) == xpath.CoverFull {
			return true
		}
	}
	return false
}

func dedupePaths(ps []xpath.Path) []xpath.Path {
	if len(ps) < 2 {
		return ps
	}
	seen := make(map[string]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		k := p.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// --- Policy infrastructure (Figure 10) ---

// ErrNoShield is returned when a user has no provisioned shield.
var ErrNoShield = errors.New("policy: no shield for user")

// ErrNoRule is returned when deleting an unknown rule.
var ErrNoRule = errors.New("policy: no such rule")

// Repository stores shields — the "policy repository" role. It is versioned
// so replicas (the store-side enforcement variant measured by benchmark E3)
// can sync incrementally. Safe for concurrent use.
type Repository struct {
	mu      sync.RWMutex
	shields map[string]*Shield
	version uint64
	dirty   map[string]uint64 // owner → version of last change
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		shields: make(map[string]*Shield),
		dirty:   make(map[string]uint64),
	}
}

// Put replaces a user's shield wholesale.
func (r *Repository) Put(s *Shield) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := *s
	cp.Rules = append([]Rule(nil), s.Rules...)
	r.shields[s.Owner] = &cp
	r.version++
	r.dirty[s.Owner] = r.version
}

// Get returns a copy of a user's shield.
func (r *Repository) Get(owner string) (*Shield, error) {
	s, ok := r.shield(owner)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoShield, owner)
	}
	cp := *s
	cp.Rules = append([]Rule(nil), s.Rules...)
	return &cp, nil
}

// shield returns the stored shield itself. A stored shield is never changed
// in place: Put stores a private copy and Replace swaps whole maps, so it
// may be read after the lock is released, and is seen whole.
func (r *Repository) shield(owner string) (*Shield, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.shields[owner]
	return s, ok
}

// Replace makes the repository hold exactly fresh's shields, in one step
// under its lock: a concurrent Decide sees an owner's old shield or its new
// one. The version moves past both repositories' and every owner fresh
// holds is marked changed at it. The repository takes fresh's shields
// over, so fresh must not be used afterwards.
func (r *Repository) Replace(fresh *Repository) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.version = max(r.version, fresh.version) + 1
	r.shields = fresh.shields
	r.dirty = make(map[string]uint64, len(fresh.shields))
	for owner := range fresh.shields {
		r.dirty[owner] = r.version
	}
}

// Version returns the repository's monotonically increasing change counter.
func (r *Repository) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// ChangedSince returns the owners whose shields changed after version v —
// the unit of policy synchronization traffic in the store-side enforcement
// variant.
func (r *Repository) ChangedSince(v uint64) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for owner, ver := range r.dirty {
		if ver > v {
			out = append(out, owner)
		}
	}
	sort.Strings(out)
	return out
}

// AdministrationPoint is the self-provisioning interface to a repository —
// the "policy administration point" role. It validates rules before
// admitting them.
type AdministrationPoint struct {
	Repo *Repository
	// ValidatePath, when non-nil, vets rule scopes against the profile
	// schema (constraint checking, requirement 11 of §2.3).
	ValidatePath func(xpath.Path) error
}

// CheckRule reports whether PutRule would refuse rule.
func (a *AdministrationPoint) CheckRule(rule Rule) error {
	if rule.ID == "" {
		return errors.New("policy: rule must have an ID")
	}
	if len(rule.Path.Steps) == 0 {
		return errors.New("policy: rule must have a path scope")
	}
	if a.ValidatePath != nil {
		if err := a.ValidatePath(rule.Path); err != nil {
			return fmt.Errorf("policy: rule %s scope: %w", rule.ID, err)
		}
	}
	return nil
}

// PutRule inserts or replaces one rule in the owner's shield.
func (a *AdministrationPoint) PutRule(owner string, rule Rule) error {
	if err := a.CheckRule(rule); err != nil {
		return err
	}
	s, err := a.Repo.Get(owner)
	if err != nil {
		s = &Shield{Owner: owner}
	}
	replaced := false
	for i := range s.Rules {
		if s.Rules[i].ID == rule.ID {
			s.Rules[i] = rule
			replaced = true
			break
		}
	}
	if !replaced {
		s.Rules = append(s.Rules, rule)
	}
	a.Repo.Put(s)
	return nil
}

// CheckDelete reports whether DeleteRule would refuse to delete ruleID.
func (a *AdministrationPoint) CheckDelete(owner, ruleID string) error {
	s, err := a.Repo.Get(owner)
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(s.Rules, func(r Rule) bool { return r.ID == ruleID }) {
		return fmt.Errorf("%w: %s/%s", ErrNoRule, owner, ruleID)
	}
	return nil
}

// DeleteRule removes a rule by ID.
func (a *AdministrationPoint) DeleteRule(owner, ruleID string) error {
	if err := a.CheckDelete(owner, ruleID); err != nil {
		return err
	}
	s, err := a.Repo.Get(owner)
	if err != nil {
		return err
	}
	s.Rules = slices.DeleteFunc(s.Rules, func(r Rule) bool { return r.ID == ruleID })
	a.Repo.Put(s)
	return nil
}

// DecisionPoint renders decisions from a repository — the "policy decision
// point" role. It has no side effects (per the paper: "the decision point
// only returns a decision").
type DecisionPoint struct {
	Repo *Repository
	// DefaultOwnerAccess, when true, lets users with no provisioned shield
	// access their own data (sensible bootstrap).
	DefaultOwnerAccess bool
}

// Decide evaluates owner's shield for a request.
func (d *DecisionPoint) Decide(owner string, req xpath.Path, ctx Context) Decision {
	s, ok := d.Repo.shield(owner)
	if !ok {
		if d.DefaultOwnerAccess && ctx.Requester == owner {
			return Decision{Effect: Permit, Grants: []xpath.Path{req}, RuleID: "owner-default"}
		}
		return Decision{Effect: Deny}
	}
	return s.Decide(req, ctx)
}

// Replica is a read-only copy of a repository kept at a data store for the
// store-side enforcement variant. SyncFrom pulls changed shields and
// reports how many were transferred (benchmark E3's sync traffic).
type Replica struct {
	mu      sync.RWMutex
	shields map[string]*Shield
	seen    uint64
}

// NewReplica returns an empty replica.
func NewReplica() *Replica {
	return &Replica{shields: make(map[string]*Shield)}
}

// SyncFrom pulls changes from the source repository.
func (r *Replica) SyncFrom(src *Repository) int {
	changed := src.ChangedSince(r.atVersion())
	for _, owner := range changed {
		if s, err := src.Get(owner); err == nil {
			r.mu.Lock()
			r.shields[owner] = s
			r.mu.Unlock()
		}
	}
	r.mu.Lock()
	r.seen = src.Version()
	r.mu.Unlock()
	return len(changed)
}

func (r *Replica) atVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seen
}

// Decide evaluates against the replica's (possibly stale) shields.
func (r *Replica) Decide(owner string, req xpath.Path, ctx Context) Decision {
	r.mu.RLock()
	s, ok := r.shields[owner]
	r.mu.RUnlock()
	if !ok {
		return Decision{Effect: Deny}
	}
	return s.Decide(req, ctx)
}
