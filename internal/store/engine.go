// Package store implements a GUP-enabled data store (paper §4.2): a node
// that holds user-profile components as subtrees of the GUP schema and
// serves them through the GUP interface — fetch, update and synchronize —
// accepting only queries signed by the MDM (§5.3).
//
// The Engine is the storage core: per-user profile trees, per-component
// monotonic versions, and bounded change logs that make fast (delta)
// synchronization possible. Server wraps an Engine behind the wire
// protocol.
package store

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gupster/internal/schema"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Storage errors.
var (
	ErrNoUser      = errors.New("store: no such user")
	ErrNoComponent = errors.New("store: nothing stored under path")
)

// changeRec is one entry of a component change log. A log's first record
// only anchors ChangesSince, which serves the ops of the records after the
// one a device last saw, so it keeps none.
type changeRec struct {
	version uint64
	ops     []xmltree.Op
}

// maxLogPerComponent bounds change-log memory; a device that falls further
// behind than this performs a slow sync.
const maxLogPerComponent = 256

// Engine is the in-memory storage core of a data store. All methods are
// safe for concurrent use.
type Engine struct {
	id string

	// Schema, when non-nil, validates incoming component writes.
	Schema *schema.Schema
	// Adjuncts, when non-nil, supply per-component defaults (reconciliation
	// policy for syncs; see schema.Adjuncts).
	Adjuncts *schema.Adjuncts

	mu      sync.RWMutex
	docs    map[string]*userDoc // user → profile document rooted at <user>
	version uint64              // global monotonic write counter
	// compVer tracks the version of the last write touching (user, section).
	compVer map[string]uint64
	// logs holds per-(user, component-path) change logs.
	logs map[string][]changeRec

	// onChange, when set, runs after every successful write, outside the
	// engine lock. Used by the server to notify the MDM and subscribers.
	onChange func(user string, path xpath.Path, xml string, version uint64)
}

// userDoc is one user's profile document, kept as the canonical XML String
// wrote for it, and the last fetch answer rendered from it. No tree outlives
// a call: a read parses the string, and a write parses it, changes that
// tree and stores its render under the engine's write lock. gen counts
// those writes, and a render is an answer only while it carries the gen of
// the document it was rendered from, whenever it was published.
type userDoc struct {
	xml     string
	gen     uint64
	fetched atomic.Pointer[rendered]
}

// rendered is one GetXML answer: the compact XML for the path whose
// canonical String() is path, the version it carried, and the gen of the
// document it was rendered from. It is immutable.
type rendered struct {
	path    string
	xml     string
	version uint64
	gen     uint64
}

// NewEngine returns an empty engine for the named store.
func NewEngine(id string) *Engine {
	return &Engine{
		id:      id,
		docs:    make(map[string]*userDoc),
		compVer: make(map[string]uint64),
		logs:    make(map[string][]changeRec),
	}
}

// ID returns the store identity used in coverage registrations and tokens.
func (e *Engine) ID() string { return e.id }

// OnChange registers the write hook. Must be called before the engine is
// shared across goroutines. The hook's xml is the written component as
// String renders it.
func (e *Engine) OnChange(fn func(user string, path xpath.Path, xml string, version uint64)) {
	e.onChange = fn
}

func compKey(user string, p xpath.Path) string {
	return user + "\x00" + p.String()
}

// sectionKey identifies the component-version bucket: user plus top-level
// section name (or "" for whole-profile writes).
func sectionKey(user string, p xpath.Path) string {
	if len(p.Steps) >= 2 {
		return user + "\x00" + p.Steps[1].Name
	}
	return user + "\x00"
}

// Put writes the component at path for the user, creating the user document
// and the ancestor spine as needed. It returns the new component version.
//
// Two fragment shapes are accepted:
//
//   - component replace: frag is rooted at the element the path's last step
//     names (an <address-book> fragment for /user[@id='u']/address-book) —
//     the selected element is replaced wholesale;
//   - scoped replace: frag is rooted at the *parent* element of the last
//     step (an <address-book> fragment for
//     /user[@id='u']/address-book/item[@type='personal']) — only the
//     parent's children matching the last step are replaced by frag's
//     matching children. This is how partial-coverage updates (Figure 9
//     splits) write just their piece.
//
// Put writes none of frag's nodes and copies only its root, shallowly, so
// that the copy alone may gain an attribute: it parses the stored document,
// links frag's subtrees into that tree and stores the render. A write whose
// document would not read back as written (see xmltree.Node.Canonical) is
// refused and changes nothing.
func (e *Engine) Put(user string, path xpath.Path, frag *xmltree.Node) (uint64, error) {
	if len(path.Steps) == 0 {
		return 0, fmt.Errorf("store: empty path")
	}
	if frag == nil {
		return 0, fmt.Errorf("store: nil fragment")
	}
	last := path.Steps[len(path.Steps)-1]
	scoped := false
	if last.Name != "*" && last.Name != frag.Name {
		if len(path.Steps) >= 2 {
			parent := path.Steps[len(path.Steps)-2]
			scoped = parent.Name == frag.Name || parent.Name == "*"
		}
		if !scoped {
			return 0, fmt.Errorf("store: fragment <%s> matches neither path step <%s> nor its parent", frag.Name, last.Name)
		}
	}

	logPath := path
	if scoped {
		logPath = path.Prefix(len(path.Steps) - 1)
	}
	if e.Schema != nil && len(logPath.Steps) > 1 {
		if err := e.Schema.ValidateComponent(barePath(logPath), frag); err != nil {
			return 0, err
		}
	}

	e.mu.Lock()
	ud := e.docs[user]
	var doc *xmltree.Node
	if ud == nil {
		doc = xmltree.New("user").SetAttr("id", user)
	} else {
		var err error
		if doc, err = parse(ud.xml); err != nil {
			e.mu.Unlock()
			return 0, err
		}
	}
	// The write swaps the old component's node out of the tree and changes
	// nothing below it, so it stays whole for Diff.
	oldComp := first(doc, logPath)
	if scoped {
		doc = scopedReplace(doc, path, frag)
	} else {
		root := *frag
		doc = graft(doc, path.Steps[1:], &root)
	}
	// The stored document is read back with ParseString, so a write that
	// would store what it does not read back as written changes nothing.
	xml, err := doc.Canonical()
	if err != nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	newComp := first(doc, logPath)
	if ud == nil {
		ud = &userDoc{}
		e.docs[user] = ud
	}
	ud.xml = xml
	ud.gen++
	e.version++
	v := e.version
	e.compVer[sectionKey(user, path)] = v

	// Append item-level ops to the change log for delta sync. A log's first
	// record is written where Diff would find a change, but only anchors.
	key := compKey(user, logPath)
	log := e.logs[key]
	if len(log) > 0 {
		if ops := xmltree.Diff(oldComp, newComp, xmltree.DefaultKeys); len(ops) > 0 {
			log = append(log, changeRec{version: v, ops: ops})
		}
	} else if changed(oldComp, newComp) {
		log = append(log, changeRec{version: v})
	}
	if n := len(log) - maxLogPerComponent; n > 0 {
		clear(log[:n])
		log = log[n:]
		log[0].ops = nil
	}
	if len(log) > 0 {
		e.logs[key] = log
	}
	hook := e.onChange
	e.mu.Unlock()

	if hook != nil && newComp != nil {
		hook(user, logPath, newComp.String(), v)
	}
	return v, nil
}

// changed reports whether Diff finds ops between a component's two
// versions, diffing only when both exist.
func changed(oldComp, newComp *xmltree.Node) bool {
	if oldComp == nil || newComp == nil {
		return oldComp != newComp
	}
	return len(xmltree.Diff(oldComp, newComp, xmltree.DefaultKeys)) > 0
}

// parse reads a stored document. The engine wrote it with Canonical, so
// it fails only on a fault of the engine.
func parse(xml string) (*xmltree.Node, error) {
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		return nil, fmt.Errorf("store: stored document: %w", err)
	}
	return doc, nil
}

// scopedReplace swaps the children of the last step's parent that match the
// last step for frag's matching children, creating the parent spine as
// needed, and returns the document. The parent is replaced by a new node,
// so the old one stays as it was.
func scopedReplace(doc *xmltree.Node, path xpath.Path, frag *xmltree.Node) *xmltree.Node {
	parentPath := path.Prefix(len(path.Steps) - 1)
	last := path.Steps[len(path.Steps)-1]
	swap := func(parent *xmltree.Node) *xmltree.Node {
		out := *parent
		out.Children = make([]*xmltree.Node, 0, len(parent.Children)+len(frag.Children))
		for _, c := range parent.Children {
			if !last.Matches(c) {
				out.Children = append(out.Children, c)
			}
		}
		for _, c := range frag.Children {
			if last.Matches(c) {
				out.Children = append(out.Children, c)
			}
		}
		return &out
	}
	if next := edit(doc, parentPath.Steps, swap); next != nil {
		return next
	}
	doc = graft(doc, parentPath.Steps[1:], frag.Bare())
	if next := edit(doc, parentPath.Steps, swap); next != nil {
		return next
	}
	return doc
}

// barePath strips predicates off the first step so component validation
// resolves against the schema regardless of the user pin.
func barePath(p xpath.Path) xpath.Path {
	steps := make([]xpath.Step, len(p.Steps))
	copy(steps, p.Steps)
	steps[0] = xpath.Step{Name: steps[0].Name}
	return xpath.Path{Steps: steps, Attr: p.Attr}
}

// graft places frag at rest below n, in place, creating missing spine
// elements: the first element matching the final step is replaced, or else
// frag is appended under the deepest ancestor. It returns n, or, when rest
// is empty (a whole-profile write), frag given n's id.
func graft(n *xmltree.Node, rest []xpath.Step, frag *xmltree.Node) *xmltree.Node {
	if len(rest) == 0 {
		if id, ok := n.Attr("id"); ok {
			if _, has := frag.Attr("id"); !has {
				frag.SetAttr("id", id)
			}
		}
		return frag
	}
	at := n
	for _, step := range rest[:len(rest)-1] {
		if i := firstMatch(at, step); i >= 0 {
			at = at.Children[i]
		} else {
			next := xmltree.New(step.Name)
			applyPreds(next, step)
			at.Add(next)
			at = next
		}
	}
	step := rest[len(rest)-1]
	if i := firstMatch(at, step); i >= 0 {
		at.Children[i] = frag
	} else {
		applyPreds(frag, step)
		at.Add(frag)
	}
	return n
}

// edit replaces the first element, in document order, that steps select
// from n with fn of it, in its parent's children. It returns n, or fn's
// element when steps select n itself; nil when they select nothing.
func edit(n *xmltree.Node, steps []xpath.Step, fn func(*xmltree.Node) *xmltree.Node) *xmltree.Node {
	if !steps[0].Matches(n) {
		return nil
	}
	if len(steps) == 1 {
		return fn(n)
	}
	for i, c := range n.Children {
		if next := edit(c, steps[1:], fn); next != nil {
			n.Children[i] = next
			return n
		}
	}
	return nil
}

// prune removes the elements rest selects below n, in place, and returns
// how many those were.
func prune(n *xmltree.Node, rest []xpath.Step) int {
	kids := n.Children[:0]
	dropped := 0
	for _, c := range n.Children {
		if rest[0].Matches(c) {
			if len(rest) == 1 {
				dropped++
				continue
			}
			dropped += prune(c, rest[1:])
		}
		kids = append(kids, c)
	}
	n.Children = kids
	return dropped
}

// firstMatch is the index of n's first child matching step, or -1.
func firstMatch(n *xmltree.Node, step xpath.Step) int {
	return slices.IndexFunc(n.Children, step.Matches)
}

// first is the first element p selects in doc, or nil.
func first(doc *xmltree.Node, p xpath.Path) *xmltree.Node {
	if sel := xpath.Select(doc, p); len(sel) > 0 {
		return sel[0]
	}
	return nil
}

// applyPreds stamps equality predicates onto a created node so the spine
// satisfies the path used to create it.
func applyPreds(n *xmltree.Node, step xpath.Step) {
	for _, p := range step.Preds {
		if p.HasValue {
			if _, ok := n.Attr(p.Attr); !ok {
				n.SetAttr(p.Attr, p.Value)
			}
		}
	}
}

// stored is what one read lock saw of a user: the document, its gen, the
// version of the newest write touching a path's section, and the last fetch
// answer published.
type stored struct {
	ud      *userDoc
	xml     string
	gen     uint64
	version uint64
	fetched *rendered
}

// read takes the user's stored document for a read of path; the caller
// parses it outside the lock.
func (e *Engine) read(user string, path xpath.Path) (stored, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ud := e.docs[user]
	if ud == nil {
		return stored{}, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	return stored{ud, ud.xml, ud.gen, e.compVer[sectionKey(user, path)], ud.fetched.Load()}, nil
}

// Get returns the pruned profile document (ancestor spine plus the subtrees
// selected by path) for the user, and the version of the newest write
// touching the path's section. Merging results from several stores is then
// a DeepUnion of the returned documents. The document is the caller's: it
// is a view of a tree parsed for this call.
func (e *Engine) Get(user string, path xpath.Path) (*xmltree.Node, uint64, error) {
	s, err := e.read(user, path)
	if err != nil {
		return nil, 0, err
	}
	view, err := view(s.xml, path)
	if err != nil {
		return nil, 0, err
	}
	return view, s.version, nil
}

// GetXML is Get rendered as compact XML, for a store answering a fetch. A
// user's document is rendered once per write: a fetch of the path the last
// one rendered returns those bytes again while no write has bumped the
// document's gen since. The parse and render run outside the lock; the
// answer's gen, not the time it is published, keeps it from answering for
// a document a write has replaced.
func (e *Engine) GetXML(user string, path xpath.Path) (string, uint64, error) {
	key := path.String()
	s, err := e.read(user, path)
	if err != nil {
		return "", 0, err
	}
	if r := s.fetched; r != nil && r.path == key && r.gen == s.gen {
		return r.xml, r.version, nil
	}
	view, err := view(s.xml, path)
	if err != nil {
		return "", 0, err
	}
	xml := view.String()
	s.ud.publish(&rendered{path: key, xml: xml, version: s.version, gen: s.gen})
	return xml, s.version, nil
}

// publish makes r the user's fetch answer unless the one there was rendered
// from a newer document: a render that read the document before a write
// may finish after one that read it after.
func (ud *userDoc) publish(r *rendered) {
	for {
		cur := ud.fetched.Load()
		if cur != nil && cur.gen > r.gen || ud.fetched.CompareAndSwap(cur, r) {
			return
		}
	}
}

// view parses a stored document and returns Get's view of it.
func view(xml string, path xpath.Path) (*xmltree.Node, error) {
	doc, err := parse(xml)
	if err != nil {
		return nil, err
	}
	view := xpath.View(doc, path)
	if view == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoComponent, path)
	}
	return view, nil
}

// GetComponent returns the first element selected by path (the component
// fragment itself rather than the spine document), from a tree parsed for
// this call.
func (e *Engine) GetComponent(user string, path xpath.Path) (*xmltree.Node, uint64, error) {
	s, err := e.read(user, path)
	if err != nil {
		return nil, 0, err
	}
	doc, err := parse(s.xml)
	if err != nil {
		return nil, 0, err
	}
	comp := first(doc, path)
	if comp == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoComponent, path)
	}
	return comp, s.version, nil
}

// Delete removes the elements selected by path and returns how many were
// removed.
func (e *Engine) Delete(user string, path xpath.Path) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ud := e.docs[user]
	if ud == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	if len(path.Steps) < 2 {
		return 0, nil
	}
	doc, err := parse(ud.xml)
	if err != nil {
		return 0, err
	}
	n := 0
	if path.Steps[0].Matches(doc) {
		n = prune(doc, path.Steps[1:])
	}
	if n > 0 {
		ud.xml = doc.String()
		ud.gen++
		e.version++
		e.compVer[sectionKey(user, path)] = e.version
		// Deletes are not recorded item-by-item; drop the user's change
		// logs so devices that predate the delete fall back to slow sync
		// rather than silently missing it.
		prefix := user + "\x00"
		for k := range e.logs {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				delete(e.logs, k)
			}
		}
	}
	return n, nil
}

// ComponentVersion returns the version of the last write touching the
// path's section for the user (0 if never written).
func (e *Engine) ComponentVersion(user string, path xpath.Path) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.compVer[sectionKey(user, path)]
}

// ChangesSince returns the item ops recorded for (user, path) after version
// since, flattened in order. ok is false when the log cannot serve the
// request (device too far behind, or no log) — the caller must slow-sync.
func (e *Engine) ChangesSince(user string, path xpath.Path, since uint64) (ops []xmltree.Op, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cur := e.compVer[sectionKey(user, path)]
	if since == cur {
		return nil, true // up to date
	}
	if since > cur || since == 0 {
		return nil, false
	}
	log := e.logs[compKey(user, path)]
	// The device's anchor is a component version it observed, so a record
	// with that exact version (or older) must still be retained — otherwise
	// intervening changes may have been evicted and only a slow sync is
	// sound.
	anchorIdx := -1
	for i, rec := range log {
		if rec.version <= since {
			anchorIdx = i
		} else {
			break
		}
	}
	if anchorIdx == -1 {
		return nil, false
	}
	for _, rec := range log[anchorIdx+1:] {
		ops = append(ops, rec.ops...)
	}
	return ops, true
}
