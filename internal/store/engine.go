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

// changeRec is one entry of a component change log.
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
	docs    map[string]*userDoc // user → profile tree rooted at <user>
	version uint64              // global monotonic write counter
	// compVer tracks the version of the last write touching (user, section).
	compVer map[string]uint64
	// logs holds per-(user, component-path) change logs.
	logs map[string][]changeRec

	// onChange, when set, runs after every successful write, outside the
	// engine lock. Used by the server to notify the MDM and subscribers.
	onChange func(user string, path xpath.Path, frag *xmltree.Node, version uint64)
}

// userDoc is one user's profile tree and the last fetch answer rendered
// from it. A published tree never changes: a write path-copies it and
// assigns the copy under the engine's write lock. gen counts those writes,
// and a render is an answer only while it carries the gen of the tree it
// was rendered from, whenever it was published.
type userDoc struct {
	tree    *xmltree.Node
	gen     uint64
	fetched atomic.Pointer[rendered]
}

// rendered is one GetXML answer: the compact XML for the path whose
// canonical String() is path, the version it carried, and the gen of the
// tree it was rendered from. It is immutable.
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
// shared across goroutines. The hook's frag is the written component as it
// stands in the engine's tree: shared, and read-only.
func (e *Engine) OnChange(fn func(user string, path xpath.Path, frag *xmltree.Node, version uint64)) {
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
// Put copies frag once; the tree it publishes shares every subtree off the
// written path with the tree before it.
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

	frag = frag.Clone()

	e.mu.Lock()
	ud := e.docs[user]
	if ud == nil {
		ud = &userDoc{tree: xmltree.New("user").SetAttr("id", user)}
		e.docs[user] = ud
	}
	ud.gen++
	old := ud.tree
	if scoped {
		ud.tree = scopedReplace(old, path, frag)
	} else {
		ud.tree = graft(old, path.Steps[1:], frag)
	}
	// Neither tree changes once published, so the component before and
	// after the write are the two trees' own nodes.
	oldComp, newComp := first(old, logPath), first(ud.tree, logPath)
	e.version++
	v := e.version
	e.compVer[sectionKey(user, path)] = v

	// Append item-level ops to the change log for delta sync.
	key := compKey(user, logPath)
	ops := xmltree.Diff(oldComp, newComp, xmltree.DefaultKeys)
	if len(ops) > 0 {
		log := append(e.logs[key], changeRec{version: v, ops: ops})
		if len(log) > maxLogPerComponent {
			log = log[len(log)-maxLogPerComponent:]
		}
		e.logs[key] = log
	}
	hook := e.onChange
	e.mu.Unlock()

	if hook != nil && newComp != nil {
		hook(user, logPath, newComp, v)
	}
	return v, nil
}

// scopedReplace returns a copy of doc in which the children of the last
// step's parent that match the last step are swapped for frag's matching
// children, creating the parent spine as needed.
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

// graft returns a copy of n with frag placed at rest below it, creating
// missing spine elements: the first element matching the final step is
// replaced, or else frag is appended under the deepest ancestor. An empty
// rest is a whole-profile write: frag replaces n but keeps n's id.
func graft(n *xmltree.Node, rest []xpath.Step, frag *xmltree.Node) *xmltree.Node {
	if len(rest) == 0 {
		if id, ok := n.Attr("id"); ok {
			if _, has := frag.Attr("id"); !has {
				frag.SetAttr("id", id)
			}
		}
		return frag
	}
	step := rest[0]
	i := firstMatch(n, step)
	if len(rest) == 1 {
		if i < 0 {
			applyPreds(frag, step)
		}
		return withChild(n, i, frag)
	}
	var next *xmltree.Node
	if i >= 0 {
		next = n.Children[i]
	} else {
		next = xmltree.New(step.Name)
		applyPreds(next, step)
	}
	return withChild(n, i, graft(next, rest[1:], frag))
}

// edit returns a copy of n in which fn has replaced the first element, in
// document order, that steps select from n; nil when they select nothing.
func edit(n *xmltree.Node, steps []xpath.Step, fn func(*xmltree.Node) *xmltree.Node) *xmltree.Node {
	if !steps[0].Matches(n) {
		return nil
	}
	if len(steps) == 1 {
		return fn(n)
	}
	for i, c := range n.Children {
		if next := edit(c, steps[1:], fn); next != nil {
			return withChild(n, i, next)
		}
	}
	return nil
}

// prune returns a copy of n without the elements rest selects below it,
// and how many those were; n itself when there were none.
func prune(n *xmltree.Node, rest []xpath.Step) (*xmltree.Node, int) {
	kids := make([]*xmltree.Node, 0, len(n.Children))
	dropped := 0
	for _, c := range n.Children {
		if rest[0].Matches(c) {
			if len(rest) == 1 {
				dropped++
				continue
			}
			var k int
			c, k = prune(c, rest[1:])
			dropped += k
		}
		kids = append(kids, c)
	}
	if dropped == 0 {
		return n, 0
	}
	out := *n
	out.Children = kids
	return &out, dropped
}

// withChild returns a copy of n whose child i is c, or with c appended when
// i < 0. The copy has a children slice of its own and shares every other
// child, and n's attributes, with n. The copies along a written path are
// the only new nodes a write makes besides its fragment.
func withChild(n *xmltree.Node, i int, c *xmltree.Node) *xmltree.Node {
	out := *n
	if i < 0 {
		out.Children = append(n.Children[:len(n.Children):len(n.Children)], c)
	} else {
		out.Children = slices.Clone(n.Children)
		out.Children[i] = c
	}
	return &out
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

// Get returns the pruned profile document (ancestor spine plus the subtrees
// selected by path) for the user, and the version of the newest write
// touching the path's section. Merging results from several stores is then
// a DeepUnion of the returned documents. The document is the caller's: it
// shares nothing with the engine's tree.
func (e *Engine) Get(user string, path xpath.Path) (*xmltree.Node, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	view, v, err := e.view(user, path)
	return view.Clone(), v, err
}

// GetXML is Get rendered as compact XML, for a store answering a fetch. A
// user's document is rendered once per write: a fetch of the path the last
// one rendered returns those bytes again while no write has bumped the
// tree's gen since. A render is written straight from the engine's tree
// under the read lock, so no node of it is copied; its gen, not the time
// it is published, keeps it from answering for a tree a write has replaced.
func (e *Engine) GetXML(user string, path xpath.Path) (string, uint64, error) {
	key := path.String()
	e.mu.RLock()
	defer e.mu.RUnlock()
	ud := e.docs[user]
	if ud != nil {
		if r := ud.fetched.Load(); r != nil && r.path == key && r.gen == ud.gen {
			return r.xml, r.version, nil
		}
	}
	view, v, err := e.view(user, path)
	if err != nil {
		return "", 0, err
	}
	xml := view.String()
	ud.fetched.Store(&rendered{path: key, xml: xml, version: v, gen: ud.gen})
	return xml, v, nil
}

// view is Get's document as an xpath.View of the engine's tree. The caller
// holds e.mu and is done with the view before releasing it.
func (e *Engine) view(user string, path xpath.Path) (*xmltree.Node, uint64, error) {
	ud := e.docs[user]
	if ud == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	view := xpath.View(ud.tree, path)
	if view == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoComponent, path)
	}
	return view, e.compVer[sectionKey(user, path)], nil
}

// GetComponent returns the first element selected by path (the component
// fragment itself rather than the spine document).
func (e *Engine) GetComponent(user string, path xpath.Path) (*xmltree.Node, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ud := e.docs[user]
	if ud == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	comp := first(ud.tree, path)
	if comp == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoComponent, path)
	}
	return comp.Clone(), e.compVer[sectionKey(user, path)], nil
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
	n := 0
	if len(path.Steps) > 1 && path.Steps[0].Matches(ud.tree) {
		ud.tree, n = prune(ud.tree, path.Steps[1:])
	}
	if n > 0 {
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
