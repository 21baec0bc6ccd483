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
	"sync"

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
	// Keys drives item identity for diffs and merges.
	Keys xmltree.KeySpec

	mu      sync.RWMutex
	docs    map[string]*xmltree.Node // user → profile tree rooted at <user>
	version uint64                   // global monotonic write counter
	// compVer tracks the version of the last write touching (user, section).
	compVer map[string]uint64
	// logs holds per-(user, component-path) change logs.
	logs map[string][]changeRec

	// onChange, when set, runs after every successful write, outside the
	// engine lock. Used by the server to notify the MDM and subscribers.
	onChange func(user string, path xpath.Path, frag *xmltree.Node, version uint64)
}

// NewEngine returns an empty engine for the named store.
func NewEngine(id string) *Engine {
	return &Engine{
		id:      id,
		Keys:    xmltree.DefaultKeys,
		docs:    make(map[string]*xmltree.Node),
		compVer: make(map[string]uint64),
		logs:    make(map[string][]changeRec),
	}
}

// ID returns the store identity used in coverage registrations and tokens.
func (e *Engine) ID() string { return e.id }

// OnChange registers the write hook. Must be called before the engine is
// shared across goroutines.
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
	doc := e.docs[user]
	if doc == nil {
		doc = xmltree.New("user").SetAttr("id", user)
		e.docs[user] = doc
	}
	var oldComp, newComp *xmltree.Node
	if sel := xpath.Select(doc, logPath); len(sel) > 0 {
		oldComp = sel[0].Clone()
	}
	if scoped {
		scopedReplace(doc, path, frag)
	} else {
		graft(doc, path, frag.Clone())
	}
	if sel := xpath.Select(doc, logPath); len(sel) > 0 {
		newComp = sel[0].Clone()
	}
	e.version++
	v := e.version
	e.compVer[sectionKey(user, path)] = v

	// Append item-level ops to the change log for delta sync.
	key := compKey(user, logPath)
	ops := xmltree.Diff(oldComp, newComp, e.Keys)
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

// scopedReplace swaps the children of the last step's parent that match the
// last step for frag's matching children, creating the parent spine as
// needed.
func scopedReplace(doc *xmltree.Node, path xpath.Path, frag *xmltree.Node) {
	parentPath := path.Prefix(len(path.Steps) - 1)
	last := path.Steps[len(path.Steps)-1]
	parents := xpath.Select(doc, parentPath)
	if len(parents) == 0 {
		shell := &xmltree.Node{Name: frag.Name, Text: frag.Text}
		for k, val := range frag.Attrs {
			shell.SetAttr(k, val)
		}
		graft(doc, parentPath, shell)
		parents = xpath.Select(doc, parentPath)
		if len(parents) == 0 {
			return
		}
	}
	parent := parents[0]
	kept := parent.Children[:0]
	for _, c := range parent.Children {
		if !last.Matches(c) {
			kept = append(kept, c)
		}
	}
	parent.Children = kept
	for _, c := range frag.Children {
		if last.Matches(c) {
			parent.Children = append(parent.Children, c.Clone())
		}
	}
}

// barePath strips predicates off the first step so component validation
// resolves against the schema regardless of the user pin.
func barePath(p xpath.Path) xpath.Path {
	steps := make([]xpath.Step, len(p.Steps))
	copy(steps, p.Steps)
	steps[0] = xpath.Step{Name: steps[0].Name}
	return xpath.Path{Steps: steps, Attr: p.Attr}
}

// graft places frag at path inside doc, creating missing spine elements.
// Existing elements matching the final step are replaced; otherwise the
// fragment is appended under the deepest existing ancestor.
func graft(doc *xmltree.Node, path xpath.Path, frag *xmltree.Node) {
	if len(path.Steps) == 1 {
		// Whole-profile write: replace content but keep identity attrs.
		id, hasID := doc.Attr("id")
		*doc = *frag
		if hasID {
			if _, ok := doc.Attr("id"); !ok {
				doc.SetAttr("id", id)
			}
		}
		return
	}
	parent := doc
	for _, step := range path.Steps[1 : len(path.Steps)-1] {
		next := firstMatch(parent, step)
		if next == nil {
			next = xmltree.New(step.Name)
			applyPreds(next, step)
			parent.Add(next)
		}
		parent = next
	}
	last := path.Steps[len(path.Steps)-1]
	if existing := firstMatch(parent, last); existing != nil {
		*existing = *frag
		return
	}
	applyPreds(frag, last)
	parent.Add(frag)
}

func firstMatch(n *xmltree.Node, step xpath.Step) *xmltree.Node {
	for _, c := range n.Children {
		if step.Matches(c) {
			return c
		}
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

// GetXML is Get rendered as compact XML, for a store answering a fetch. The
// document is written straight from the engine's tree while the read lock
// is held, so no node of it is copied.
func (e *Engine) GetXML(user string, path xpath.Path) (string, uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	view, v, err := e.view(user, path)
	if err != nil {
		return "", 0, err
	}
	return view.String(), v, nil
}

// view is Get's document as an xpath.View of the engine's tree. The caller
// holds e.mu and is done with the view before releasing it.
func (e *Engine) view(user string, path xpath.Path) (*xmltree.Node, uint64, error) {
	doc := e.docs[user]
	if doc == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	view := xpath.View(doc, path)
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
	doc := e.docs[user]
	if doc == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	sel := xpath.Select(doc, path)
	if len(sel) == 0 {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoComponent, path)
	}
	return sel[0].Clone(), e.compVer[sectionKey(user, path)], nil
}

// Delete removes the elements selected by path and returns how many were
// removed.
func (e *Engine) Delete(user string, path xpath.Path) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	doc := e.docs[user]
	if doc == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	n := xpath.ReplaceAt(doc, path, nil)
	if n > 0 {
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

// Version returns the engine's global write counter.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
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

// Users returns the identities this store holds data for.
func (e *Engine) Users() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.docs))
	for u := range e.docs {
		out = append(out, u)
	}
	return out
}
