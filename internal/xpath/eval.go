package xpath

import "gupster/internal/xmltree"

// Select evaluates the path's element steps against a document whose root is
// root: the first step must match the root element itself, each subsequent
// step selects matching children. The attribute axis, if present, is ignored
// by Select (use SelectAttr). Results are in document order.
func Select(root *xmltree.Node, p Path) []*xmltree.Node {
	if root == nil || len(p.Steps) == 0 {
		return nil
	}
	if !p.Steps[0].Matches(root) {
		return nil
	}
	current := []*xmltree.Node{root}
	for _, step := range p.Steps[1:] {
		var next []*xmltree.Node
		for _, n := range current {
			for _, c := range n.Children {
				if step.Matches(c) {
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		current = next
	}
	return current
}

// SelectAttr evaluates a path ending in an attribute axis and returns the
// attribute values of the selected elements, in document order. For paths
// with no attribute axis it returns nil.
func SelectAttr(root *xmltree.Node, p Path) []string {
	if p.Attr == "" {
		return nil
	}
	var out []string
	for _, n := range Select(root, p) {
		if v, ok := n.Attr(p.Attr); ok {
			out = append(out, v)
		}
	}
	return out
}

// Extract returns a copy of the document pruned to the subtrees selected by
// p, preserving the ancestor spine (element names, attributes and text of
// ancestors, but none of their other children). This is how a data store
// materializes "the component at path p" as a standalone GUP XML fragment,
// and how the MDM rewrites a grant covering only part of a request.
// It returns nil when p selects nothing. The copy shares nothing with root.
func Extract(root *xmltree.Node, p Path) *xmltree.Node {
	return View(root, p).Clone()
}

// View returns the document Extract would, without copying it: the spine
// elements are fresh shells that share their attribute maps with root, and
// the selected subtrees are root's own nodes. A view is read-only and valid
// only while root is unchanged, so whoever holds root's lock must be done
// with it (rendered it, cloned it) before letting go. A path selecting the
// root element returns root itself. It returns nil when p selects nothing.
func View(root *xmltree.Node, p Path) *xmltree.Node {
	if root == nil || len(p.Steps) == 0 || !p.Steps[0].Matches(root) {
		return nil
	}
	return view(root, p.Steps[1:])
}

func view(n *xmltree.Node, rest []Step) *xmltree.Node {
	if len(rest) == 0 {
		return n
	}
	var kids []*xmltree.Node
	for i, c := range n.Children {
		if !rest[0].Matches(c) {
			continue
		}
		if sub := view(c, rest[1:]); sub != nil {
			if kids == nil {
				// Sized for every child left, so the slice is allocated once.
				kids = make([]*xmltree.Node, 0, len(n.Children)-i)
			}
			kids = append(kids, sub)
		}
	}
	if kids == nil {
		return nil
	}
	return &xmltree.Node{Name: n.Name, Attrs: n.Attrs, Text: n.Text, Children: kids}
}

// ReplaceAt substitutes repl for every element selected by p inside doc,
// in place, and returns the number of replacements. A nil repl deletes the
// selected elements. Replacing the document root returns 0 replacements if
// repl is nil would orphan the document; instead the root's content is
// overwritten.
func ReplaceAt(doc *xmltree.Node, p Path, repl *xmltree.Node) int {
	if doc == nil || len(p.Steps) == 0 || !p.Steps[0].Matches(doc) {
		return 0
	}
	if len(p.Steps) == 1 {
		if repl == nil {
			return 0
		}
		*doc = *repl.Clone()
		return 1
	}
	return replaceAt(doc, p.Steps[1:], repl)
}

func replaceAt(n *xmltree.Node, rest []Step, repl *xmltree.Node) int {
	count := 0
	if len(rest) == 1 {
		kept := n.Children[:0]
		for _, c := range n.Children {
			if rest[0].Matches(c) {
				count++
				if repl != nil {
					kept = append(kept, repl.Clone())
				}
			} else {
				kept = append(kept, c)
			}
		}
		n.Children = kept
		return count
	}
	for _, c := range n.Children {
		if rest[0].Matches(c) {
			count += replaceAt(c, rest[1:], repl)
		}
	}
	return count
}

// Contains reports whether p contains q: every node selected by q in any
// document is also selected by p. For this fragment the test is exact: the
// paths must have equal depth, each step of p must contain the corresponding
// step of q, and the attribute axes must agree. A q that can match no node
// (contradictory predicates) is contained in everything.
func Contains(p, q Path) bool {
	if q.Empty() {
		return true
	}
	if len(p.Steps) != len(q.Steps) || p.Attr != q.Attr {
		return false
	}
	for i := range p.Steps {
		if !p.Steps[i].Contains(q.Steps[i]) {
			return false
		}
	}
	return true
}

// Equivalent reports mutual containment.
func Equivalent(p, q Path) bool {
	return Contains(p, q) && Contains(q, p)
}

// CoverRelation classifies how a registered coverage path r relates to a
// request path q under subtree semantics: registering r means the store
// holds the entire subtree rooted at the nodes r selects.
type CoverRelation int

const (
	// CoverNone: the registration is irrelevant to the request.
	CoverNone CoverRelation = iota
	// CoverFull: the requested subtree lies entirely inside the registered
	// subtree — one referral to this store can answer the whole request.
	CoverFull
	// CoverPartial: the registered subtree lies strictly inside the
	// requested subtree — this store holds a piece; the client must merge
	// pieces (Figure 9 of the paper).
	CoverPartial
)

func (c CoverRelation) String() string {
	switch c {
	case CoverFull:
		return "full"
	case CoverPartial:
		return "partial"
	default:
		return "none"
	}
}

// Covers classifies registration r against request q.
//
// CoverFull requires r's depth ≤ q's depth and each step of r to contain the
// corresponding step of q: every node on q's spine down to r's depth is then
// inside a registered subtree.
//
// CoverPartial holds when the registered and requested subtrees intersect
// without the registration covering the whole request: the registration may
// be deeper (Figure 9's per-type address book split), more specific in a
// predicate (one user's data against an all-users request), or both at once
// (an unpinned deep registration against a pinned shallow request). The
// store then holds a piece the client must merge.
func Covers(r, q Path) CoverRelation {
	if prefixContains(r, q) {
		return CoverFull
	}
	if q.Attr == "" {
		if _, ok := Intersect(r, q); ok {
			return CoverPartial
		}
	}
	return CoverNone
}

// Intersect computes a path selecting exactly the nodes selected by both p
// and q under subtree semantics: the deeper path's steps with the shallower
// path's predicates merged in. ok is false when the paths cannot select
// overlapping subtrees (incompatible names or contradictory equality
// predicates).
func Intersect(p, q Path) (Path, bool) {
	if p.Attr != "" && q.Attr != "" && p.Attr != q.Attr {
		return Path{}, false
	}
	long, short := p, q
	if len(q.Steps) > len(p.Steps) {
		long, short = q, p
	}
	steps := make([]Step, len(long.Steps))
	for i := range long.Steps {
		if i < len(short.Steps) {
			merged, ok := mergeSteps(long.Steps[i], short.Steps[i])
			if !ok {
				return Path{}, false
			}
			steps[i] = merged
		} else {
			steps[i] = long.Steps[i]
		}
	}
	attr := p.Attr
	if attr == "" {
		attr = q.Attr
	}
	// An attribute axis on the shorter path only composes when the paths
	// have equal depth (an attribute node has no subtree to intersect).
	if len(p.Steps) != len(q.Steps) {
		shorterAttr := short.Attr
		if shorterAttr != "" {
			return Path{}, false
		}
		attr = long.Attr
	}
	out := Path{Steps: steps, Attr: attr}
	if out.Empty() {
		return Path{}, false
	}
	return out, true
}

// mergeSteps unifies two location steps: the more specific name test and
// the union of predicates.
func mergeSteps(a, b Step) (Step, bool) {
	name := a.Name
	switch {
	case a.Name == "*":
		name = b.Name
	case b.Name == "*" || a.Name == b.Name:
		// keep a's name
	default:
		return Step{}, false
	}
	out := Step{Name: name, Preds: append([]Pred(nil), a.Preds...)}
	for _, bp := range b.Preds {
		dup := false
		for _, ap := range out.Preds {
			if ap == bp {
				dup = true
				break
			}
		}
		if !dup {
			out.Preds = append(out.Preds, bp)
		}
	}
	if out.unsatisfiable() {
		return Step{}, false
	}
	return out, true
}

// prefixContains reports whether a (the shorter or equal path) step-wise
// contains the prefix of b, meaning b's selected nodes are inside subtrees
// selected by a. If a has an attribute axis it must match b exactly.
func prefixContains(a, b Path) bool {
	if len(a.Steps) > len(b.Steps) {
		return false
	}
	if a.Attr != "" && (len(a.Steps) != len(b.Steps) || a.Attr != b.Attr) {
		return false
	}
	for i := range a.Steps {
		if !a.Steps[i].Contains(b.Steps[i]) {
			return false
		}
	}
	return true
}

// Remainder returns the suffix of q below r's depth, as a path rooted at
// q's step at r's depth. It is used when chaining: the MDM fetches the
// registered component and then navigates the remainder locally.
// The first returned step is q.Steps[len(r.Steps)-1] — i.e. the remainder is
// itself an absolute path over the fetched component. Returns q unchanged if
// r is not shallower than q.
func Remainder(r, q Path) Path {
	if len(r.Steps) == 0 || len(r.Steps) > len(q.Steps) {
		return q
	}
	steps := make([]Step, len(q.Steps)-len(r.Steps)+1)
	copy(steps, q.Steps[len(r.Steps)-1:])
	return Path{Steps: steps, Attr: q.Attr}
}
