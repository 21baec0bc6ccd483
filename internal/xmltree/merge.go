package xmltree

import (
	"slices"
	"sort"
)

// KeySpec names, per element name, the attribute that identifies an element
// instance for merging and diffing. This realizes the "Keys for XML" idea
// the paper cites: two <item> elements denote the same logical entry when
// their key attributes are equal.
//
// Elements without an entry in the spec are matched positionally by DeepUnion
// and treated as atomic by Diff.
type KeySpec map[string]string

// DefaultKeys is the key spec used by GUP profile components: entries and
// devices are identified by their id attribute, address book items by name.
var DefaultKeys = KeySpec{
	"item":    "name",
	"entry":   "id",
	"device":  "id",
	"user":    "id",
	"rule":    "id",
	"contact": "name",
	"event":   "id",
}

// childKey is a keyed node's merge identity: its element name and the value
// of its key attribute.
type childKey struct{ name, val string }

// identity returns the merge identity of a node under the spec and whether
// the node is keyed: the spec names a key attribute for its element and the
// node carries it.
func (ks KeySpec) identity(n *Node) (childKey, bool) {
	attr, ok := ks[n.Name]
	if !ok {
		return childKey{}, false
	}
	v, ok := n.Attr(attr)
	if !ok {
		return childKey{}, false
	}
	return childKey{n.Name, v}, true
}

// keyOf is identity spelled as the string Diff reports in Op.Key: element
// name, a NUL, the key value.
func (ks KeySpec) keyOf(n *Node) (string, bool) {
	k, ok := ks.identity(n)
	if !ok {
		return "", false
	}
	return k.name + "\x00" + k.val, true
}

func (ks KeySpec) keyed(n *Node) bool {
	_, ok := ks.identity(n)
	return ok
}

// DeepUnion merges two component trees into a new tree, following the
// deterministic model for semistructured data (Buneman, Deutsch, Tan): keyed
// children with equal identity are merged recursively; all other children
// are concatenated, a's first. On conflicting text or attribute values at a
// merged node, a (the first argument) wins — callers encode source priority
// by argument order.
//
// Neither input is modified.
func DeepUnion(a, b *Node, keys KeySpec) *Node {
	return MergeAll(keys, a, b)
}

// MergeAll deep-unions components in priority order: earlier arguments win
// conflicts. Nil entries are skipped; the result is nil when all are nil.
// The result is DeepUnion folded from the left, built without copying any
// node twice: the first component is copied, and each later one is merged
// into that copy, which copies from it only the nodes it adopts.
//
// No input is modified, and the result shares no node, attribute array or
// children slice with any input.
func MergeAll(keys KeySpec, components ...*Node) *Node {
	// Every input node is copied at most once, so one slab holds them all.
	return newSlab(components...).merge(keys, components)
}

// MergeOwned is MergeAll for pieces the caller hands over: it merges them in
// place and copies nothing. The first non-nil piece becomes the result, and
// the nodes it adopts from later pieces are those pieces' own, so a lone
// piece comes back as it is.
//
// Precondition: the pieces share no node or children slice with each other
// or with anything the caller still uses — each is, say, the tree of its own
// ParseString call. Every piece may be modified and must not be read again
// except through the result.
func MergeOwned(keys KeySpec, pieces ...*Node) *Node {
	return (*slab)(nil).merge(keys, pieces)
}

// merge folds the components into the first non-nil one, adopted from s.
func (s *slab) merge(keys KeySpec, components []*Node) *Node {
	var out *Node
	for _, c := range components {
		switch {
		case c == nil:
		case out == nil:
			out = s.adopt(c)
		default:
			s.unionInto(out, c, keys)
		}
	}
	return out
}

// adopt returns the node a merge takes over from an input: a copy out of the
// slab, or, with no slab (MergeOwned), the input node itself.
func (s *slab) adopt(n *Node) *Node {
	if s == nil {
		return n
	}
	return s.copy(n)
}

// unionInto turns a into DeepUnion(a, b) in place. a belongs to the merge —
// every node and children slice under it — and b is only read; the nodes a
// adopts from b are copied out of s, or with a nil s taken over as they are.
//
// A merged node's children come out as its unkeyed children (a's, each
// merged with its singleton partner from b, then b's that found none) and
// then its keyed ones in order of first appearance, a's first. A key
// repeated in a keeps its first position and its last node; a key repeated
// in b merges into the node already holding it.
func (s *slab) unionInto(a, b *Node, keys KeySpec) {
	if a.Text == "" {
		a.Text = b.Text
	}
	a.attrs = unionAttrs(a.attrs, b.attrs)
	n := len(a.Children) + len(b.Children)
	if n == 0 {
		return
	}
	out := make([]*Node, 0, n)
	var keyed []*Node
	var index map[childKey]int
	add := func(k childKey, c *Node) {
		if index == nil {
			index = make(map[childKey]int, n)
			keyed = make([]*Node, 0, n)
		}
		index[k] = len(keyed)
		keyed = append(keyed, c)
	}
	for _, c := range a.Children {
		k, ok := keys.identity(c)
		if !ok {
			out = append(out, c)
		} else if i, seen := index[k]; seen {
			keyed[i] = c
		} else {
			add(k, c)
		}
	}
	unkeyedA := out
	unkeyedB := 0
	for _, c := range b.Children {
		k, ok := keys.identity(c)
		if !ok {
			unkeyedB++
		} else if i, seen := index[k]; seen {
			s.unionInto(keyed[i], c, keys)
		} else {
			add(k, s.adopt(c))
		}
	}

	// Unkeyed children with the same name that appear exactly once on each
	// side are merged structurally (e.g. a singleton <preferences> section);
	// everything else concatenates.
	if unkeyedB > 0 {
		var counts map[string]section
		if len(unkeyedA) > 0 {
			counts = sections(unkeyedA, b.Children, keys)
		}
		for _, c := range b.Children {
			if keys.keyed(c) {
				continue
			}
			if sec := counts[c.Name]; sec.inA == 1 && sec.inB == 1 {
				s.unionInto(sec.a, c, keys)
			} else {
				out = append(out, s.adopt(c))
			}
		}
	}
	a.Children = append(out, keyed...)
}

// unionAttrs returns a's attributes and those of b whose name a lacks, in
// name order: a wins on conflict. It returns a itself when b adds none, and
// otherwise a new array, so neither input is written.
func unionAttrs(a, b []Attr) []Attr {
	var added []Attr
	for _, x := range b {
		if _, ok := slices.BinarySearchFunc(a, x.Name, byName); !ok {
			added = append(added, x)
		}
	}
	if added == nil {
		return a
	}
	out, _ := sortAttrs(append(added, a...), attrName)
	return out
}

// section counts the unkeyed children of one name on each side of a level;
// a is a's child of that name when it has one only.
type section struct {
	a        *Node
	inA, inB int
}

// sections counts the names of unkeyedA and of bc's unkeyed children that
// share one of them.
func sections(unkeyedA, bc []*Node, keys KeySpec) map[string]section {
	counts := make(map[string]section, len(unkeyedA))
	for _, c := range unkeyedA {
		sec := counts[c.Name]
		sec.a, sec.inA = c, sec.inA+1
		counts[c.Name] = sec
	}
	for _, c := range bc {
		if sec, ok := counts[c.Name]; ok && !keys.keyed(c) {
			sec.inB++
			counts[c.Name] = sec
		}
	}
	return counts
}

// OpKind classifies a Diff edit.
type OpKind int

const (
	// OpAdd means the item exists only in the newer tree.
	OpAdd OpKind = iota
	// OpRemove means the item exists only in the older tree.
	OpRemove
	// OpModify means a keyed item exists in both trees with different content.
	OpModify
)

func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpModify:
		return "modify"
	default:
		return "unknown"
	}
}

// Op is one item-granularity edit between two versions of a component. Key
// is the merge identity ("" for unkeyed structural changes rooted at the
// component itself); Node carries the new content for add/modify and the old
// content for remove.
type Op struct {
	Kind OpKind
	Key  string
	Node *Node
}

// Diff computes item-granularity edits that transform old into new, matching
// keyed children of the component root by identity. Unkeyed structural or
// text changes are reported as a single OpModify with an empty key carrying
// the whole new tree — the sync layer falls back to full transfer for those.
func Diff(oldT, newT *Node, keys KeySpec) []Op {
	var ops []Op
	if oldT == nil && newT == nil {
		return nil
	}
	if oldT == nil {
		return []Op{{Kind: OpModify, Node: newT.Clone()}}
	}
	if newT == nil {
		return []Op{{Kind: OpModify, Node: nil}}
	}

	oldKeyed, oldRest := splitKeyed(oldT, keys)
	newKeyed, newRest := splitKeyed(newT, keys)

	// Any difference outside the keyed children means the component shell
	// changed; report as a full modify.
	if !shellEqual(oldT, newT) || !unkeyedEqual(oldRest, newRest) {
		return []Op{{Kind: OpModify, Node: newT.Clone()}}
	}

	var addedKeys []string
	for k := range newKeyed {
		if _, ok := oldKeyed[k]; !ok {
			addedKeys = append(addedKeys, k)
		}
	}
	sort.Strings(addedKeys)
	for _, k := range addedKeys {
		ops = append(ops, Op{Kind: OpAdd, Key: k, Node: newKeyed[k].Clone()})
	}

	var removedKeys, modifiedKeys []string
	for k, o := range oldKeyed {
		n, ok := newKeyed[k]
		if !ok {
			removedKeys = append(removedKeys, k)
		} else if !o.Equal(n) {
			modifiedKeys = append(modifiedKeys, k)
		}
	}
	sort.Strings(removedKeys)
	sort.Strings(modifiedKeys)
	for _, k := range removedKeys {
		ops = append(ops, Op{Kind: OpRemove, Key: k, Node: oldKeyed[k].Clone()})
	}
	for _, k := range modifiedKeys {
		ops = append(ops, Op{Kind: OpModify, Key: k, Node: newKeyed[k].Clone()})
	}
	return ops
}

// Patch applies ops (as produced by Diff) to a clone of base and returns the
// result. A full-modify op (empty key) replaces the entire tree.
func Patch(base *Node, ops []Op, keys KeySpec) *Node {
	out := base.Clone()
	for _, op := range ops {
		if op.Key == "" {
			if op.Node == nil {
				return nil
			}
			out = op.Node.Clone()
			continue
		}
		switch op.Kind {
		case OpAdd:
			if out == nil {
				out = &Node{Name: op.Node.Name}
			}
			out.Children = append(out.Children, op.Node.Clone())
		case OpRemove:
			removeKeyed(out, op.Key, keys)
		case OpModify:
			if !replaceKeyed(out, op.Key, op.Node, keys) {
				out.Children = append(out.Children, op.Node.Clone())
			}
		}
	}
	return out
}

func splitKeyed(n *Node, keys KeySpec) (map[string]*Node, []*Node) {
	keyed := make(map[string]*Node)
	var rest []*Node
	for _, c := range n.Children {
		if k, ok := keys.keyOf(c); ok {
			keyed[k] = c
		} else {
			rest = append(rest, c)
		}
	}
	return keyed, rest
}

func shellEqual(a, b *Node) bool {
	return a.Name == b.Name && a.Text == b.Text && slices.Equal(a.attrs, b.attrs)
}

func unkeyedEqual(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func removeKeyed(n *Node, key string, keys KeySpec) {
	for i, c := range n.Children {
		if k, ok := keys.keyOf(c); ok && k == key {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return
		}
	}
}

func replaceKeyed(n *Node, key string, repl *Node, keys KeySpec) bool {
	for i, c := range n.Children {
		if k, ok := keys.keyOf(c); ok && k == key {
			n.Children[i] = repl.Clone()
			return true
		}
	}
	return false
}
