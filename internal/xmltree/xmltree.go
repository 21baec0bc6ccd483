// Package xmltree implements the XML data model underlying GUP profile
// components: an ordered tree of elements with attributes and text, plus the
// operations the GUPster framework needs on top of plain parsing —
// canonicalization, structural equality, deep union (Buneman et al.'s
// deterministic merge), key-based diffing, and path navigation.
//
// The model is deliberately simpler than full XML: no namespaces, no
// processing instructions, no mixed content beyond a single text run per
// element. That matches the paper's use of XML as a nested data model for
// profile components rather than as a document format.
//
// ParseString is the one way in: a hand-written single-pass scanner, no
// encoding/xml. It reads what String and Indent write plus the XML a store
// may have on file (prolog, comments, DOCTYPE, CDATA, namespace prefixes),
// refuses nesting deeper than MaxDepth and anything not well-formed, and
// returns a tree whose strings alias the input.
package xmltree

import (
	"maps"
	"slices"
	"sync"
)

// Node is one element in a profile component tree. The zero value is an
// unnamed empty element, which is rarely useful; build trees with New or
// ParseString.
type Node struct {
	// Name is the element name, e.g. "address-book".
	Name string
	// Attrs holds the element's attributes. Serialization orders keys
	// lexicographically so canonical output is deterministic.
	Attrs map[string]string
	// Text is the element's text content. Elements with children normally
	// have empty Text; if both are present, Text serializes first.
	Text string
	// Children are the ordered child elements.
	Children []*Node
}

// New returns a named element with no attributes or children.
func New(name string) *Node {
	return &Node{Name: name}
}

// NewText returns a named element holding only text content.
func NewText(name, text string) *Node {
	return &Node{Name: name, Text: text}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	v, ok := n.Attrs[name]
	return v, ok
}

// SetAttr sets an attribute, allocating the map on first use, and returns n
// for chaining.
func (n *Node) SetAttr(name, value string) *Node {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[name] = value
	return n
}

// Add appends children and returns n for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Child returns the first child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first child with the given name, or "".
func (n *Node) ChildText(name string) string {
	if c := n.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenNamed returns all children with the given name, in order.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// RemoveChild removes the first child identical (by pointer) to c and
// reports whether it was found.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the subtree rooted at n. The copy's nodes
// share one allocation, so a copied node keeps the whole copy alive.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	return newSlab(n.Count(), 1).copy(n)
}

// slab hands out the nodes and child-pointer slots of copied subtrees from
// two arrays sized up front: a copy costs two allocations however many
// nodes it has, plus one map per element with attributes.
type slab struct {
	nodes []Node
	kids  []*Node
}

// newSlab sizes a slab for copying up to nodes nodes out of roots trees. A
// root is no copied node's child, so nodes-roots child slots suffice.
func newSlab(nodes, roots int) *slab {
	return &slab{nodes: make([]Node, nodes), kids: make([]*Node, nodes-roots)}
}

// node hands out the slab's next node.
func (s *slab) node() *Node {
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return n
}

// children hands out the next k child slots as a three-index slice: its
// capacity ends where the next node's slots begin, so an append to one
// node's children reallocates rather than overwriting another's.
func (s *slab) children(k int) []*Node {
	c := s.kids[:k:k]
	s.kids = s.kids[k:]
	return c
}

// copy deep-copies n out of the slab.
func (s *slab) copy(n *Node) *Node {
	out := s.node()
	out.Name, out.Text = n.Name, n.Text
	if len(n.Attrs) > 0 {
		out.Attrs = maps.Clone(n.Attrs)
	}
	if k := len(n.Children); k > 0 {
		out.Children = s.children(k)
		for i, c := range n.Children {
			out.Children[i] = s.copy(c)
		}
	}
	return out
}

// Equal reports deep structural equality: same name, attributes, text, and
// the same children in the same order.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Name != m.Name || n.Text != m.Text || len(n.Attrs) != len(m.Attrs) || len(n.Children) != len(m.Children) {
		return false
	}
	for k, v := range n.Attrs {
		if mv, ok := m.Attrs[k]; !ok || mv != v {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits n and every descendant in document order. If fn returns false
// the walk skips that node's subtree (the walk itself continues elsewhere).
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Count returns the number of elements in the subtree rooted at n.
func (n *Node) Count() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}

// String renders the subtree as compact XML with lexicographically ordered
// attributes, suitable for hashing and comparison.
func (n *Node) String() string { return n.render(false) }

// Indent renders the subtree as indented XML for human consumption.
func (n *Node) Indent() string { return n.render(true) }

// writeBufs recycles the buffers String and Indent render into. Buffers
// that grew past maxPooledWrite are dropped instead of pinned.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledWrite = 64 << 10

// render writes the subtree into a pooled buffer, so the returned string is
// the only allocation.
func (n *Node) render(indent bool) string {
	bp := writeBufs.Get().(*[]byte)
	b := n.appendXML((*bp)[:0], indent, 0)
	s := string(b)
	if cap(b) <= maxPooledWrite {
		*bp = b
		writeBufs.Put(bp)
	}
	return s
}

func (n *Node) appendXML(b []byte, indent bool, depth int) []byte {
	if indent {
		b = appendPad(b, depth)
	}
	b = append(b, '<')
	b = append(b, n.Name...)
	// Attributes in name order, sorted on the stack up to eight of them.
	var stack [8]string
	names := stack[:0]
	for k := range n.Attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, `="`...)
		b = appendEscaped(b, n.Attrs[k], true)
		b = append(b, '"')
	}
	if n.Text == "" && len(n.Children) == 0 {
		b = append(b, "/>"...)
	} else {
		b = append(b, '>')
		b = appendEscaped(b, n.Text, false)
		if len(n.Children) > 0 {
			if indent {
				b = append(b, '\n')
			}
			for _, c := range n.Children {
				b = c.appendXML(b, indent, depth+1)
			}
			if indent {
				b = appendPad(b, depth)
			}
		}
		b = append(b, "</"...)
		b = append(b, n.Name...)
		b = append(b, '>')
	}
	if indent {
		b = append(b, '\n')
	}
	return b
}

func appendPad(b []byte, depth int) []byte {
	for i := 0; i < depth*2; i++ {
		b = append(b, ' ')
	}
	return b
}

// appendEscaped appends s with markup characters replaced by references:
// & < > always, " inside an attribute value. CR is escaped because a raw
// one does not survive any XML parser: line-end normalisation turns it into
// LF, and the tree read back would differ from the tree written.
func appendEscaped(b []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			ref = "&gt;"
		case '\r':
			ref = "&#xD;"
		case '"':
			if !attr {
				continue
			}
			ref = "&quot;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, ref...)
		last = i + 1
	}
	return append(b, s[last:]...)
}

// Size returns the length in bytes of the compact serialization. It is the
// unit used by benchmarks when reporting bytes moved.
func (n *Node) Size() int {
	return len(n.String())
}
