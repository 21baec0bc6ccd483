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
	"sort"
	"strings"
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

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			out.Attrs[k] = v
		}
	}
	if len(n.Children) > 0 {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = c.Clone()
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
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// sortedAttrKeys returns attribute names in lexicographic order.
func (n *Node) sortedAttrKeys() []string {
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the subtree as compact XML with lexicographically ordered
// attributes, suitable for hashing and comparison.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, -1, 0)
	return b.String()
}

// Indent renders the subtree as indented XML for human consumption.
func (n *Node) Indent() string {
	var b strings.Builder
	n.write(&b, 0, 0)
	return b.String()
}

func (n *Node) write(b *strings.Builder, indent, depth int) {
	pad := func() {
		if indent >= 0 {
			for i := 0; i < depth*2; i++ {
				b.WriteByte(' ')
			}
		}
	}
	nl := func() {
		if indent >= 0 {
			b.WriteByte('\n')
		}
	}
	pad()
	b.WriteByte('<')
	b.WriteString(n.Name)
	for _, k := range n.sortedAttrKeys() {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeAttr(n.Attrs[k]))
		b.WriteByte('"')
	}
	if n.Text == "" && len(n.Children) == 0 {
		b.WriteString("/>")
		nl()
		return
	}
	b.WriteByte('>')
	if n.Text != "" {
		b.WriteString(escapeText(n.Text))
	}
	if len(n.Children) > 0 {
		nl()
		for _, c := range n.Children {
			c.write(b, indent, depth+1)
		}
		pad()
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
	nl()
}

// The replacers are package-level: a strings.Replacer builds its matching
// machinery on first use, so constructing one per escape call rebuilt that
// machinery for every attribute and text node serialized — pure allocation
// churn on the fetch hot path.
//
// CR is escaped because a raw one does not survive any XML parser: line-end
// normalisation turns it into LF, and the tree read back would differ from
// the tree written.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#xD;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#xD;")
)

func escapeText(s string) string { return textEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }

// Size returns the length in bytes of the compact serialization. It is the
// unit used by benchmarks when reporting bytes moved.
func (n *Node) Size() int {
	return len(n.String())
}
