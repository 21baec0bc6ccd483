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
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Node is one element in a profile component tree. The zero value is an
// unnamed empty element, which is rarely useful; build trees with New or
// ParseString.
type Node struct {
	// Name is the element name, e.g. "address-book".
	Name string
	// attrs are the element's attributes, sorted by name in byte order,
	// one per name: the order String writes them in. The array may be
	// shared with other trees, so nothing writes into it; SetAttr copies.
	attrs []Attr
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

// NewText returns a named element holding only text content, trimmed of
// white space at its ends as ParseString trims it, so that a tree built
// from outside text reads back from its String as it was built.
func NewText(name, text string) *Node {
	return &Node{Name: name, Text: strings.TrimSpace(text)}
}

// Attr is one attribute of an element.
type Attr struct {
	Name, Value string
}

// Attrs yields the element's attributes in byte order of name, so that
// `for name, value := range n.Attrs` walks them.
func (n *Node) Attrs(yield func(name, value string) bool) {
	for _, a := range n.attrs {
		if !yield(a.Name, a.Value) {
			return
		}
	}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	if i, ok := n.attrAt(name); ok {
		return n.attrs[i].Value, true
	}
	return "", false
}

// attrAt returns where the named attribute is in n.attrs, or where it would
// go, and whether it is there.
func (n *Node) attrAt(name string) (int, bool) {
	return slices.BinarySearchFunc(n.attrs, name, byName)
}

func byName(a Attr, name string) int { return strings.Compare(a.Name, name) }

func attrName(a Attr) string { return a.Name }

// SetAttr sets an attribute and returns n for chaining. It writes a new
// array, never into the one n has: that one may be shared (see Bare).
func (n *Node) SetAttr(name, value string) *Node {
	i, found := n.attrAt(name)
	j := i
	if found {
		j++
	}
	n.attrs = slices.Concat(n.attrs[:i], []Attr{{name, value}}, n.attrs[j:])
	return n
}

// Bare returns a new element with n's name, attributes and text but no
// children. It shares n's attribute array, which SetAttr on either never
// writes into.
func (n *Node) Bare() *Node {
	return &Node{Name: n.Name, attrs: n.attrs, Text: n.Text}
}

// sortAttrs puts as in name order, keeping the last of a repeated name, and
// returns what is kept and whether as was in that order already. name reads
// an attribute's name.
func sortAttrs[A any](as []A, name func(A) string) ([]A, bool) {
	sorted := true
	for i := 1; i < len(as) && sorted; i++ {
		sorted = name(as[i-1]) < name(as[i])
	}
	if sorted {
		return as, true
	}
	slices.SortStableFunc(as, func(a, b A) int { return strings.Compare(name(a), name(b)) })
	w := 0
	for i := range as {
		if i+1 < len(as) && name(as[i]) == name(as[i+1]) {
			continue
		}
		as[w] = as[i]
		w++
	}
	return as[:w], false
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
// share a few allocations, so a copied node keeps the whole copy alive.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	return newSlab(n).copy(n)
}

// slab hands out the nodes, child-pointer slots and attributes of copied
// subtrees from three arrays sized up front: a copy costs three allocations
// however many nodes it has.
type slab struct {
	nodes []Node
	kids  []*Node
	attrs []Attr
}

// newSlab sizes a slab for copying every node of the trees once; nil trees
// are skipped.
func newSlab(trees ...*Node) *slab {
	var nodes, kids, attrs int
	for _, t := range trees {
		t.Walk(func(n *Node) bool {
			nodes, kids, attrs = nodes+1, kids+len(n.Children), attrs+len(n.attrs)
			return true
		})
	}
	return &slab{nodes: make([]Node, nodes), kids: make([]*Node, kids), attrs: make([]Attr, attrs)}
}

// take hands out the next k elements of *s as a three-index slice: its
// capacity ends where the next hand-out begins, so an append to one node's
// children reallocates rather than overwriting another's.
func take[T any](s *[]T, k int) []T {
	c := (*s)[:k:k]
	*s = (*s)[k:]
	return c
}

// copy deep-copies n out of the slab.
func (s *slab) copy(n *Node) *Node {
	out := &take(&s.nodes, 1)[0]
	out.Name, out.Text = n.Name, n.Text
	if len(n.attrs) > 0 {
		out.attrs = take(&s.attrs, len(n.attrs))
		copy(out.attrs, n.attrs)
	}
	if k := len(n.Children); k > 0 {
		out.Children = take(&s.kids, k)
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
	if n.Name != m.Name || n.Text != m.Text || len(n.Children) != len(m.Children) || !slices.Equal(n.attrs, m.attrs) {
		return false
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
	return pooled(bp, n.appendXML((*bp)[:0], indent, 0))
}

// pooled returns b, written into *bp, as a string and gives the buffer back.
func pooled(bp *[]byte, b []byte) string {
	s := string(b)
	if cap(b) <= maxPooledWrite {
		*bp = b
		writeBufs.Put(bp)
	}
	return s
}

// Canonical is String for a tree that is to be read back: it fails on the
// first thing in n's subtree ParseString would not read back as it is, so
// that what it returns reads back Equal to n. That is a name that is not an
// XML name or has a prefix, which ParseString drops; an attribute declaring
// a namespace, which it drops; a value or text holding invalid UTF-8 or a
// character outside XML's Char, which it refuses; text with white space at
// an end, which it trims; elements nested deeper than MaxDepth.
func (n *Node) Canonical() (string, error) {
	bp := writeBufs.Get().(*[]byte)
	b, err := n.appendCanonical((*bp)[:0], 1)
	if s := pooled(bp, b); err == nil {
		return s, nil
	}
	return "", err
}

// appendCanonical is appendXML, unindented, with Canonical's checks; n is
// depth elements deep.
func (n *Node) appendCanonical(b []byte, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return b, fmt.Errorf("%w: <%s>", ErrTooDeep, n.Name)
	}
	if !storableName(n.Name) {
		return b, fmt.Errorf("xmltree: element name %q is not read back as written", n.Name)
	}
	b = append(b, '<')
	b = append(b, n.Name...)
	var err error
	for _, a := range n.attrs {
		if !storableName(a.Name) || a.Name == "xmlns" {
			return b, fmt.Errorf("xmltree: attribute name %q in <%s> is not read back as written", a.Name, n.Name)
		}
		b = append(b, ' ')
		b = append(b, a.Name...)
		b = append(b, `="`...)
		if b, err = appendValid(b, a.Value, true); err != nil {
			return b, fmt.Errorf("xmltree: %w in attribute %s of <%s>", err, a.Name, n.Name)
		}
		b = append(b, '"')
	}
	if n.Text == "" && len(n.Children) == 0 {
		return append(b, "/>"...), nil
	}
	if t := n.Text; t != "" {
		first, _ := utf8.DecodeRuneInString(t)
		last, _ := utf8.DecodeLastRuneInString(t)
		if unicode.IsSpace(first) || unicode.IsSpace(last) {
			return b, fmt.Errorf("xmltree: the text of <%s> has white space at an end", n.Name)
		}
	}
	b = append(b, '>')
	if b, err = appendValid(b, n.Text, false); err != nil {
		return b, fmt.Errorf("xmltree: %w in the text of <%s>", err, n.Name)
	}
	for _, c := range n.Children {
		if b, err = c.appendCanonical(b, depth+1); err != nil {
			return b, err
		}
	}
	b = append(b, "</"...)
	b = append(b, n.Name...)
	return append(b, '>'), nil
}

func (n *Node) appendXML(b []byte, indent bool, depth int) []byte {
	if indent {
		b = appendPad(b, depth)
	}
	b = append(b, '<')
	b = append(b, n.Name...)
	for _, a := range n.attrs {
		b = append(b, ' ')
		b = append(b, a.Name...)
		b = append(b, `="`...)
		b = appendEscaped(b, a.Value, true)
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

// appendValid is appendEscaped for Canonical: it fails on invalid UTF-8 and
// on a character outside XML's Char. Most bytes are plain, one lookup each.
func appendValid(b []byte, s string, attr bool) ([]byte, error) {
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if class[c]&plain != 0 {
			continue
		}
		var ref string
		switch {
		case c == '&':
			ref = "&amp;"
		case c == '<':
			ref = "&lt;"
		case c == '>':
			ref = "&gt;"
		case c == '\r':
			ref = "&#xD;"
		case c == '"' && attr:
			ref = "&quot;"
		case c == '"' || c == '\'':
			continue
		case c < utf8.RuneSelf:
			return b, fmt.Errorf("illegal character %U", rune(c))
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return b, errors.New("invalid UTF-8")
			}
			if !isChar(r) {
				return b, fmt.Errorf("illegal character %U", r)
			}
			i += size - 1
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, ref...)
		last = i + 1
	}
	return append(b, s[last:]...), nil
}

// Size returns the length in bytes of the compact serialization. It is the
// unit used by benchmarks when reporting bytes moved.
func (n *Node) Size() int {
	return len(n.String())
}
