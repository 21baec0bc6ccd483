package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file is the parser xmltree shipped until the hand-written scanner in
// parse.go replaced it: encoding/xml's token stream folded into a Node tree.
// The function bodies are unchanged; only the names carry a "reference"
// prefix. It stays as the oracle FuzzParse holds the scanner to, so it must
// not be "fixed" — a behaviour worth changing is changed in parse.go and
// named in FuzzParse's divergence table.
//
// Node kept its attributes in a map[string]string then. The reference code
// still does, through referenceAttrs and referenceSetAttrs, so the fuzzers
// hold the sorted slice to an independent representation: a map's last
// write wins a repeated name, and its keys are sorted here, not in Node.

// referenceParse reads one XML element tree from r. Namespaces are flattened
// to local names, comments and processing instructions are skipped, and text
// runs are whitespace-trimmed and concatenated.
func referenceParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, ErrEmpty
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			return referenceParseElement(dec, start)
		}
	}
}

// referenceParseString is referenceParse over an in-memory document.
func referenceParseString(s string) (*Node, error) {
	return referenceParse(strings.NewReader(s))
}

func referenceParseElement(dec *xml.Decoder, start xml.StartElement) (*Node, error) {
	n := &Node{Name: start.Name.Local}
	attrs := map[string]string{}
	for _, a := range start.Attr {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		attrs[a.Name.Local] = a.Value
	}
	referenceSetAttrs(n, attrs)
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmltree: unterminated element <%s>: %w", n.Name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := referenceParseElement(dec, t)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		case xml.EndElement:
			n.Text = strings.TrimSpace(text.String())
			return n, nil
		case xml.CharData:
			text.Write(t)
		}
	}
}

// What follows is the merge and the writer xmltree shipped until MergeAll
// unioned into one owned tree and String rendered into a pooled buffer: the
// recursive DeepUnion that cloned both inputs, MergeAll as its left fold,
// and the strings.Builder writer with its two Replacers. The bodies are
// unchanged but for the "reference" prefix on their names. They are the
// oracles FuzzMergeAllMatchesReference and FuzzStringMatchesReference hold
// merge.go and xmltree.go to, byte for byte.

func referenceDeepUnion(a, b *Node, keys KeySpec) *Node {
	if a == nil {
		return b.Clone()
	}
	if b == nil {
		return a.Clone()
	}
	out := &Node{Name: a.Name, Text: a.Text}
	if out.Text == "" {
		out.Text = b.Text
	}
	attrs := referenceAttrs(b)
	for k, v := range referenceAttrs(a) {
		attrs[k] = v // a wins on conflict
	}
	referenceSetAttrs(out, attrs)

	merged := make(map[string]*Node)
	var order []string
	var unkeyedA, unkeyedB []*Node
	for _, c := range a.Children {
		if k, ok := keys.keyOf(c); ok {
			if _, seen := merged[k]; !seen {
				order = append(order, k)
			}
			merged[k] = c.Clone()
		} else {
			unkeyedA = append(unkeyedA, c)
		}
	}
	for _, c := range b.Children {
		if k, ok := keys.keyOf(c); ok {
			if prev, seen := merged[k]; seen {
				merged[k] = referenceDeepUnion(prev, c, keys)
			} else {
				order = append(order, k)
				merged[k] = c.Clone()
			}
		} else {
			unkeyedB = append(unkeyedB, c)
		}
	}

	// Unkeyed children with the same name that appear exactly once on each
	// side are merged structurally (e.g. a singleton <preferences> section);
	// everything else concatenates.
	singlesA := referenceSingletonsByName(unkeyedA)
	singlesB := referenceSingletonsByName(unkeyedB)
	usedB := make(map[*Node]bool)
	for _, c := range unkeyedA {
		if m, ok := singlesA[c.Name]; ok && m == c {
			if bc, ok := singlesB[c.Name]; ok {
				out.Children = append(out.Children, referenceDeepUnion(c, bc, keys))
				usedB[bc] = true
				continue
			}
		}
		out.Children = append(out.Children, c.Clone())
	}
	for _, c := range unkeyedB {
		if !usedB[c] {
			out.Children = append(out.Children, c.Clone())
		}
	}
	for _, k := range order {
		out.Children = append(out.Children, merged[k])
	}
	return out
}

func referenceSingletonsByName(nodes []*Node) map[string]*Node {
	count := make(map[string]int)
	first := make(map[string]*Node)
	for _, n := range nodes {
		count[n.Name]++
		if count[n.Name] == 1 {
			first[n.Name] = n
		}
	}
	for name, c := range count {
		if c != 1 {
			delete(first, name)
		}
	}
	return first
}

func referenceMergeAll(keys KeySpec, components ...*Node) *Node {
	var out *Node
	for _, c := range components {
		if c == nil {
			continue
		}
		if out == nil {
			out = c.Clone()
			continue
		}
		out = referenceDeepUnion(out, c, keys)
	}
	return out
}

// referenceString and referenceIndent are the old String and Indent.
func referenceString(n *Node) string {
	var b strings.Builder
	referenceWrite(n, &b, -1, 0)
	return b.String()
}

func referenceIndent(n *Node) string {
	var b strings.Builder
	referenceWrite(n, &b, 0, 0)
	return b.String()
}

func referenceWrite(n *Node, b *strings.Builder, indent, depth int) {
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
	attrs := referenceAttrs(n)
	for _, k := range referenceSortedAttrKeys(n) {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(referenceEscapeAttr(attrs[k]))
		b.WriteByte('"')
	}
	if n.Text == "" && len(n.Children) == 0 {
		b.WriteString("/>")
		nl()
		return
	}
	b.WriteByte('>')
	if n.Text != "" {
		b.WriteString(referenceEscapeText(n.Text))
	}
	if len(n.Children) > 0 {
		nl()
		for _, c := range n.Children {
			referenceWrite(c, b, indent, depth+1)
		}
		pad()
	}
	b.WriteString("</")
	b.WriteString(n.Name)
	b.WriteByte('>')
	nl()
}

func referenceSortedAttrKeys(n *Node) []string {
	attrs := referenceAttrs(n)
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// referenceAttrs returns n's attributes as the map Node used to hold.
func referenceAttrs(n *Node) map[string]string {
	attrs := map[string]string{}
	for k, v := range n.Attrs {
		attrs[k] = v
	}
	return attrs
}

// referenceSetAttrs gives n the attributes of the map.
func referenceSetAttrs(n *Node, attrs map[string]string) {
	for k, v := range attrs {
		n.SetAttr(k, v)
	}
}

var (
	referenceTextEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#xD;")
	referenceAttrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#xD;")
)

func referenceEscapeText(s string) string { return referenceTextEscaper.Replace(s) }

func referenceEscapeAttr(s string) string { return referenceAttrEscaper.Replace(s) }
