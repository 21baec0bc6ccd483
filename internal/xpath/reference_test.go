package xpath

import (
	"fmt"
	"sort"
	"strings"

	"gupster/internal/xmltree"
)

// referenceString is Path.String as first written: a builder per step, a
// sorted copy of every step's predicates and one fmt.Sprintf per predicate.
// It is kept only as the oracle the one-buffer renderer must match byte for
// byte.
func referenceString(p Path) string {
	var b strings.Builder
	for _, s := range p.Steps {
		b.WriteByte('/')
		b.WriteString(referenceStep(s))
	}
	if p.Attr != "" {
		b.WriteString("/@")
		b.WriteString(p.Attr)
	}
	return b.String()
}

func referenceStep(s Step) string {
	var b strings.Builder
	b.WriteString(s.Name)
	out := make([]Pred, len(s.Preds))
	copy(out, s.Preds)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		if out[i].HasValue != out[j].HasValue {
			return !out[i].HasValue
		}
		return out[i].Value < out[j].Value
	})
	for _, p := range out {
		if p.HasValue {
			b.WriteString(fmt.Sprintf("[@%s='%s']", p.Attr, p.Value))
		} else {
			b.WriteString(fmt.Sprintf("[@%s]", p.Attr))
		}
	}
	return b.String()
}

// referenceExtract is Extract as first written: a fresh shell per spine
// element with its attributes set one by one, and a Clone per selected
// subtree. It is kept only as the oracle Extract and View must match byte
// for byte.
func referenceExtract(root *xmltree.Node, p Path) *xmltree.Node {
	if root == nil || len(p.Steps) == 0 || !p.Steps[0].Matches(root) {
		return nil
	}
	return extract(root, p.Steps[1:])
}

func extract(n *xmltree.Node, rest []Step) *xmltree.Node {
	if len(rest) == 0 {
		return n.Clone()
	}
	shell := &xmltree.Node{Name: n.Name, Text: n.Text}
	for k, v := range n.Attrs {
		shell.SetAttr(k, v)
	}
	matched := false
	for _, c := range n.Children {
		if rest[0].Matches(c) {
			if sub := extract(c, rest[1:]); sub != nil {
				shell.Children = append(shell.Children, sub)
				matched = true
			}
		}
	}
	if !matched {
		return nil
	}
	return shell
}
