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

// referenceCovers, referenceIntersect and referenceEmpty are Covers,
// Intersect and Path.Empty as first written: Covers decided a partial
// overlap by building the intersection, and a step's satisfiability was
// checked through a map of the values it requires. They are kept only as
// the oracle the walk that builds nothing must agree with. Full covers are
// decided by prefixContains, which did not change.
func referenceCovers(r, q Path) CoverRelation {
	if prefixContains(r, q) {
		return CoverFull
	}
	if q.Attr == "" {
		if _, ok := referenceIntersect(r, q); ok {
			return CoverPartial
		}
	}
	return CoverNone
}

func referenceIntersect(p, q Path) (Path, bool) {
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
			merged, ok := referenceMergeSteps(long.Steps[i], short.Steps[i])
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
	if len(p.Steps) != len(q.Steps) {
		if short.Attr != "" {
			return Path{}, false
		}
		attr = long.Attr
	}
	out := Path{Steps: steps, Attr: attr}
	if referenceEmpty(out) {
		return Path{}, false
	}
	return out, true
}

func referenceMergeSteps(a, b Step) (Step, bool) {
	name := a.Name
	switch {
	case a.Name == "*":
		name = b.Name
	case b.Name == "*" || a.Name == b.Name:
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
	if referenceUnsatisfiable(out) {
		return Step{}, false
	}
	return out, true
}

func referenceEmpty(p Path) bool {
	for _, s := range p.Steps {
		if referenceUnsatisfiable(s) {
			return true
		}
	}
	return false
}

func referenceUnsatisfiable(s Step) bool {
	vals := make(map[string]string)
	for _, p := range s.Preds {
		if !p.HasValue {
			continue
		}
		if v, ok := vals[p.Attr]; ok && v != p.Value {
			return true
		}
		vals[p.Attr] = p.Value
	}
	return false
}
