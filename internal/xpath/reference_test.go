package xpath

import (
	"fmt"
	"sort"
	"strings"
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
