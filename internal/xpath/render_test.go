package xpath

import (
	"strings"
	"testing"

	"gupster/internal/racetag"
)

// pathFrom builds paths the parser never produces, so the renderer is
// checked on arbitrary bytes: the steps are expr's "/"-separated pieces as
// they are, and every shape byte hangs one predicate on a step, with an
// attribute and (for odd bytes) a value drawn from the same pieces. Long
// shapes give steps more predicates than the renderer sorts on its stack.
func pathFrom(expr string, shape []byte) Path {
	pieces := strings.Split(expr, "/")
	p := Path{Steps: make([]Step, len(pieces))}
	for i, s := range pieces {
		p.Steps[i].Name = s
	}
	for i, c := range shape {
		st := &p.Steps[int(c)%len(pieces)]
		pr := Pred{Attr: pieces[(int(c)/4+i)%len(pieces)]}
		if c&1 == 1 {
			pr.HasValue = true
			pr.Value = pieces[(int(c)/2+2*i)%len(pieces)]
		}
		st.Preds = append(st.Preds, pr)
	}
	if len(shape) > 0 && shape[0]&2 != 0 {
		p.Attr = pieces[len(pieces)-1]
	}
	return p
}

// FuzzPathStringMatchesReference: Path.String, Step.String and Pred.String
// render exactly what the fmt-based renderer they replaced did, for parsed
// paths and for arbitrary ones.
func FuzzPathStringMatchesReference(f *testing.F) {
	f.Add("/user[@id='a']/address-book/item[@type='personal']", []byte{})
	f.Add("/user[@id='x']/devices/device[@network='pstn'][@id][@network]/@id", []byte{})
	f.Add("a/b/c", []byte{0, 5, 9, 13, 2, 2, 1})
	f.Add("x/x/'/]/\xff", []byte("many predicates on few steps, duplicates included"))
	f.Fuzz(func(t *testing.T, expr string, shape []byte) {
		check := func(p Path) {
			if got, want := p.String(), referenceString(p); got != want {
				t.Fatalf("String() = %q, reference %q", got, want)
			}
			for _, s := range p.Steps {
				if got, want := s.String(), referenceStep(s); got != want {
					t.Fatalf("Step.String() = %q, reference %q", got, want)
				}
				for _, pr := range s.Preds {
					if got, want := pr.String(), referenceStep(Step{Preds: []Pred{pr}}); got != want {
						t.Fatalf("Pred.String() = %q, reference %q", got, want)
					}
				}
			}
		}
		if p, err := Parse(expr); err == nil {
			check(p)
		}
		check(pathFrom(expr, shape))
	})
}

// TestPathStringAllocs: rendering a path is one allocation, the string
// itself — also for a step whose predicates must be sorted.
func TestPathStringAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, expr := range []string{
		"/user[@id='u00000']/address-book/item[@type='personal']",
		"/user[@id='x']/devices/device[@network='pstn'][@id]/@id",
		"/user",
	} {
		p := MustParse(expr)
		var s string
		if got := testing.AllocsPerRun(200, func() { s = p.String() }); got != 1 {
			t.Errorf("%s: %.1f allocs/op, want 1", expr, got)
		}
		if s != referenceString(p) {
			t.Errorf("%s: rendered %q", expr, s)
		}
	}
}
