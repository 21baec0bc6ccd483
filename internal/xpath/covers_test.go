package xpath

import (
	"math/rand"
	"reflect"
	"testing"
)

// genOverlapPath builds a path from fuzz input over a small alphabet, so two
// generated paths often meet and often just miss: names from "a", "b" and
// "*", predicates on a few attributes (one of them repeated on a step),
// existence tests beside equality tests, up to 20 predicates on a step, 1–5
// steps and sometimes a final attribute axis.
func genOverlapPath(c *picker) Path {
	p := Path{Steps: make([]Step, 1+c.pick(5))}
	for i := range p.Steps {
		st := &p.Steps[i]
		st.Name = c.of("a", "b", "*", "a")
		n := c.pick(4)
		if n == 3 {
			n = 3 + c.pick(18)
		}
		for ; n > 0; n-- {
			pr := Pred{Attr: c.of("id", "type", "id", "x")}
			if c.pick(3) != 0 {
				pr.HasValue, pr.Value = true, c.of("1", "2", "")
			}
			st.Preds = append(st.Preds, pr)
		}
	}
	p.Attr = c.of("", "", "", "id", "x")
	return p
}

// checkCoversAgainstReference: Covers (both ways round), Intersect and Empty
// give what the building implementations they replaced gave; an
// intersection is equal to the reference one field for field.
func checkCoversAgainstReference(t *testing.T, p, q Path) {
	t.Helper()
	for _, pq := range [][2]Path{{p, q}, {q, p}} {
		r, s := pq[0], pq[1]
		if got, want := Covers(r, s), referenceCovers(r, s); got != want {
			t.Fatalf("Covers(%s, %s) = %s, reference %s", r, s, got, want)
		}
		got, ok := Intersect(r, s)
		want, wantOK := referenceIntersect(r, s)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Intersect(%s, %s) = %#v, %v; reference %#v, %v", r, s, got, ok, want, wantOK)
		}
		if got, want := r.Empty(), referenceEmpty(r); got != want {
			t.Fatalf("Empty(%s) = %v, reference %v", r, got, want)
		}
	}
}

// FuzzCoversMatchesReference runs the check on two parsed paths, and on two
// paths generated from the fuzz input by genOverlapPath.
func FuzzCoversMatchesReference(f *testing.F) {
	f.Add("/user[@id='a']/address-book", "/user/address-book/item[@type='personal']", []byte{})
	f.Add("/user/devices/device[@network='pstn']/@id", "/user[@id='a']", []byte{3, 0, 7, 7, 7, 1, 2})
	f.Add("/*[@id='1'][@id]", "/a[@id='2']/b", []byte("predicates on predicates on predicates"))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 16+rng.Intn(128))
		rng.Read(seed)
		f.Add("/a", "/b", seed)
	}
	f.Fuzz(func(t *testing.T, a, b string, data []byte) {
		if p, err := Parse(a); err == nil {
			if q, err := Parse(b); err == nil {
				checkCoversAgainstReference(t, p, q)
			}
		}
		c := picker(data)
		checkCoversAgainstReference(t, genOverlapPath(&c), genOverlapPath(&c))
	})
}

// The fuzz target's generator over random inputs, then the pairs the
// resolve path sees: a request against registrations that cover it, split
// it, or miss it.
func TestCoversMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var seen [3]int
	for i := 0; i < 20000; i++ {
		data := make([]byte, 8+rng.Intn(96))
		rng.Read(data)
		c := picker(data)
		p, q := genOverlapPath(&c), genOverlapPath(&c)
		checkCoversAgainstReference(t, p, q)
		seen[Covers(p, q)]++
	}
	// The generator is only a check if it reaches every verdict.
	for rel, n := range seen {
		if n < 200 {
			t.Errorf("%s: %d of 20000 generated pairs, want ≥ 200", CoverRelation(rel), n)
		}
	}
	q := MustParse("/user[@id='u00000']/address-book")
	for _, r := range []string{
		"/user[@id='u00000']/address-book/item[@type='personal']",
		"/user[@id='u00000']",
		"/user[@id='u00001']/address-book",
		"/user/address-book/item[@type='corporate']",
		"/user[@id='u00000']/presence",
		"/user[@id='u00000']/address-book/@id",
	} {
		checkCoversAgainstReference(t, MustParse(r), q)
	}
}
