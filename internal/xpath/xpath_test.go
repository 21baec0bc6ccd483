package xpath

import (
	"strings"
	"testing"
	"testing/quick"

	"gupster/internal/xmltree"
)

func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/user", "/user"},
		{"/user[@id='arnaud']/address-book", "/user[@id='arnaud']/address-book"},
		{"/user[@id='a']/address-book/item[@type='personal']", "/user[@id='a']/address-book/item[@type='personal']"},
		{"/a/*/c", "/a/*/c"},
		{"/a[@y='2'][@x='1']", "/a[@x='1'][@y='2']"}, // predicates canonicalized
		{"/a[@x]", "/a[@x]"},
		{"/user[@id='a']/@id", "/user[@id='a']/@id"},
		{"/MyProfile/MySelf", "/MyProfile/MySelf"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form must re-parse to an equivalent path.
		p2, err := Parse(p.String())
		if err != nil {
			t.Errorf("reparse %q: %v", p.String(), err)
		} else if !Equivalent(p, p2) {
			t.Errorf("reparse of %q not equivalent", c.in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "user", "/", "//a", "/a[", "/a[@]", "/a[@x='v]", "/a[x='v']",
		"/a]", "/a[@x=v]", "/a/@x/b", "/a b", "/@id",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error", in)
		}
	}
}

var doc = xmltree.MustParse(`
<user id="arnaud">
  <address-book>
    <item name="rick" type="corporate"><phone>111</phone></item>
    <item name="dan" type="personal"><phone>222</phone></item>
    <item name="ming" type="corporate"><phone>333</phone></item>
  </address-book>
  <presence status="available"/>
  <devices>
    <device id="cell" network="wireless"/>
    <device id="office" network="pstn"/>
  </devices>
</user>`)

func TestSelect(t *testing.T) {
	cases := []struct {
		path string
		want int
	}{
		{"/user", 1},
		{"/user[@id='arnaud']", 1},
		{"/user[@id='bob']", 0},
		{"/user/address-book", 1},
		{"/user/address-book/item", 3},
		{"/user/address-book/item[@type='corporate']", 2},
		{"/user/address-book/item[@type='personal']", 1},
		{"/user/address-book/item[@name='rick'][@type='corporate']", 1},
		{"/user/address-book/item[@name='rick'][@type='personal']", 0},
		{"/user/*", 3},
		{"/user/*/item", 3},
		{"/user/devices/device[@network='pstn']", 1},
		{"/nope", 0},
		{"/user/address-book/item[@missing]", 0},
		{"/user/presence[@status]", 1},
	}
	for _, c := range cases {
		got := Select(doc, MustParse(c.path))
		if len(got) != c.want {
			t.Errorf("Select(%s) = %d nodes, want %d", c.path, len(got), c.want)
		}
	}
}

func TestSelectAttr(t *testing.T) {
	vals := SelectAttr(doc, MustParse("/user/devices/device/@id"))
	if len(vals) != 2 || vals[0] != "cell" || vals[1] != "office" {
		t.Errorf("SelectAttr = %v", vals)
	}
	if SelectAttr(doc, MustParse("/user/devices/device")) != nil {
		t.Errorf("SelectAttr without attr axis should be nil")
	}
}

func TestSelectNilRoot(t *testing.T) {
	if Select(nil, MustParse("/a")) != nil {
		t.Error("Select(nil) should be nil")
	}
}

func TestExtract(t *testing.T) {
	got := Extract(doc, MustParse("/user/address-book/item[@type='personal']"))
	if got == nil {
		t.Fatal("Extract returned nil")
	}
	if got.Name != "user" {
		t.Errorf("extract root = %q", got.Name)
	}
	items := got.Child("address-book").ChildrenNamed("item")
	if len(items) != 1 {
		t.Fatalf("extracted items = %d, want 1\n%s", len(items), got.Indent())
	}
	if v, _ := items[0].Attr("name"); v != "dan" {
		t.Errorf("extracted wrong item: %s", items[0])
	}
	// Spine keeps attributes.
	if v, _ := got.Attr("id"); v != "arnaud" {
		t.Errorf("spine lost attributes")
	}
	// Sibling subtrees are pruned.
	if got.Child("presence") != nil || got.Child("devices") != nil {
		t.Errorf("extract kept sibling subtrees")
	}
	// No match → nil.
	if Extract(doc, MustParse("/user/zzz")) != nil {
		t.Errorf("Extract(no match) should be nil")
	}
	// Whole document.
	whole := Extract(doc, MustParse("/user"))
	if !whole.Equal(doc) {
		t.Errorf("Extract(/user) != doc")
	}
}

func TestContains(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"/user", "/user", true},
		{"/user", "/user[@id='a']", true},
		{"/user[@id='a']", "/user", false},
		{"/user[@id='a']", "/user[@id='a']", true},
		{"/user[@id='a']", "/user[@id='b']", false},
		{"/*", "/user", true},
		{"/user", "/*", false},
		{"/user/address-book", "/user[@id='a']/address-book", true},
		{"/user/address-book", "/user/address-book/item", false}, // different depth
		{"/user[@id]", "/user[@id='a']", true},
		{"/user[@id='a']", "/user[@id]", false},
		{"/a/@x", "/a/@x", true},
		{"/a/@x", "/a/@y", false},
		{"/a/@x", "/a", false},
		{"/a/b[@x='1'][@y='2']", "/a/b[@x='1']", false},
		{"/a/b[@x='1']", "/a/b[@x='1'][@y='2']", true},
		// q unsatisfiable → contained in anything.
		{"/zz", "/a[@x='1'][@x='2']", true},
	}
	for _, c := range cases {
		if got := Contains(MustParse(c.p), MustParse(c.q)); got != c.want {
			t.Errorf("Contains(%s, %s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		reg, req string
		want     CoverRelation
	}{
		// Exact registration.
		{"/user[@id='a']/address-book", "/user[@id='a']/address-book", CoverFull},
		// Registration above the request.
		{"/user[@id='a']", "/user[@id='a']/address-book", CoverFull},
		{"/user[@id='a']/address-book", "/user[@id='a']/address-book/item[@type='personal']", CoverFull},
		// Figure 9: registration below the request → partial.
		{"/user[@id='a']/address-book/item[@type='personal']", "/user[@id='a']/address-book", CoverPartial},
		{"/user[@id='a']/address-book/item[@type='corporate']", "/user[@id='a']/address-book", CoverPartial},
		// Wrong user.
		{"/user[@id='b']/address-book", "/user[@id='a']/address-book", CoverNone},
		// Sibling component.
		{"/user[@id='a']/presence", "/user[@id='a']/address-book", CoverNone},
		// More general request user (no id) is not covered by specific reg…
		{"/user[@id='a']/address-book", "/user/address-book", CoverPartial},
		// …but general registration covers specific request.
		{"/user/address-book", "/user[@id='a']/address-book", CoverFull},
		// Attribute-axis request covered by element registration.
		{"/user[@id='a']", "/user[@id='a']/devices/device/@id", CoverFull},
		// Attribute-axis registration fully covers only the identical
		// request; against the enclosing element request it holds a piece.
		{"/user[@id='a']/@id", "/user[@id='a']/@id", CoverFull},
		{"/user[@id='a']/@id", "/user[@id='a']", CoverPartial},
	}
	for _, c := range cases {
		if got := Covers(MustParse(c.reg), MustParse(c.req)); got != c.want {
			t.Errorf("Covers(reg=%s, req=%s) = %v, want %v", c.reg, c.req, got, c.want)
		}
	}
}

func TestRemainder(t *testing.T) {
	r := MustParse("/user[@id='a']/address-book")
	q := MustParse("/user[@id='a']/address-book/item[@type='personal']")
	rem := Remainder(r, q)
	if rem.String() != "/address-book/item[@type='personal']" {
		t.Errorf("Remainder = %s", rem)
	}
	// Remainder applied to the extracted component selects the same content.
	comp := Extract(doc, MustParse("/user/address-book")).Child("address-book")
	sel := Select(comp, rem)
	if len(sel) != 1 {
		t.Errorf("remainder select = %d nodes", len(sel))
	}
	// Equal depth → remainder is the last step.
	rem2 := Remainder(q, q)
	if rem2.String() != "/item[@type='personal']" {
		t.Errorf("Remainder(q,q) = %s", rem2)
	}
}

func TestCoverRelationString(t *testing.T) {
	if CoverFull.String() != "full" || CoverPartial.String() != "partial" || CoverNone.String() != "none" {
		t.Error("CoverRelation strings")
	}
}

func TestEmptyPath(t *testing.T) {
	if !MustParse("/a[@x='1'][@x='2']").Empty() {
		t.Error("contradictory predicates should be Empty")
	}
	if MustParse("/a[@x='1'][@y='2']").Empty() {
		t.Error("consistent predicates should not be Empty")
	}
	if MustParse("/a[@x='1'][@x]").Empty() {
		t.Error("existence + equality is satisfiable")
	}
}

func TestChildAndPrefix(t *testing.T) {
	p := MustParse("/user[@id='a']/address-book")
	c := p.Child(Step{Name: "item"})
	if c.String() != "/user[@id='a']/address-book/item" {
		t.Errorf("Child = %s", c)
	}
	if p.String() != "/user[@id='a']/address-book" {
		t.Errorf("Child mutated receiver: %s", p)
	}
	pre := c.Prefix(1)
	if pre.String() != "/user[@id='a']" {
		t.Errorf("Prefix = %s", pre)
	}
	if got := c.Prefix(99); got.Depth() != 3 {
		t.Errorf("Prefix(99) depth = %d", got.Depth())
	}
}

// Property: containment is consistent with evaluation — if Contains(p, q)
// then every node selected by q is also selected by p, on randomized
// documents and paths drawn from a small alphabet.
func TestContainmentSoundness(t *testing.T) {
	names := []string{"a", "b", "c"}
	attrs := []string{"x", "y"}
	vals := []string{"1", "2"}

	buildDoc := func(seed int64) *xmltree.Node {
		rng := newRand(seed)
		var build func(depth int) *xmltree.Node
		build = func(depth int) *xmltree.Node {
			n := xmltree.New(names[rng.next()%len(names)])
			if rng.next()%2 == 0 {
				n.SetAttr(attrs[rng.next()%len(attrs)], vals[rng.next()%len(vals)])
			}
			if depth < 3 {
				kids := rng.next() % 3
				for i := 0; i < kids; i++ {
					n.Add(build(depth + 1))
				}
			}
			return n
		}
		return build(0)
	}
	buildPath := func(seed int64) Path {
		rng := newRand(seed)
		depth := 1 + rng.next()%3
		var p Path
		for i := 0; i < depth; i++ {
			s := Step{Name: names[rng.next()%len(names)]}
			if rng.next()%4 == 0 {
				s.Name = "*"
			}
			if rng.next()%3 == 0 {
				pr := Pred{Attr: attrs[rng.next()%len(attrs)]}
				if rng.next()%2 == 0 {
					pr.HasValue = true
					pr.Value = vals[rng.next()%len(vals)]
				}
				s.Preds = append(s.Preds, pr)
			}
			p.Steps = append(p.Steps, s)
		}
		return p
	}

	prop := func(docSeed, pSeed, qSeed int64) bool {
		d := buildDoc(docSeed)
		p, q := buildPath(pSeed), buildPath(qSeed)
		if !Contains(p, q) {
			return true
		}
		selP := map[*xmltree.Node]bool{}
		for _, n := range Select(d, p) {
			selP[n] = true
		}
		for _, n := range Select(d, q) {
			if !selP[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Covers(reg, req) == CoverFull implies every node selected by req
// lies inside a subtree selected by reg.
func TestCoversSoundness(t *testing.T) {
	reg := MustParse("/user/address-book")
	reqs := []string{
		"/user[@id='arnaud']/address-book",
		"/user/address-book/item[@type='corporate']",
		"/user/address-book/item/phone",
	}
	regSel := Select(doc, reg)
	inside := map[*xmltree.Node]bool{}
	for _, r := range regSel {
		r.Walk(func(n *xmltree.Node) bool { inside[n] = true; return true })
	}
	for _, rq := range reqs {
		q := MustParse(rq)
		if Covers(reg, q) != CoverFull {
			t.Errorf("Covers(%s, %s) != full", reg, q)
			continue
		}
		for _, n := range Select(doc, q) {
			if !inside[n] {
				t.Errorf("node selected by %s outside registered subtree", rq)
			}
		}
	}
}

// tiny deterministic PRNG so property tests don't depend on math/rand API.
type miniRand struct{ state uint64 }

func newRand(seed int64) *miniRand {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &miniRand{state: s}
}

func (r *miniRand) next() int {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return int(r.state>>1) & 0x7fffffff
}

func TestParseWhitespaceRejected(t *testing.T) {
	if _, err := Parse("/a /b"); err == nil {
		t.Error("embedded space should fail")
	}
	if !strings.Contains(MustParse("/a").String(), "/a") {
		t.Error("sanity")
	}
}

// A parsed path's steps and predicates are sized by its structure: slashes
// and brackets inside a quoted value size nothing, and each step's
// predicates are a run capped at its own length.
func TestParseSizesByStructure(t *testing.T) {
	p := MustParse("/user[@id='" + strings.Repeat("/[", 4096) + "'][@v]/address-book[@type='x']")
	if len(p.Steps) != 2 || cap(p.Steps) != 2 {
		t.Errorf("steps: len %d cap %d, want 2 and 2", len(p.Steps), cap(p.Steps))
	}
	for i, want := range []int{2, 1} {
		if got := p.Steps[i].Preds; len(got) != want || cap(got) != want {
			t.Errorf("step %d predicates: len %d cap %d, want %d", i, len(got), cap(got), want)
		}
	}
}
