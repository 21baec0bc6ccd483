package xpath

import (
	"fmt"
	"math/rand"
	"testing"

	"gupster/internal/racetag"
	"gupster/internal/xmltree"
)

// picker turns fuzz input into generator decisions, zero once it runs out.
type picker []byte

func (c *picker) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

func (c *picker) of(xs ...string) string { return xs[c.pick(len(xs))] }

// genDoc builds a document from few names and attribute values, so that
// siblings repeat and a predicate picks some of them and misses others.
func genDoc(c *picker, depth int) *xmltree.Node {
	n := xmltree.New(c.of("a", "b", "item"))
	for i := c.pick(3); i > 0; i-- {
		n.SetAttr(c.of("id", "type"), c.of("x", "y", ""))
	}
	if c.pick(2) == 0 {
		n.Text = c.of("t", `&<"`)
	}
	if depth > 0 {
		for i := c.pick(6); i > 0; i-- {
			n.Add(genDoc(c, depth-1))
		}
	}
	return n
}

// genPath builds a path of 1–4 steps over genDoc's names, "*" and a name no
// element has, each step carrying up to two predicates, bare or with a value.
// A one-step path selects the root alone.
func genPath(c *picker) Path {
	p := Path{Steps: make([]Step, 1+c.pick(4))}
	for i := range p.Steps {
		st := &p.Steps[i]
		st.Name = c.of("*", "*", "a", "b", "item", "zzz")
		for j := c.pick(4) - 1; j > 0; j-- {
			pr := Pred{Attr: c.of("id", "type")}
			if c.pick(2) == 0 {
				pr.HasValue, pr.Value = true, c.of("x", "y", "")
			}
			st.Preds = append(st.Preds, pr)
		}
	}
	return p
}

// scramble overwrites every node, attribute map and children slice under n.
func scramble(n *xmltree.Node) {
	n.Name, n.Text = "scrambled", "scrambled"
	for k := range n.Attrs {
		n.Attrs[k] = "scrambled"
	}
	n.SetAttr("scrambled", "yes")
	for i, c := range n.Children {
		scramble(c)
		n.Children[i] = xmltree.New("replaced")
	}
	n.Add(xmltree.New("appended"))
}

// checkExtractAgainstReference holds View and Extract to the reference
// byte for byte, and shows that overwriting Extract's result leaves root as
// it was.
func checkExtractAgainstReference(t *testing.T, root *xmltree.Node, p Path) {
	t.Helper()
	before := root.String()
	want := referenceExtract(root, p)
	for name, got := range map[string]*xmltree.Node{"View": View(root, p), "Extract": Extract(root, p)} {
		if (got == nil) != (want == nil) || got != nil && got.String() != want.String() {
			t.Fatalf("%s(%s, %s)\n got %v\nwant %v", name, before, p, got, want)
		}
	}
	if got := Extract(root, p); got != nil {
		scramble(got)
	}
	if after := root.String(); after != before {
		t.Fatalf("Extract(%s) result shares with root:\nbefore %s\n after %s", p, before, after)
	}
}

func FuzzExtractMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 32+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := picker(data)
		p := genPath(&c)
		checkExtractAgainstReference(t, genDoc(&c, 3), p)
	})
}

// The fuzz target's generator over random inputs, then the fixture document
// under paths that pick one item, several siblings, the root, and nothing.
func TestExtractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		data := make([]byte, 32+rng.Intn(512))
		rng.Read(data)
		c := picker(data)
		p := genPath(&c)
		checkExtractAgainstReference(t, genDoc(&c, 3), p)
	}
	for _, expr := range []string{
		"/user/address-book/item[@type='personal']",
		"/user/address-book/item",
		"/user/*/*",
		"/user[@id='arnaud']",
		"/user/zzz",
		"/user[@id='other']/address-book",
	} {
		checkExtractAgainstReference(t, doc, MustParse(expr))
	}
}

// TestViewSharesRoot: a view's selected subtrees are root's own nodes, and
// a path selecting the root is root itself.
func TestViewSharesRoot(t *testing.T) {
	v := View(doc, MustParse("/user/address-book"))
	if v == doc || v.Children[0] != doc.Child("address-book") {
		t.Errorf("view copied: root %p, view %p; child %p, selected %p", doc, v, v.Children[0], doc.Child("address-book"))
	}
	if View(doc, MustParse("/user")) != doc {
		t.Error("View(/user) is not the root")
	}
}

// storePiece is one store's share of the benchmark's chaining book: a user
// spine over 16 personal items of about 110 bytes each.
func storePiece() *xmltree.Node {
	book := xmltree.New("address-book")
	for i := 0; i < 16; i++ {
		book.Add(xmltree.New("item").
			SetAttr("name", fmt.Sprintf("contact-%06d", 4*i)).
			SetAttr("type", "personal").
			Add(xmltree.NewText("phone", fmt.Sprintf("908-%03d-%04d", i, 7*i))).
			Add(xmltree.NewText("note", fmt.Sprintf("synthetic entry %d for size sweeps", 4*i))))
	}
	return xmltree.New("user").SetAttr("id", "u00000").Add(book)
}

// The allocs/op gate, continued: extracting a store's 16-item piece is one
// walk and one slab: 40 allocs measured against the ceiling of 45, where the
// reference (a Clone per item) takes 74.
func TestExtractAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	root, p := storePiece(), MustParse("/user[@id='u00000']/address-book/item[@type='personal']")
	ref := testing.AllocsPerRun(50, func() { referenceExtract(root, p) })
	got := testing.AllocsPerRun(50, func() { Extract(root, p) })
	t.Logf("16-item piece: Extract %.0f allocs, reference %.0f", got, ref)
	if got > 45 {
		t.Errorf("Extract of a 16-item piece: %.0f allocs, ceiling 45", got)
	}
}
