package xmltree_test

import (
	"slices"
	"testing"

	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// Code outside the package walks attributes as `for k, v := range n.Attrs`
// (the benchmark's digest among it). Over any tree
// it yields each attribute once, in byte order of name, and stops when
// told to. A Bare copy shares its source's attribute array, and a parsed
// tree's arrays are carved from one chunk: SetAttr, replacing or
// inserting, must write a new array rather than into one the source still
// reads.
func TestAttrsIterator(t *testing.T) {
	parsed := xmltree.MustParse(`<a zeta="3" b="2" alpha="1" B="0"/>`)
	built := xmltree.New("a").SetAttr("zeta", "3").SetAttr("b", "2").SetAttr("alpha", "1").SetAttr("B", "0")
	want := [][2]string{{"B", "0"}, {"alpha", "1"}, {"b", "2"}, {"zeta", "3"}}
	for name, n := range map[string]*xmltree.Node{"parsed": parsed, "built": built, "cloned": parsed.Clone()} {
		var got [][2]string
		for k, v := range n.Attrs {
			got = append(got, [2]string{k, v})
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: range n.Attrs yields %q, want %q", name, got, want)
		}
	}

	seen := 0
	for range parsed.Attrs {
		seen++
		break
	}
	if seen != 1 {
		t.Errorf("a loop broken after the first attribute ran %d times", seen)
	}

	repeated := xmltree.MustParse(`<a x="1" x="2"/>`)
	if v, _ := repeated.Attr("x"); v != "2" || repeated.String() != `<a x="2"/>` {
		t.Errorf(`<a x="1" x="2"/> reads x=%q and renders %s, want x="2"`, v, repeated)
	}

	src := xmltree.MustParse(`<user id="u" m="2"><book k="1" z="9"><item name="a" type="x"/><item name="b"/></book></user>`)
	before := src.String()
	edit := func(n *xmltree.Node) {
		for k := range n.Attrs {
			n.SetAttr(k, "replaced")
			break
		}
		n.SetAttr("inserted", "1").SetAttr("a", "first")
	}

	edit(src.Bare())
	edit(src.Child("book").Bare())
	xpath.Extract(src, xpath.MustParse("/user/book/item")).Walk(func(n *xmltree.Node) bool {
		edit(n)
		return true
	})
	if got := src.String(); got != before {
		t.Errorf("after editing copies, the source renders\n%s\nwant\n%s", got, before)
	}
}
