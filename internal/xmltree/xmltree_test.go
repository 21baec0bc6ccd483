package xmltree

import (
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	in := `<user id="arnaud"><address-book><item name="rick"><phone>908-582-1234</phone></item></address-book></user>`
	n, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if n.Name != "user" {
		t.Errorf("root name = %q, want user", n.Name)
	}
	if id, _ := n.Attr("id"); id != "arnaud" {
		t.Errorf("id = %q, want arnaud", id)
	}
	out := n.String()
	n2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !n.Equal(n2) {
		t.Errorf("round trip mismatch:\n%s\n%s", n.Indent(), n2.Indent())
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := ParseString("   "); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestParseMalformed(t *testing.T) {
	for _, in := range []string{"<a><b></a>", "<a", "<a></b>"} {
		if _, err := ParseString(in); err == nil {
			t.Errorf("ParseString(%q): want error", in)
		}
	}
}

func TestParseSkipsCommentsAndDecls(t *testing.T) {
	in := `<?xml version="1.0"?><!-- profile --><p><!-- inner --><q>x</q></p>`
	n, err := ParseString(in)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if n.Name != "p" || n.ChildText("q") != "x" {
		t.Errorf("got %s", n)
	}
}

func TestEscaping(t *testing.T) {
	n := New("a").SetAttr("v", `x<y&"z"`)
	n.Add(NewText("t", "1 < 2 & 3 > 2"))
	out := n.String()
	n2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v (doc %q)", err, out)
	}
	if v, _ := n2.Attr("v"); v != `x<y&"z"` {
		t.Errorf("attr = %q", v)
	}
	if n2.ChildText("t") != "1 < 2 & 3 > 2" {
		t.Errorf("text = %q", n2.ChildText("t"))
	}

	// A raw CR does not survive a parser's line-end normalisation, so it is
	// written as a character reference.
	for _, n := range []*Node{NewText("a", "x\ry"), New("a").SetAttr("k", "x\ry\r\nz")} {
		back, err := ParseString(n.String())
		if err != nil || !back.Equal(n) {
			t.Errorf("%q reads back as %q, %v", n.String(), back, err)
		}
	}
}

func TestCanonicalAttrOrder(t *testing.T) {
	a := New("e").SetAttr("b", "2").SetAttr("a", "1")
	b := New("e").SetAttr("a", "1").SetAttr("b", "2")
	if a.String() != b.String() {
		t.Errorf("canonical forms differ: %q vs %q", a, b)
	}
	if !strings.Contains(a.String(), `a="1" b="2"`) {
		t.Errorf("attrs not sorted: %q", a)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := MustParse(`<a x="1"><b>t</b></a>`)
	c := n.Clone()
	c.SetAttr("x", "2")
	c.Children[0].Text = "u"
	if v, _ := n.Attr("x"); v != "1" {
		t.Errorf("clone mutated original attr")
	}
	if n.Children[0].Text != "t" {
		t.Errorf("clone mutated original child")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{`<a/>`, `<a/>`, true},
		{`<a/>`, `<b/>`, false},
		{`<a x="1"/>`, `<a x="1"/>`, true},
		{`<a x="1"/>`, `<a x="2"/>`, false},
		{`<a><b/><c/></a>`, `<a><b/><c/></a>`, true},
		{`<a><b/><c/></a>`, `<a><c/><b/></a>`, false},
		{`<a>t</a>`, `<a>u</a>`, false},
	}
	for _, c := range cases {
		if got := MustParse(c.a).Equal(MustParse(c.b)); got != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestChildHelpers(t *testing.T) {
	n := MustParse(`<a><b>1</b><c/><b>2</b></a>`)
	if n.Child("b").Text != "1" {
		t.Errorf("Child returned wrong node")
	}
	if n.Child("zz") != nil {
		t.Errorf("Child(zz) should be nil")
	}
	if got := len(n.ChildrenNamed("b")); got != 2 {
		t.Errorf("ChildrenNamed(b) = %d, want 2", got)
	}
	if n.ChildText("c") != "" {
		t.Errorf("ChildText(c) = %q", n.ChildText("c"))
	}
	c := n.Child("c")
	if !n.RemoveChild(c) {
		t.Errorf("RemoveChild failed")
	}
	if n.RemoveChild(c) {
		t.Errorf("RemoveChild succeeded twice")
	}
	if len(n.Children) != 2 {
		t.Errorf("children after remove = %d", len(n.Children))
	}
}

func TestWalkAndCount(t *testing.T) {
	n := MustParse(`<a><b><c/></b><d/></a>`)
	if n.Count() != 4 {
		t.Errorf("Count = %d, want 4", n.Count())
	}
	// Skipping b's subtree should visit a, b, d only.
	visited := 0
	n.Walk(func(m *Node) bool {
		visited++
		return m.Name != "b"
	})
	if visited != 3 {
		t.Errorf("visited = %d, want 3", visited)
	}
}

func TestDeepUnionKeyed(t *testing.T) {
	a := MustParse(`<address-book><item name="rick"><phone>111</phone></item><item name="dan"><phone>222</phone></item></address-book>`)
	b := MustParse(`<address-book><item name="rick"><email>r@x</email></item><item name="ming"><phone>333</phone></item></address-book>`)
	u := DeepUnion(a, b, DefaultKeys)
	if got := len(u.ChildrenNamed("item")); got != 3 {
		t.Fatalf("union items = %d, want 3\n%s", got, u.Indent())
	}
	var rick *Node
	for _, it := range u.ChildrenNamed("item") {
		if v, _ := it.Attr("name"); v == "rick" {
			rick = it
		}
	}
	if rick == nil {
		t.Fatal("rick missing from union")
	}
	if rick.ChildText("phone") != "111" || rick.ChildText("email") != "r@x" {
		t.Errorf("rick not merged: %s", rick)
	}
}

func TestDeepUnionConflictFirstWins(t *testing.T) {
	a := MustParse(`<item name="rick"><phone>AAA</phone></item>`)
	b := MustParse(`<item name="rick"><phone>BBB</phone></item>`)
	u := DeepUnion(a, b, DefaultKeys)
	if u.ChildText("phone") != "AAA" {
		t.Errorf("phone = %q, want AAA (first argument priority)", u.ChildText("phone"))
	}
	// Attribute conflicts too.
	x := MustParse(`<pref ring="loud"/>`)
	y := MustParse(`<pref ring="silent" lang="fr"/>`)
	u2 := DeepUnion(x, y, DefaultKeys)
	if v, _ := u2.Attr("ring"); v != "loud" {
		t.Errorf("ring = %q, want loud", v)
	}
	if v, _ := u2.Attr("lang"); v != "fr" {
		t.Errorf("lang = %q, want fr", v)
	}
}

func TestDeepUnionNil(t *testing.T) {
	n := MustParse(`<a/>`)
	if u := DeepUnion(nil, n, nil); !u.Equal(n) {
		t.Errorf("DeepUnion(nil, n) != n")
	}
	if u := DeepUnion(n, nil, nil); !u.Equal(n) {
		t.Errorf("DeepUnion(n, nil) != n")
	}
}

func TestDeepUnionDoesNotMutateInputs(t *testing.T) {
	a := MustParse(`<address-book><item name="r"><phone>1</phone></item></address-book>`)
	b := MustParse(`<address-book><item name="r"><email>e</email></item></address-book>`)
	aCopy, bCopy := a.Clone(), b.Clone()
	DeepUnion(a, b, DefaultKeys)
	if !a.Equal(aCopy) || !b.Equal(bCopy) {
		t.Errorf("DeepUnion mutated an input")
	}
}

func TestDeepUnionSingletonSections(t *testing.T) {
	a := MustParse(`<profile><prefs><ring>loud</ring></prefs></profile>`)
	b := MustParse(`<profile><prefs><lang>fr</lang></prefs></profile>`)
	u := DeepUnion(a, b, DefaultKeys)
	if got := len(u.ChildrenNamed("prefs")); got != 1 {
		t.Fatalf("prefs sections = %d, want 1 (singleton merge)\n%s", got, u.Indent())
	}
	p := u.Child("prefs")
	if p.ChildText("ring") != "loud" || p.ChildText("lang") != "fr" {
		t.Errorf("prefs not merged: %s", p)
	}
}

func TestMergeAllPriority(t *testing.T) {
	hi := MustParse(`<item name="r"><phone>HI</phone></item>`)
	lo := MustParse(`<item name="r"><phone>LO</phone><email>e</email></item>`)
	u := MergeAll(DefaultKeys, hi, nil, lo)
	if u.ChildText("phone") != "HI" {
		t.Errorf("phone = %q, want HI", u.ChildText("phone"))
	}
	if u.ChildText("email") != "e" {
		t.Errorf("email missing")
	}
	if MergeAll(DefaultKeys, nil, nil) != nil {
		t.Errorf("MergeAll(nil,nil) should be nil")
	}
}

func TestDiffAndPatch(t *testing.T) {
	oldT := MustParse(`<address-book><item name="rick"><phone>1</phone></item><item name="dan"><phone>2</phone></item></address-book>`)
	newT := MustParse(`<address-book><item name="rick"><phone>9</phone></item><item name="ming"><phone>3</phone></item></address-book>`)
	ops := Diff(oldT, newT, DefaultKeys)
	kinds := map[OpKind]int{}
	for _, op := range ops {
		kinds[op.Kind]++
	}
	if kinds[OpAdd] != 1 || kinds[OpRemove] != 1 || kinds[OpModify] != 1 {
		t.Fatalf("ops = %+v", ops)
	}
	patched := Patch(oldT, ops, DefaultKeys)
	// Patched must contain exactly new's items (order may differ).
	if !MergeAll(DefaultKeys, patched).Equal(MergeAll(DefaultKeys, patched)) {
		t.Fatal("sanity")
	}
	if got := len(patched.ChildrenNamed("item")); got != 2 {
		t.Fatalf("patched items = %d\n%s", got, patched.Indent())
	}
	byName := map[string]*Node{}
	for _, it := range patched.ChildrenNamed("item") {
		v, _ := it.Attr("name")
		byName[v] = it
	}
	if byName["rick"] == nil || byName["rick"].ChildText("phone") != "9" {
		t.Errorf("rick not modified")
	}
	if byName["ming"] == nil {
		t.Errorf("ming not added")
	}
	if byName["dan"] != nil {
		t.Errorf("dan not removed")
	}
}

func TestDiffIdentical(t *testing.T) {
	n := MustParse(`<address-book><item name="r"><phone>1</phone></item></address-book>`)
	if ops := Diff(n, n.Clone(), DefaultKeys); len(ops) != 0 {
		t.Errorf("Diff(identical) = %+v", ops)
	}
}

func TestDiffShellChangeFallsBackToFull(t *testing.T) {
	oldT := MustParse(`<book owner="a"><item name="r"/></book>`)
	newT := MustParse(`<book owner="b"><item name="r"/></book>`)
	ops := Diff(oldT, newT, DefaultKeys)
	if len(ops) != 1 || ops[0].Key != "" || ops[0].Kind != OpModify {
		t.Fatalf("ops = %+v", ops)
	}
	patched := Patch(oldT, ops, DefaultKeys)
	if !patched.Equal(newT) {
		t.Errorf("full patch mismatch")
	}
}

func TestDiffNilCases(t *testing.T) {
	n := MustParse(`<a/>`)
	if ops := Diff(nil, n, nil); len(ops) != 1 || ops[0].Node == nil {
		t.Errorf("Diff(nil, n) = %+v", ops)
	}
	if ops := Diff(n, nil, nil); len(ops) != 1 || ops[0].Node != nil {
		t.Errorf("Diff(n, nil) = %+v", ops)
	}
	if ops := Diff(nil, nil, nil); ops != nil {
		t.Errorf("Diff(nil, nil) = %+v", ops)
	}
}

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "add" || OpRemove.String() != "remove" || OpModify.String() != "modify" || OpKind(99).String() != "unknown" {
		t.Error("OpKind.String mismatch")
	}
}

func TestSizePositive(t *testing.T) {
	n := MustParse(`<a><b>x</b></a>`)
	if n.Size() != len(n.String()) {
		t.Errorf("Size != len(String)")
	}
}
