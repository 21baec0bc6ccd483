package xmltree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// genBook builds a random keyed address book: item names drawn from a
// small space (forcing key collisions across books), each with random
// phone/email children.
func genBook(rng *rand.Rand, maxItems int) *Node {
	book := New("address-book")
	n := rng.Intn(maxItems + 1)
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", rng.Intn(2*maxItems))
		if used[name] {
			continue
		}
		used[name] = true
		item := New("item").SetAttr("name", name)
		if rng.Intn(2) == 0 {
			item.SetAttr("type", []string{"personal", "corporate"}[rng.Intn(2)])
		}
		item.Add(NewText("phone", fmt.Sprintf("%06d", rng.Intn(1000000))))
		if rng.Intn(3) == 0 {
			item.Add(NewText("email", fmt.Sprintf("e%d@x", rng.Intn(100))))
		}
		book.Add(item)
	}
	return book
}

func itemKeys(n *Node) []string {
	var ks []string
	for _, it := range n.ChildrenNamed("item") {
		v, _ := it.Attr("name")
		ks = append(ks, v)
	}
	sort.Strings(ks)
	return ks
}

// genValue draws a text or attribute value from the characters that need
// care on the way out or back in: markup, both quotes, non-ASCII, and CR, LF
// and TAB inside.
func genValue(rng *rand.Rand) string {
	alphabet := []string{"a", "Z", "7", " ", "&", "<", ">", `"`, "'", "]]>", "&amp;", "\u00e9", "\u4e16", "\U0001f600", "\r", "\n", "\t", "\r\n"}
	var b strings.Builder
	for i := rng.Intn(6); i > 0; i-- {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// genTree builds a random tree over that alphabet: empty elements, text
// beside children, up to three attributes an element. Text is kept free of
// white space at its ends, which parsing trims by design.
func genTree(rng *rand.Rand, depth int) *Node {
	n := New([]string{"a", "b-c", "d.e", "_f", "\u00e9l"}[rng.Intn(5)])
	for i := rng.Intn(4); i > 0; i-- {
		n.SetAttr([]string{"k", "name", "x-y", "\u00fc"}[rng.Intn(4)], genValue(rng))
	}
	if rng.Intn(2) == 0 {
		n.Text = strings.TrimSpace(genValue(rng))
	}
	if depth > 0 {
		for i := rng.Intn(4); i > 0; i-- {
			n.Add(genTree(rng, depth-1))
		}
	}
	return n
}

// Property: serialization round-trips for arbitrary generated trees, compact
// or indented, through the parser and through the reference alike.
func TestQuickSerializationRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []*Node{genBook(rng, 8), genTree(rng, 3)} {
			for _, doc := range []string{n.String(), n.Indent()} {
				back, err := ParseString(doc)
				if err != nil || !n.Equal(back) {
					t.Logf("%q reads back as %v, %v", doc, back, err)
					return false
				}
				if ref, err := referenceParseString(doc); err != nil || !n.Equal(ref) {
					t.Logf("%q reads back through the reference as %v, %v", doc, ref, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// genRoughTree is genTree with names, values and text that ParseString may
// refuse or read back changed as well: prefixes, namespace declarations,
// characters outside XML's Char, invalid UTF-8, white space at the ends.
func genRoughTree(rng *rand.Rand, depth int) *Node {
	names := []string{"a", "\u00e9l", "p:a", ":a", "a:", "1a", "-a", "a b", "", "a\xff", "xmlns"}
	values := []string{"a", " ", "\x01", "\xff", "\uFFFE", "\uFFFD", "\U0001f600", "\r", "\t", "\u00a0", "\u0085"}
	value := func() string {
		var b strings.Builder
		for i := rng.Intn(4); i > 0; i-- {
			b.WriteString(values[rng.Intn(len(values))])
		}
		return b.String()
	}
	n := New(names[rng.Intn(len(names))])
	for i := rng.Intn(3); i > 0; i-- {
		n.SetAttr(names[rng.Intn(len(names))], value())
	}
	if rng.Intn(2) == 0 {
		n.Text = value()
	}
	if depth > 0 {
		for i := rng.Intn(3); i > 0; i-- {
			n.Add(genRoughTree(rng, depth-1))
		}
	}
	return n
}

// Property: Canonical accepts a tree exactly when ParseString reads its
// String back Equal to it, and then returns that String.
func TestQuickCanonicalIsRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := genRoughTree(rng, 2)
		if rng.Intn(4) == 0 {
			n = genTree(rng, 2)
		}
		back, err := ParseString(n.String())
		reads := err == nil && n.Equal(back)
		if s, cerr := n.Canonical(); reads != (cerr == nil) || reads && s != n.String() {
			t.Logf("%q: Canonical = %q, %v; read back as %v, %v", n.String(), s, cerr, back, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	deep := New("a")
	for range MaxDepth {
		deep = New("a").Add(deep)
	}
	if _, err := deep.Canonical(); !errors.Is(err, ErrTooDeep) {
		t.Errorf("Canonical of %d nested elements = %v, want ErrTooDeep", MaxDepth+1, err)
	}
	if _, err := deep.Children[0].Canonical(); err != nil {
		t.Errorf("Canonical of %d nested elements = %v", MaxDepth, err)
	}
}

// Property: DeepUnion is idempotent on keyed trees — u(a, a) has the same
// item set and content as a.
func TestQuickDeepUnionIdempotent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genBook(rng, 8)
		u := DeepUnion(a, a, DefaultKeys)
		if len(u.ChildrenNamed("item")) != len(a.ChildrenNamed("item")) {
			return false
		}
		ka, ku := itemKeys(a), itemKeys(u)
		for i := range ka {
			if ka[i] != ku[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the union contains exactly the key-set union of its inputs.
func TestQuickDeepUnionKeyUnion(t *testing.T) {
	prop := func(seedA, seedB int64) bool {
		a := genBook(rand.New(rand.NewSource(seedA)), 8)
		b := genBook(rand.New(rand.NewSource(seedB)), 8)
		u := DeepUnion(a, b, DefaultKeys)
		want := map[string]bool{}
		for _, k := range itemKeys(a) {
			want[k] = true
		}
		for _, k := range itemKeys(b) {
			want[k] = true
		}
		got := itemKeys(u)
		if len(got) != len(want) {
			return false
		}
		for _, k := range got {
			if !want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: union is commutative up to item order and first-wins conflict
// resolution — the key sets agree in both directions, and for items present
// on only one side, content agrees too.
func TestQuickDeepUnionCommutativeKeySet(t *testing.T) {
	prop := func(seedA, seedB int64) bool {
		a := genBook(rand.New(rand.NewSource(seedA)), 8)
		b := genBook(rand.New(rand.NewSource(seedB)), 8)
		ab := DeepUnion(a, b, DefaultKeys)
		ba := DeepUnion(b, a, DefaultKeys)
		ka, kb := itemKeys(ab), itemKeys(ba)
		if len(ka) != len(kb) {
			return false
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Patch(old, Diff(old, new)) reproduces new's keyed item set and
// per-item content (order may differ).
func TestQuickDiffPatchRoundTrip(t *testing.T) {
	prop := func(seedA, seedB int64) bool {
		oldT := genBook(rand.New(rand.NewSource(seedA)), 8)
		newT := genBook(rand.New(rand.NewSource(seedB)), 8)
		patched := Patch(oldT, Diff(oldT, newT, DefaultKeys), DefaultKeys)
		if patched == nil {
			return newT == nil
		}
		// Compare keyed items as sets.
		index := func(n *Node) map[string]string {
			m := map[string]string{}
			for _, it := range n.ChildrenNamed("item") {
				k, _ := it.Attr("name")
				m[k] = it.String()
			}
			return m
		}
		want, got := index(newT), index(patched)
		if len(want) != len(got) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Diff of a tree against itself is empty, and applying an empty
// diff changes nothing.
func TestQuickDiffSelfEmpty(t *testing.T) {
	prop := func(seed int64) bool {
		n := genBook(rand.New(rand.NewSource(seed)), 8)
		ops := Diff(n, n.Clone(), DefaultKeys)
		if len(ops) != 0 {
			return false
		}
		return Patch(n, nil, DefaultKeys).Equal(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Clone is deep — mutating the clone never changes the original.
func TestQuickCloneIsolation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := genBook(rng, 8)
		before := n.String()
		c := n.Clone()
		c.SetAttr("mutated", "yes")
		for _, it := range c.ChildrenNamed("item") {
			it.Text = "zap"
			if len(it.Children) > 0 {
				it.Children[0].Text = "zap"
			}
		}
		return n.String() == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
