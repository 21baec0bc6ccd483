package xmltree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gupster/internal/racetag"
)

// itemKinds are the item types a book is split by, as the benchmark splits
// its books across stores (paper Fig. 9).
var itemKinds = []string{"personal", "corporate", "family", "service"}

// splitBook deals a sizedBook's items round-robin into k pieces, each an
// address book on the <user> spine a store returns it on.
func splitBook(book *Node, k int) []*Node {
	src := book.Child("address-book")
	pieces := make([]*Node, k)
	for j := range pieces {
		pieces[j] = New("address-book")
	}
	for n, item := range src.Children {
		item = item.Clone()
		item.SetAttr("type", itemKinds[n%k])
		pieces[n%k].Add(item)
	}
	for j, p := range pieces {
		pieces[j] = New("user").SetAttr("id", "u00000").Add(p)
	}
	return pieces
}

// chooser turns fuzz input into generator decisions, zero once it runs out.
type chooser []byte

func (c *chooser) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	b := (*c)[0]
	*c = (*c)[1:]
	return int(b) % n
}

func (c *chooser) of(xs ...string) string { return xs[c.pick(len(xs))] }

// genPiece builds one piece of a merge from the fuzz input: keyed elements
// (item by name, entry by id) from a small key space, so keys repeat within a
// piece and across pieces; keyed names that lack their key and so are
// unkeyed; unkeyed sections named so that some are singletons and some
// repeat; and texts and attributes that conflict between pieces. Now and
// then a level is wide, with dozens of sections from a small name space.
func genPiece(c *chooser, depth int) *Node {
	n := New(c.of("item", "entry", "prefs", "phone", "note", "a"))
	switch n.Name {
	case "item":
		if c.pick(4) > 0 {
			n.SetAttr("name", c.of("rick", "dan", "ming", ""))
		}
	case "entry":
		if c.pick(4) > 0 {
			n.SetAttr("id", c.of("1", "2", "3"))
		}
	}
	for i := c.pick(3); i > 0; i-- {
		n.SetAttr(c.of("k", "type", "lang"), c.of("x", "y", "z"))
	}
	if c.pick(2) == 0 {
		n.Text = c.of("t1", "t2", "t3")
	}
	if depth == 0 {
		return n
	}
	kids := c.pick(5)
	if c.pick(16) == 0 {
		kids = 24 + c.pick(24)
	}
	for i := 0; i < kids; i++ {
		if kids > 8 && c.pick(2) == 0 {
			// Wide levels: many unkeyed sections, some named once.
			n.Add(NewText(fmt.Sprintf("w%d", c.pick(40)), c.of("", "v")))
			continue
		}
		n.Add(genPiece(c, depth-1))
	}
	return n
}

// genPieces builds 1–5 pieces, some of them nil, sharing a root name so
// that every merge merges.
func genPieces(c *chooser) []*Node {
	pieces := make([]*Node, 1+c.pick(5))
	for i := range pieces {
		if c.pick(5) == 0 {
			continue
		}
		p := genPiece(c, 3)
		p.Name = "profile"
		pieces[i] = p
	}
	return pieces
}

// scramble overwrites every node, attribute array and children slice under
// n: each attribute value is written in place, each child pointer replaced
// and each children slice appended to.
func scramble(n *Node) {
	n.Name, n.Text = "scrambled", "scrambled"
	for i := range n.attrs {
		n.attrs[i].Value = "scrambled"
	}
	n.SetAttr("scrambled", "yes")
	for i, c := range n.Children {
		scramble(c)
		n.Children[i] = New("replaced")
	}
	n.Add(New("appended"))
}

func renderAll(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		if n != nil {
			out[i] = referenceString(n)
		}
	}
	return out
}

// checkMergeAgainstReference holds MergeAll, and DeepUnion on the first two
// pieces, to the reference fold byte for byte, and shows that neither the
// merge nor any later change to its result touches an input.
func checkMergeAgainstReference(t *testing.T, pieces []*Node) {
	t.Helper()
	before := renderAll(pieces)
	got := MergeAll(DefaultKeys, pieces...)
	want := referenceMergeAll(DefaultKeys, pieces...)
	if (got == nil) != (want == nil) || got != nil && referenceString(got) != referenceString(want) {
		t.Fatalf("MergeAll of %q\n got %v\nwant %v", before, got, want)
	}
	if len(pieces) >= 2 {
		got, want := DeepUnion(pieces[0], pieces[1], DefaultKeys), referenceDeepUnion(pieces[0], pieces[1], DefaultKeys)
		if (got == nil) != (want == nil) || got != nil && referenceString(got) != referenceString(want) {
			t.Fatalf("DeepUnion of %q\n got %v\nwant %v", before[:2], got, want)
		}
	}
	if got != nil {
		scramble(got)
	}
	for i, s := range renderAll(pieces) {
		if s != before[i] {
			t.Fatalf("piece %d changed:\nbefore %s\n after %s", i, before[i], s)
		}
	}
}

func FuzzMergeAllMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := chooser(data)
		checkMergeAgainstReference(t, genPieces(&c))
	})
}

// The fuzz target's generator, run over random inputs, so every test run
// covers wide levels and narrow ones many times over.
func TestMergeAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		c := chooser(data)
		checkMergeAgainstReference(t, genPieces(&c))
	}
	checkMergeAgainstReference(t, splitBook(sizedBook(8<<10), 4))
}

// parseTwice renders each piece and reads it back twice, so that every
// piece of each set is the tree of its own ParseString call.
func parseTwice(t *testing.T, pieces []*Node) (a, b []*Node) {
	t.Helper()
	a, b = make([]*Node, len(pieces)), make([]*Node, len(pieces))
	for i, p := range pieces {
		if p == nil {
			continue
		}
		var err error
		if a[i], err = ParseString(p.String()); err != nil {
			t.Fatal(err)
		}
		b[i], _ = ParseString(p.String())
	}
	return a, b
}

// checkOwnedAgainstMergeAll holds MergeOwned over one parsed set of the
// pieces to MergeAll over the other, byte for byte.
func checkOwnedAgainstMergeAll(t *testing.T, pieces []*Node) {
	t.Helper()
	owned, copied := parseTwice(t, pieces)
	want := MergeAll(DefaultKeys, copied...)
	got := MergeOwned(DefaultKeys, owned...)
	if (got == nil) != (want == nil) || got != nil && got.String() != want.String() {
		t.Fatalf("MergeOwned of %q\n got %v\nwant %v", renderAll(copied), got, want)
	}
}

func FuzzMergeOwnedMatchesMergeAll(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := chooser(data)
		checkOwnedAgainstMergeAll(t, genPieces(&c))
	})
}

func TestMergeOwnedMatchesMergeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		c := chooser(data)
		checkOwnedAgainstMergeAll(t, genPieces(&c))
	}
	checkOwnedAgainstMergeAll(t, splitBook(sizedBook(8<<10), 4))
}

// A lone piece is the answer: MergeOwned hands it back, not a copy.
func TestMergeOwnedLonePiece(t *testing.T) {
	p := MustParse(`<user id="u"><address-book><item name="a"/></address-book></user>`)
	if got := MergeOwned(DefaultKeys, nil, p, nil); got != p {
		t.Errorf("MergeOwned(nil, p, nil) = %p, want p = %p", got, p)
	}
	if got := MergeOwned(DefaultKeys, nil, nil); got != nil {
		t.Errorf("MergeOwned of nils = %v, want nil", got)
	}
}

func FuzzStringMatchesReference(f *testing.F) {
	f.Add(int64(1), "x & y < z > \"q\" 'a'", "\r\n\t\u00e9\u4e16\U0001f600", 3)
	f.Add(int64(2), "", "]]>&amp;", 12)
	f.Add(int64(3), "\xff\xfe", "\r", 0)
	f.Fuzz(func(t *testing.T, seed int64, text, attr string, attrs int) {
		n := genTree(rand.New(rand.NewSource(seed)), 3)
		leaf := NewText("t", text).SetAttr("v", attr)
		// More attributes than the writer sorts on its stack.
		for i := 0; i < attrs%16; i++ {
			leaf.SetAttr(fmt.Sprintf("a%02d", (i*7)%16), attr)
		}
		n.Add(leaf, New(text).SetAttr(attr, text))
		if got, want := n.String(), referenceString(n); got != want {
			t.Fatalf("String:\n got %q\nwant %q", got, want)
		}
		if got, want := n.Indent(), referenceIndent(n); got != want {
			t.Fatalf("Indent:\n got %q\nwant %q", got, want)
		}
	})
}

// A duplicate key inside the first piece keeps the earlier position and
// takes the later content, once anything is merged into it; a piece alone
// is copied as it is. Duplicates in later pieces merge. This is the left
// fold's behaviour, pinned so that merging in place cannot change it.
func TestMergeAllDuplicateKeys(t *testing.T) {
	first := MustParse(`<book><item name="a"><phone>1</phone></item><item name="b"/><item name="a"><email>e</email></item></book>`)
	for _, c := range []struct {
		name   string
		pieces []*Node
		want   string
	}{
		{"alone", []*Node{first}, first.String()},
		{"first piece", []*Node{first, MustParse(`<book><item name="c"/></book>`)},
			`<book><item name="a"><email>e</email></item><item name="b"/><item name="c"/></book>`},
		{"later piece", []*Node{MustParse(`<book><item name="a"><phone>1</phone></item></book>`),
			MustParse(`<book><item name="c"><phone>2</phone></item><item name="a"><email>e</email></item><item name="c" type="x"><note>n</note></item></book>`)},
			`<book><item name="a"><phone>1</phone><email>e</email></item><item name="c" type="x"><phone>2</phone><note>n</note></item></book>`},
		{"across pieces", []*Node{first, MustParse(`<book><item name="a"><note>n</note></item></book>`),
			MustParse(`<book><item name="a" type="y"/><item name="b"><phone>3</phone></item></book>`)},
			`<book><item name="a" type="y"><email>e</email><note>n</note></item><item name="b"><phone>3</phone></item></book>`},
	} {
		got := MergeAll(DefaultKeys, c.pieces...)
		if got.String() != c.want {
			t.Errorf("%s: got  %s\n            want %s", c.name, got, c.want)
		}
		if ref := referenceMergeAll(DefaultKeys, c.pieces...); ref.String() != c.want {
			t.Errorf("%s: the reference fold gives %s, the table says %s", c.name, ref, c.want)
		}
	}
}

// The result of a merge is the caller's to change: nothing it can reach —
// node, attribute array or children slice — belongs to an input.
func TestMergeAllSharesNothingWithInputs(t *testing.T) {
	sections := []*Node{
		MustParse(`<user id="u00000"><prefs ring="loud"><lang>fr</lang></prefs><note>1</note><note>2</note></user>`),
		MustParse(`<user id="u00000"><prefs vol="3"><tz>cet</tz></prefs><extra/></user>`),
	}
	for _, pieces := range [][]*Node{
		splitBook(sizedBook(2<<10), 4),
		append(splitBook(sizedBook(1<<10), 2), sections...),
		{nil, sections[0]},
	} {
		before := renderAll(pieces)
		for _, merged := range []*Node{
			MergeAll(DefaultKeys, pieces...),
			DeepUnion(pieces[0], pieces[1], DefaultKeys),
			pieces[1].Clone(),
		} {
			scramble(merged)
			for i, s := range renderAll(pieces) {
				if s != before[i] {
					t.Fatalf("changing a result changed piece %d:\nbefore %s\n after %s", i, before[i], s)
				}
			}
		}
	}
}

// A clone's nodes share one array of child pointers. Appending a child to one
// node must not write into the slots of the node copied after it.
func TestCloneSiblingsDoNotShareChildren(t *testing.T) {
	orig := MustParse(`<a><b><c><d/><e/></c><f/></b><g><h/></g><i x="1"><j/><k/></i></a>`)
	before := orig.String()
	clone, want := orig.Clone(), MustParse(before)
	var got, exp []*Node
	clone.Walk(func(n *Node) bool { got = append(got, n); return true })
	want.Walk(func(n *Node) bool { exp = append(exp, n); return true })
	for i := range got {
		got[i].Add(New(fmt.Sprintf("added%d", i)))
		exp[i].Add(New(fmt.Sprintf("added%d", i)))
		if clone.String() != want.String() {
			t.Fatalf("after adding to node %d (<%s>):\n got %s\nwant %s", i, exp[i].Name, clone, want)
		}
	}
	if orig.String() != before {
		t.Errorf("the original changed: %s", orig)
	}
}

// Renders share a pool of buffers; under -race this shows that no buffer is
// written by two renders at once or returned to the pool while a string
// still reads it.
func TestStringConcurrent(t *testing.T) {
	var trees []*Node
	var want []string
	for i := 0; i < 8; i++ {
		n := genTree(rand.New(rand.NewSource(int64(i))), 4)
		switch i {
		case 0:
			n = sizedBook(8 << 10)
		case 4:
			n = sizedBook(96 << 10) // its buffer is dropped, not pooled
		}
		trees = append(trees, n)
		want = append(want, referenceString(n)+"|"+referenceIndent(n))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (g + r) % len(trees)
				if got := trees[i].String() + "|" + trees[i].Indent(); got != want[i] {
					t.Errorf("tree %d rendered as %.80q…", i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A level counts its section names instead of scanning for them: 20 000
// unkeyed children a side, every one a singleton pair, must not cost the 400
// million comparisons scanning them would.
func TestMergeAllWideLevelIsLinear(t *testing.T) {
	const wide = 20_000
	a, b := New("profile"), New("profile")
	for i := 0; i < wide; i++ {
		a.Add(NewText(fmt.Sprintf("s%d", i), "a"))
		b.Add(New(fmt.Sprintf("s%d", wide-1-i)).SetAttr("k", "b"))
	}
	start := time.Now()
	got := MergeAll(DefaultKeys, a, b)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("merging two %d-wide levels took %v", wide, d)
	}
	if len(got.Children) != wide || got.Children[7].String() != `<s7 k="b">a</s7>` {
		t.Errorf("got %d children, the eighth %v", len(got.Children), got.Children[7])
	}
}

// The allocs/op gate, continued: the benchmark's chaining book, four pieces
// of 2 KiB, merged; and a compact render.
func TestMergeAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// It measures 31: the slab and its three arrays, and the 27 a MergeOwned
	// of the same pieces makes.
	pieces := splitBook(sizedBook(8<<10), 4)
	got := testing.AllocsPerRun(50, func() { MergeAll(DefaultKeys, pieces...) })
	t.Logf("4-way 8 KiB merge: %.0f allocs", got)
	if got > 40 {
		t.Errorf("4-way 8 KiB merge: %.0f allocs, ceiling 40", got)
	}
	// MergeOwned consumes its pieces, so each run merges fresh clones; what
	// the clones cost is taken off. It measures 27: the merged levels'
	// children slices and key indexes, no node.
	fresh := func() []*Node {
		out := make([]*Node, len(pieces))
		for i, p := range pieces {
			out[i] = p.Clone()
		}
		return out
	}
	cloning := testing.AllocsPerRun(50, func() { fresh() })
	owned := testing.AllocsPerRun(50, func() { MergeOwned(DefaultKeys, fresh()...) }) - cloning
	t.Logf("4-way 8 KiB owned merge: %.0f allocs", owned)
	if owned > 40 {
		t.Errorf("4-way 8 KiB owned merge: %.0f allocs, ceiling 40", owned)
	}
}

func TestStringAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	book := sizedBook(8 << 10)
	book.Child("address-book").Children[0].SetAttr("z", "9").SetAttr("y", `&"<`)
	_ = book.String()
	if got := testing.AllocsPerRun(50, func() { _ = book.String() }); got != 1 {
		t.Errorf("String: %.0f allocs, want 1 (the result)", got)
	}
}

func BenchmarkMergeAll(b *testing.B) {
	pieces := splitBook(sizedBook(8<<10), 4)
	b.Run("4x2k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			MergeAll(DefaultKeys, pieces...)
		}
	})
	// MergeOwned consumes its pieces: fresh sets are cloned a batch at a
	// time with the timer stopped. This is the b.N form on purpose: b.Loop
	// measures its -benchtime from the last StartTimer, so restarting the
	// timer every iteration would keep a time-based run from ever ending.
	b.Run("4x2k/owned", func(b *testing.B) {
		b.ReportAllocs()
		const batch = 64
		sets := make([][]*Node, batch)
		for done := 0; done < b.N; done += batch {
			n := min(batch, b.N-done)
			b.StopTimer()
			for k := range n {
				sets[k] = make([]*Node, len(pieces))
				for i, p := range pieces {
					sets[k][i] = p.Clone()
				}
			}
			b.StartTimer()
			for _, owned := range sets[:n] {
				MergeOwned(DefaultKeys, owned...)
			}
		}
	})
}

// BenchmarkMergeXML is BenchmarkMergeAll's merge from the stores' replies
// to the merged reply: ParseString of each piece, MergeOwned and String,
// against MergeXML.
func BenchmarkMergeXML(b *testing.B) {
	pieces := renderAll(splitBook(sizedBook(8<<10), 4))
	b.Run("4x2k/trees", func(b *testing.B) {
		b.ReportAllocs()
		trees := make([]*Node, len(pieces))
		for b.Loop() {
			for i, p := range pieces {
				trees[i], _ = ParseString(p)
			}
			_ = MergeOwned(DefaultKeys, trees...).String()
		}
	})
	b.Run("4x2k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := MergeXML(DefaultKeys, pieces...); err != nil {
				b.Fatal(err)
			}
		}
	})
}
