package xmltree

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"gupster/internal/racetag"
)

// checkMergeXML holds MergeXML to MergeAll over ParseString of the same
// pieces: the same error, or the same bytes.
func checkMergeXML(t *testing.T, pieces ...string) {
	t.Helper()
	var (
		trees []*Node
		want  string
		err   error
	)
	for _, p := range pieces {
		if p == "" {
			continue
		}
		var n *Node
		if n, err = ParseString(p); err != nil {
			break
		}
		trees = append(trees, n)
	}
	if err == nil {
		if merged := MergeAll(DefaultKeys, trees...); merged != nil {
			want = merged.String()
		}
	}
	got, gotErr := MergeXML(DefaultKeys, pieces...)
	switch {
	case err != nil && gotErr == nil:
		t.Fatalf("MergeXML of %q = %q, want the error %v", pieces, got, err)
	case err == nil && gotErr != nil:
		t.Fatalf("MergeXML of %q: %v, want %q", pieces, gotErr, want)
	case err != nil:
		for _, sentinel := range []error{ErrEmpty, ErrTooDeep} {
			if errors.Is(gotErr, sentinel) != errors.Is(err, sentinel) {
				t.Fatalf("MergeXML of %q: %v, want %v", pieces, gotErr, err)
			}
		}
		if gotErr.Error() != err.Error() {
			t.Fatalf("MergeXML of %q: %v, want %v", pieces, gotErr, err)
		}
	case got != want:
		t.Fatalf("MergeXML of %q\n got %s\nwant %s", pieces, got, want)
	}
}

// dress writes n as XML that reads back as n but is not String's output,
// the choices taken from c: attributes out of order, repeated, single
// quoted or spaced; references String does not write; CDATA, comments,
// processing instructions and split text, or text after the children;
// namespace prefixes; <a></a> for an empty element. With no choices left it
// writes what String does.
func dress(c *chooser, n *Node) string {
	var b strings.Builder
	dressTo(&b, c, n)
	return b.String()
}

func dressTo(b *strings.Builder, c *chooser, n *Node) {
	name := n.Name
	if c.pick(8) == 1 {
		name = "p:" + name
	}
	b.WriteString("<" + name)
	if strings.HasPrefix(name, "p:") {
		b.WriteString(` xmlns:p="urn:p"`)
	}
	names := referenceSortedAttrKeys(n)
	if c.pick(6) == 1 {
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
	}
	for _, k := range names {
		if c.pick(8) == 1 {
			b.WriteString(` ` + k + `="overwritten"`) // a repeated attribute: the last wins
		}
		sp := c.of(" ", " ", " ", "\n  ", "  ", "\n", "\t")
		v, _ := n.Attr(k)
		if c.pick(8) == 1 {
			b.WriteString(sp + k + ` = '` + dressValue(c, v, '\'') + `'`)
		} else {
			b.WriteString(sp + k + `="` + dressValue(c, v, '"') + `"`)
		}
	}
	if n.Text == "" && len(n.Children) == 0 && c.pick(4) != 1 {
		b.WriteString(c.of("/>", "/>", " />"))
		return
	}
	b.WriteString(">")
	if c.pick(8) == 1 {
		b.WriteString(c.of("<!-- c -->", "<?pi x?>", "\n  "))
	}
	last := len(n.Children) > 0 && c.pick(8) == 1 // the text after the children
	switch {
	case n.Text == "" || last:
	case c.pick(8) == 1 && !strings.Contains(n.Text, "]]>") && !strings.Contains(n.Text, "\r"):
		b.WriteString("<![CDATA[" + n.Text + "]]>")
	case c.pick(8) == 1 && len(n.Text) > 1:
		b.WriteString(dressValue(c, n.Text[:1], 0) + "<!---->" + dressValue(c, n.Text[1:], 0))
	default:
		b.WriteString(dressValue(c, n.Text, 0))
	}
	for _, k := range n.Children {
		if c.pick(8) == 1 {
			b.WriteString(c.of("\n  ", "<!-- between -->", " "))
		}
		dressTo(b, c, k)
	}
	if last {
		b.WriteString(dressValue(c, n.Text, 0))
	}
	b.WriteString(c.of("</"+name+">", "</"+name+">", "</"+name+" >"))
}

// dressValue escapes s for the given quote (0: text), now and then with a
// reference String would not use.
func dressValue(c *chooser, s string, quote byte) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '&':
			b.WriteString(c.of("&amp;", "&#38;", "&#x26;"))
		case r == '<':
			b.WriteString(c.of("&lt;", "&#60;"))
		case r == '>':
			if quote == 0 {
				b.WriteString(c.of("&gt;", ">"))
			} else {
				b.WriteString("&gt;")
			}
		case r == '\r':
			b.WriteString(c.of("&#xD;", "&#13;"))
		case quote == '"' && r == '"':
			b.WriteString(c.of("&quot;", "&#34;"))
		case quote == '\'' && r == '\'':
			b.WriteString(c.of("&apos;", "&#39;"))
		case r == '"':
			b.WriteString(c.of(`"`, "&quot;"))
		case r == '\'':
			b.WriteString(c.of("'", "&apos;"))
		case r == 'x' && c.pick(8) == 1:
			b.WriteString("&#120;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// spice gives some of n's texts and attribute values characters that need
// escaping, and white space to trim.
func spice(c *chooser, n *Node) {
	if n.Text != "" && c.pick(4) == 1 {
		n.Text = c.of(`a & b`, `<x>`, `"q" 'a'`, "l1\r\nl2", "é世", "x]]y", "tab\tx")
	}
	for k := range n.Attrs {
		if c.pick(6) == 1 {
			n.SetAttr(k, c.of(`a&b`, `"`, `'`, `<>`, "\n", "x\ry", ""))
		}
	}
	for _, k := range n.Children {
		spice(c, k)
	}
}

// genXMLPieces renders genPieces, some spiced and dressed: the pieces as
// String writes them, as Indent does, and as XML from elsewhere might be.
func genXMLPieces(c *chooser) []string {
	trees := genPieces(c)
	out := make([]string, len(trees))
	for i, n := range trees {
		if n == nil {
			continue
		}
		spice(c, n)
		switch c.pick(4) {
		case 0:
			out[i] = n.String()
		case 1:
			out[i] = n.Indent()
		default:
			out[i] = dress(c, n)
		}
	}
	return out
}

func FuzzMergeXMLMatchesMergeAll(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed, "")
	}
	book := splitBook(sizedBook(2<<10), 4)
	deep := strings.Repeat("<a>", MaxDepth+1) + strings.Repeat("</a>", MaxDepth+1)
	for _, extra := range []string{
		book[3].String(),
		book[2].Indent(),
		`<user id="u00000"><address-book><item name="x" type="personal"/><item name="x"><n>2</n></item><item/></address-book></user>`,
		`<user id="u00000"><address-book><item name="x" type='y'>a &amp; b &#60; &gt;</item><![CDATA[<raw>]]><!-- c --><p:prefs xmlns:p="urn:p" p:k="v"/></address-book></user>`,
		deep,
		deep[:len(deep)-4*MaxDepth],
		book[0].String()[:len(book[0].String())/2],
		"  ",
	} {
		f.Add([]byte{}, extra)
		f.Add([]byte{3, 1, 4, 1, 5}, extra)
	}
	f.Fuzz(func(t *testing.T, data []byte, extra string) {
		c := chooser(data)
		pieces := genXMLPieces(&c)
		if extra != "" {
			pieces = append(pieces, extra)
		}
		checkMergeXML(t, pieces...)
	})
}

func TestMergeXMLMatchesMergeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		c := chooser(data)
		checkMergeXML(t, genXMLPieces(&c)...)
	}
	book := splitBook(sizedBook(8<<10), 4)
	checkMergeXML(t, renderAll(book)...)
	checkMergeXML(t, book[0].Indent(), "", book[1].String(), book[2].Indent(), book[3].String())
	checkMergeXML(t)
	checkMergeXML(t, "", "")
}

// MergeXML refuses every input ParseString refuses, in any position.
func TestMergeXMLRefusals(t *testing.T) {
	good := `<user id="u"><address-book><item name="a"/></address-book></user>`
	for _, c := range []struct {
		name, piece string
		sentinel    error
	}{
		{"MaxDepth+1", strings.Repeat("<a>", MaxDepth+1) + strings.Repeat("</a>", MaxDepth+1), ErrTooDeep},
		{"truncated", good[:len(good)-3], nil},
		{"bad UTF-8", "<user id=\"u\">\xff</user>", nil},
		{"mismatched end tag", `<user id="u"><a></b></user>`, nil},
		{"empty", " \n<!-- nothing -->", ErrEmpty},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, pieces := range [][]string{{c.piece}, {good, c.piece}, {c.piece, good}} {
				_, want := ParseString(c.piece)
				got, err := MergeXML(DefaultKeys, pieces...)
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("MergeXML(%.40q…) = %.40q, %v; want the error %v", pieces, got, err, want)
				}
				if c.sentinel != nil && !errors.Is(err, c.sentinel) {
					t.Errorf("MergeXML error %v is not %v", err, c.sentinel)
				}
			}
		})
	}
	checkMergeXML(t, good, "<a>b</a><unparsed", good)
}

// A lone piece that String wrote is the answer as it is: no copy.
func TestMergeXMLLonePiece(t *testing.T) {
	p := splitBook(sizedBook(2<<10), 4)[1].String()
	got, err := MergeXML(DefaultKeys, "", p, "")
	if err != nil || got != p || !aliases(p, got) {
		t.Errorf("MergeXML of a lone piece copied it, or changed it: %v", err)
	}
	if got, err := MergeXML(DefaultKeys, "", ""); got != "" || err != nil {
		t.Errorf("MergeXML of empty pieces = %q, %v", got, err)
	}
}

// Merges share a pool of indexes; under -race this shows that no index is
// used by two merges at once, and that none hands one merge's values to
// another, a refused input's included.
func TestMergeXMLConcurrent(t *testing.T) {
	book := renderAll(splitBook(sizedBook(8<<10), 4))
	sets := [][]string{book, {book[0]}, {book[2], book[1]}, {book[0], "<a><b></a>"}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		data := make([]byte, 512)
		rng.Read(data)
		c := chooser(data)
		sets = append(sets, genXMLPieces(&c))
	}
	want := make([]string, len(sets))
	for i, set := range sets {
		got, err := MergeXML(DefaultKeys, set...)
		want[i] = fmt.Sprint(got, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				i := (g + r) % len(sets)
				if got, err := MergeXML(DefaultKeys, sets[i]...); fmt.Sprint(got, err) != want[i] {
					t.Errorf("set %d merged as %.80q…", i, fmt.Sprint(got, err))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The pool keeps an index, never what it indexed: once a merge returns,
// neither its pieces nor its result are reachable through it.
func TestMergeXMLPoolKeepsNoPiece(t *testing.T) {
	pieces, result := mergeAndDrop(t, renderAll(splitBook(sizedBook(8<<10), 4)))
	runtime.GC()
	for i, p := range pieces {
		if p.Value() != nil {
			t.Errorf("piece %d of a finished merge is still reachable", i)
		}
	}
	if result.Value() != nil {
		t.Error("the result of a finished merge is still reachable")
	}
}

// mergeAndDrop merges copies of pieces and returns weak pointers to the
// copies and to the result.
func mergeAndDrop(t *testing.T, pieces []string) ([]weak.Pointer[byte], weak.Pointer[byte]) {
	in := make([]string, len(pieces))
	ws := make([]weak.Pointer[byte], len(pieces))
	for i, p := range pieces {
		in[i] = strings.Clone(p)
		ws[i] = weak.Make(unsafe.StringData(in[i]))
	}
	got, err := MergeXML(DefaultKeys, in...)
	if err != nil {
		t.Fatal(err)
	}
	return ws, weak.Make(unsafe.StringData(got))
}

// An index grown past maxPooledScratch by a hostile piece — here 1 MiB of
// elements — is not pooled: the next merge starts from a small one.
func TestMergeXMLDropsGrownIndex(t *testing.T) {
	huge := "<a>" + strings.Repeat(`<b k="v">t</b>`, (1<<20)/14) + "</a>"
	if _, err := MergeXML(DefaultKeys, huge, "<a/>"); err != nil {
		t.Fatal(err)
	}
	m := mergers.Get().(*merger)
	defer mergers.Put(m)
	for name, c := range map[string]int{
		"elems": cap(m.elems), "attrs": cap(m.attrs), "buf": cap(m.buf), "nodes": cap(m.nodes),
		"links": cap(m.links), "kids": cap(m.kids), "slots": cap(m.slots), "refs": cap(m.refs),
	} {
		if c > maxPooledScratch {
			t.Errorf("pooled index keeps %s of capacity %d", name, c)
		}
	}
}

// The chaining miss: the benchmark's book, four pieces of 2 KiB as stores
// write them, merged into one string.
func TestMergeXMLAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pieces := renderAll(splitBook(sizedBook(8<<10), 4))
	if _, err := MergeXML(DefaultKeys, pieces...); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() { _, _ = MergeXML(DefaultKeys, pieces...) })
	t.Logf("4-way 8 KiB MergeXML: %.0f allocs", got)
	if got > 1 {
		t.Errorf("4-way 8 KiB MergeXML: %.0f allocs, want 1 (the result)", got)
	}
}
