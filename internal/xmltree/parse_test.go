package xmltree

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gupster/internal/racetag"
)

func TestParseCorners(t *testing.T) {
	for _, c := range corners {
		got, err := ParseString(c.in)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("ParseString(%q) = %v, want an error", c.in, got)
		case c.want != "" && err != nil:
			t.Errorf("ParseString(%q): %v, want %s", c.in, err, c.want)
		case c.want != "" && got.String() != c.want:
			t.Errorf("ParseString(%q) = %q, want %q", c.in, got.String(), c.want)
		}
		checkAgainstReference(t, c.in)
	}
}

// One frame must not be able to kill a node: the recursive parser this
// replaced died with "fatal error: stack overflow" — not a panic, nothing
// recovers it — on this input, which fits in a wire frame.
func TestParseTooDeep(t *testing.T) {
	start := time.Now()
	_, err := ParseString(strings.Repeat("<a>", 5_000_000))
	if !errors.Is(err, ErrTooDeep) {
		t.Fatalf("err = %v, want ErrTooDeep", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusing the input took %v: it must not be read to the end first", d)
	}

	nest := func(depth int) string {
		return strings.Repeat("<a>", depth-1) + "<a/>" + strings.Repeat("</a>", depth-1)
	}
	if _, err := ParseString(nest(MaxDepth)); err != nil {
		t.Errorf("depth MaxDepth: %v", err)
	}
	if _, err := ParseString(nest(MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Errorf("depth MaxDepth+1: err = %v, want ErrTooDeep", err)
	}
}

// Nor may one frame cost minutes of CPU: an element's text runs are joined
// in amortised linear time. Joined with text += run, the first input below
// took 4 s and allocated 20 GB, and a 16 MiB frame of it a quarter of an
// hour. The byte bound is the deterministic half of the check; the clock is
// there because time is what the sender of such a frame is after.
func TestParseManyTextRunsIsLinear(t *testing.T) {
	const runs = 200_000
	for _, c := range []struct{ name, in, text string }{
		{"children", "<a>" + strings.Repeat("x<b/>", runs) + "</a>", strings.Repeat("x", runs)},
		{"comments", "<a>" + strings.Repeat("x<!---->", runs) + "</a>", strings.Repeat("x", runs)},
		{"cdata", "<a>" + strings.Repeat("x<![CDATA[&]]>", runs) + "</a>", strings.Repeat("x&", runs)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		n, err := ParseString(c.in)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n.Text != c.text {
			t.Errorf("%s: text is %d bytes, want %d: %.20q…", c.name, len(n.Text), len(c.text), n.Text)
		}
		if got, max := after.TotalAlloc-before.TotalAlloc, uint64(100*len(c.in)); got > max {
			t.Errorf("%s: parsing %d bytes allocated %d, more than %d", c.name, len(c.in), got, max)
		}
		if d > 2*time.Second {
			t.Errorf("%s: parsing %d bytes took %v", c.name, len(c.in), d)
		}
	}
}

func TestParseErrorsNameElementAndOffset(t *testing.T) {
	_, err := ParseString(`<book><item name="x"><phone>1 & 2</phone></item></book>`)
	if err == nil {
		t.Fatal("want an error")
	}
	for _, want := range []string{"xmltree: ", "<phone>", "offset 30"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// A parsed tree's strings are substrings of the input where no decoding was
// needed: that is where the allocations went. It also means the tree keeps
// the input alive, which DESIGN.md §17 says out loud.
func TestParseAliasesInput(t *testing.T) {
	in := `<item name="rick"><phone>908-582-1234</phone></item>`
	n := MustParse(in)
	for _, s := range []string{n.Name, n.Attrs["name"], n.Children[0].Name, n.Children[0].Text} {
		if s == "" || !aliases(in, s) {
			t.Errorf("%q is a copy, want a substring of the input", s)
		}
	}
}

// aliases reports whether part's bytes lie inside whole's.
func aliases(whole, part string) bool {
	w := uintptr(unsafe.Pointer(unsafe.StringData(whole)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(part)))
	return w <= p && p+uintptr(len(part)) <= w+uintptr(len(whole))
}

// sizedBook builds an address book shaped like workload.AddressBookOfSize's
// (which this package cannot import: workload imports xmltree) whose compact
// serialisation is at least targetBytes long.
func sizedBook(targetBytes int) *Node {
	rng := rand.New(rand.NewSource(1))
	book := New("address-book")
	size := len(book.String())
	for i := 0; size < targetBytes; i++ {
		item := New("item").
			SetAttr("name", fmt.Sprintf("contact-%06d", i)).
			SetAttr("type", []string{"personal", "corporate"}[i%2])
		item.Add(NewText("phone", fmt.Sprintf("908-%03d-%04d", rng.Intn(1000), rng.Intn(10000))))
		item.Add(NewText("note", fmt.Sprintf("synthetic entry %d for size sweeps", i)))
		book.Add(item)
		size += len(item.String())
	}
	return New("user").SetAttr("id", "u00000").Add(book)
}

// The first instalment of the allocs/op gate ROADMAP asks for. The ceilings
// are the issue's; the parser sits at about half of each (a Node, its Attrs
// map's two allocations and its Children slice are what remain).
func TestParseAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		bytes   int
		ceiling float64
	}{{1 << 10, 120}, {8 << 10, 800}} {
		doc := sizedBook(c.bytes).String()
		got := testing.AllocsPerRun(50, func() {
			if _, err := ParseString(doc); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-byte book: %.0f allocs/parse", len(doc), got)
		if got > c.ceiling {
			t.Errorf("%d-byte book: %.0f allocs/parse, ceiling %.0f", len(doc), got, c.ceiling)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, c := range []struct {
		name  string
		bytes int
	}{{"1k", 1 << 10}, {"8k", 8 << 10}} {
		doc := sizedBook(c.bytes).String()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(doc)))
			for b.Loop() {
				if _, err := ParseString(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkString(b *testing.B) {
	book := sizedBook(8 << 10)
	b.Run("8k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_ = book.String()
		}
	})
}
