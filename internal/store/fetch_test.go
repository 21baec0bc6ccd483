package store

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/racetag"
	"gupster/internal/schema"
	"gupster/internal/syncml"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// bookOf is an address book of four personal items whose notes say tag.
func bookOf(tag string) string {
	var b strings.Builder
	b.WriteString("<address-book>")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, `<item name="c%d" type="personal"><note>%s</note></item>`, i, tag)
	}
	b.WriteString("</address-book>")
	return b.String()
}

// A fetch parses and renders the stored document outside the engine's lock
// and publishes its answer afterwards, so an answer a write has overtaken
// must never be served. Each round, writers alternate
// whole-component and scoped Puts of one user's book while readers fetch it
// over the wire, so the remembered answer is cleared under them: every reply
// must be one of the written books whole. Then the writers stop and the
// readers fetch from the warm answer: every reply must be the book the last
// write left, at its version. Run it under -race.
func TestFetchDuringPut(t *testing.T) {
	srv, cli, signer := startServer(t)
	const user, versions, rounds = "u", 8, 4
	book := mp("/user[@id='u']/address-book")
	scoped := mp("/user[@id='u']/address-book/item[@type='personal']")
	want := map[string]bool{}
	for k := 0; k < versions; k++ {
		for _, tag := range []string{fmt.Sprintf("whole %d", k), fmt.Sprintf("scoped %d", k)} {
			want[`<user id="u">`+bookOf(tag)+`</user>`] = true
		}
	}
	if _, err := srv.Engine.Put(user, book, xmltree.MustParse(bookOf("whole 0"))); err != nil {
		t.Fatal(err)
	}

	// fetch runs four readers of n fetches each and checks every reply.
	fetch := func(phase string, n int, ok func(xml string, v uint64) bool) {
		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				q := signer.Sign(srv.Engine.ID(), user, book, token.VerbFetch, user, time.Minute)
				for i := 0; i < n; i++ {
					doc, v, err := cli.Fetch(context.Background(), q)
					if err != nil {
						t.Errorf("%s fetch %d: %v", phase, i, err)
						return
					}
					if got := doc.String(); !ok(got, v) {
						t.Errorf("%s fetch %d returned a book the engine does not hold (version %d): %s", phase, i, v, got)
						return
					}
				}
			}()
		}
		readers.Wait()
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k = (k + 1) % versions {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := srv.Engine.Put(user, book, xmltree.MustParse(bookOf(fmt.Sprintf("whole %d", k)))); err != nil {
						t.Error(err)
						return
					}
					if _, err := srv.Engine.Put(user, scoped, xmltree.MustParse(bookOf(fmt.Sprintf("scoped %d", k)))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		fetch("clearing", 40, func(xml string, _ uint64) bool { return want[xml] })
		close(stop)
		wg.Wait()

		doc, lastV, err := srv.Engine.Get(user, book)
		if err != nil {
			t.Fatal(err)
		}
		last := doc.String()
		fetch("warm", 40, func(xml string, v uint64) bool { return xml == last && v == lastV })
	}
}

// fetchAsGet fetches path and checks the answer against Get's document,
// rendered afresh, and its version.
func fetchAsGet(t *testing.T, e *Engine, user string, path xpath.Path) (string, uint64) {
	t.Helper()
	got, v, err := e.GetXML(user, path)
	if err != nil {
		t.Fatal(err)
	}
	doc, wantV, err := e.Get(user, path)
	if err != nil {
		t.Fatal(err)
	}
	if want := doc.String(); got != want || v != wantV {
		t.Errorf("fetch of %s = version %d %s, want version %d %s", path, v, got, wantV, want)
	}
	return got, v
}

// GetXML remembers one answer per user, for one path: after each kind of
// write, a fetch of the path already rendered returns the new bytes at the
// new version, and a fetch of another path renders its own piece.
func TestGetXMLAfterWrite(t *testing.T) {
	const user = "u"
	book := mp("/user[@id='u']/address-book")
	for _, tc := range []struct {
		name  string
		write func(e *Engine) error
	}{
		{"whole put", func(e *Engine) error {
			_, err := e.Put(user, book, xmltree.MustParse(bookOf("after")))
			return err
		}},
		{"scoped put", func(e *Engine) error {
			_, err := e.Put(user, mp("/user[@id='u']/address-book/item[@type='personal']"), xmltree.MustParse(bookOf("after")))
			return err
		}},
		{"delete", func(e *Engine) error {
			_, err := e.Delete(user, mp("/user[@id='u']/address-book/item[@name='c1']"))
			return err
		}},
		{"sync delta", func(e *Engine) error {
			srv := &syncml.Server{Store: e, Keys: xmltree.DefaultKeys}
			_, err := srv.HandleDelta(user, book, &wire.SyncDeltaRequest{XML: bookOf("after"), Policy: string(syncml.ClientWins)})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine("s1")
			if _, err := e.Put(user, book, xmltree.MustParse(bookOf("before"))); err != nil {
				t.Fatal(err)
			}
			fetchAsGet(t, e, user, mp("/user[@id='u']/address-book/item[@name='c2']"))
			before, oldV := fetchAsGet(t, e, user, book)
			if err := tc.write(e); err != nil {
				t.Fatal(err)
			}
			if got, v := fetchAsGet(t, e, user, book); got == before || v == oldV {
				t.Errorf("the write changed neither the book nor its version %d: %s", v, got)
			}
		})
	}
}

// A render published late — after a write it did not see — is not an
// answer: its gen is the tree's before the write.
func TestGetXMLIgnoresALatePublish(t *testing.T) {
	const user = "u"
	book := mp("/user[@id='u']/address-book")
	e := NewEngine("s1")
	if _, err := e.Put(user, book, xmltree.MustParse(bookOf("before"))); err != nil {
		t.Fatal(err)
	}
	before, _ := fetchAsGet(t, e, user, book)
	stale := e.docs[user].fetched.Load()
	if _, err := e.Put(user, book, xmltree.MustParse(bookOf("after"))); err != nil {
		t.Fatal(err)
	}
	e.docs[user].fetched.Store(stale)
	if got, _ := fetchAsGet(t, e, user, book); got == before || !strings.Contains(got, "after") {
		t.Errorf("fetch after a late publish = %s, want the book the write left", got)
	}
}

// A render that read the document before a write and publishes after one
// that read it after leaves the newer answer in place: the next fetch hits.
func TestGetXMLKeepsTheNewerPublish(t *testing.T) {
	const user = "u"
	book := mp("/user[@id='u']/address-book")
	e := NewEngine("s1")
	if _, err := e.Put(user, book, xmltree.MustParse(bookOf("before"))); err != nil {
		t.Fatal(err)
	}
	fetchAsGet(t, e, user, book)
	stale := e.docs[user].fetched.Load()
	if _, err := e.Put(user, book, xmltree.MustParse(bookOf("after"))); err != nil {
		t.Fatal(err)
	}
	fetchAsGet(t, e, user, book)
	fresh := e.docs[user].fetched.Load()
	e.docs[user].publish(stale)
	if got := e.docs[user].fetched.Load(); got != fresh {
		t.Errorf("a late publish of gen %d replaced the answer of gen %d", stale.gen, fresh.gen)
	}
}

// bigBookXML is a 16-item, 2 KiB address book.
func bigBookXML() string {
	var b strings.Builder
	b.WriteString("<address-book>")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, `<item name="contact-%06d" type="personal"><phone>908-%03d-%04d</phone><note>synthetic entry %d for size sweeps</note></item>`, 4*i, i, 7*i, 4*i)
	}
	b.WriteString("</address-book>")
	return b.String()
}

// bigBook stores bigBookXML for u00000 and returns the path of its personal
// items, the piece a store's fetch renders.
func bigBook(tb testing.TB, e *Engine) xpath.Path {
	if _, err := e.Put("u00000", mp("/user[@id='u00000']/address-book"), xmltree.MustParse(bigBookXML())); err != nil {
		tb.Fatal(err)
	}
	return mp("/user[@id='u00000']/address-book/item[@type='personal']")
}

// The allocs/op gate, continued: a store's fetch of a 16-item piece parses
// the stored document and renders its view, once per write. A miss measures
// 10; a hit allocates only the path's key.
func TestFetchAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine("s1")
	p := bigBook(t, e)
	xml, _, err := e.GetXML("u00000", p)
	if err != nil || len(xml) < 1800 {
		t.Fatalf("GetXML: %d bytes, %v", len(xml), err)
	}
	ud := e.docs["u00000"]
	for _, row := range []struct {
		name    string
		warm    bool
		ceiling float64
	}{
		{"miss", false, 12},
		{"hit", true, 1},
	} {
		got := testing.AllocsPerRun(100, func() {
			if !row.warm {
				ud.fetched.Store(nil)
			}
			_, _, _ = e.GetXML("u00000", p)
		})
		t.Logf("16-item fetch render, %s (%d bytes): %.0f allocs", row.name, len(xml), got)
		if got > row.ceiling {
			t.Errorf("16-item fetch render, %s: %.0f allocs, ceiling %.0f", row.name, got, row.ceiling)
		}
	}
}

var getXMLSink string

// BenchmarkGetXML is the store's fetch render of a 16-item piece: hit
// answers from the render the last fetch left, miss renders the view as a
// fetch after a write does.
func BenchmarkGetXML(b *testing.B) {
	e := NewEngine("s1")
	p := bigBook(b, e)
	ud := e.docs["u00000"]
	for _, row := range []struct {
		name string
		warm bool
	}{
		{"hit", true},
		{"miss", false},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if !row.warm {
					ud.fetched.Store(nil)
				}
				getXMLSink, _, _ = e.GetXML("u00000", p)
			}
		})
	}
}

var putSink uint64

// BenchmarkPut is a store's write of a 16-item, 2 KiB address book checked
// against the GUP schema: first is the user's first write, with no document
// and no change log; rewrite writes the same book over itself.
func BenchmarkPut(b *testing.B) {
	e := NewEngine("s1")
	e.Schema = schema.GUP()
	book, piece := mp("/user[@id='u00000']/address-book"), xmltree.MustParse(bigBookXML())
	for _, row := range []struct {
		name  string
		first bool
	}{
		{"first", true},
		{"rewrite", false},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if row.first {
					delete(e.docs, "u00000")
					delete(e.logs, compKey("u00000", book))
				}
				var err error
				if putSink, err = e.Put("u00000", book, piece); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A store keeps each user's document as its XML, so a stored user costs
// little more than its text: 5 000 users of bigBookXML may hold at most 1.6
// times the book's bytes each on the heap, and at most 3 times once each
// has been fetched and keeps its answer beside its document.
func TestBytesPerUser(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const users = 5000
	text := bigBookXML()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	book := func(i int) (string, xpath.Path) {
		id := fmt.Sprintf("u%05d", i)
		return id, mp("/user[@id='" + id + "']/address-book")
	}
	e := NewEngine("s1")
	base := heap()
	for i := 0; i < users; i++ {
		id, p := book(i)
		if _, err := e.Put(id, p, xmltree.MustParse(text)); err != nil {
			t.Fatal(err)
		}
	}
	cold := heap()
	for i := 0; i < users; i++ {
		id, p := book(i)
		if _, _, err := e.GetXML(id, p); err != nil {
			t.Fatal(err)
		}
	}
	warm := heap()
	runtime.KeepAlive(e)
	for _, row := range []struct {
		name    string
		heap    uint64
		ceiling float64
	}{
		{"cold", cold, 1.6},
		{"warm", warm, 3},
	} {
		per := float64(int64(row.heap)-int64(base)) / users
		t.Logf("%s: %.0f B/user, %.2f× the %d-byte book", row.name, per, per/float64(len(text)), len(text))
		if per > row.ceiling*float64(len(text)) {
			t.Errorf("%s: %.0f B/user, ceiling %.1f× the book's %d bytes", row.name, per, row.ceiling, len(text))
		}
	}
}
