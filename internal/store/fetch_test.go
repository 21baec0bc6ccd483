package store

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gupster/internal/racetag"
	"gupster/internal/token"
	"gupster/internal/xmltree"
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

// A fetch renders the engine's own tree, so it must be done before a Put may
// change that tree. Writers alternate whole-component and scoped Puts of one
// user's book while readers fetch it over the wire; every reply must be one
// of the written books whole. Run it under -race.
func TestFetchDuringPut(t *testing.T) {
	srv, cli, signer := startServer(t)
	const user, versions = "u", 8
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
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := signer.Sign(srv.Engine.ID(), user, book, token.VerbFetch, user, time.Minute)
			for i := 0; i < 200; i++ {
				doc, _, err := cli.Fetch(context.Background(), q)
				if err != nil {
					t.Errorf("fetch %d: %v", i, err)
					return
				}
				if got := doc.String(); !want[got] {
					t.Errorf("fetch %d returned a book nobody wrote: %s", i, got)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// The allocs/op gate, continued: a store's fetch of a 16-item piece renders
// the engine's tree through a view, without copying it. It measures 5.
func TestFetchAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine("s1")
	var b strings.Builder
	b.WriteString("<address-book>")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, `<item name="contact-%06d" type="personal"><phone>908-%03d-%04d</phone><note>synthetic entry %d for size sweeps</note></item>`, 4*i, i, 7*i, 4*i)
	}
	b.WriteString("</address-book>")
	if _, err := e.Put("u00000", mp("/user[@id='u00000']/address-book"), xmltree.MustParse(b.String())); err != nil {
		t.Fatal(err)
	}
	p := mp("/user[@id='u00000']/address-book/item[@type='personal']")
	xml, _, err := e.GetXML("u00000", p)
	if err != nil || len(xml) < 1800 {
		t.Fatalf("GetXML: %d bytes, %v", len(xml), err)
	}
	got := testing.AllocsPerRun(100, func() { _, _, _ = e.GetXML("u00000", p) })
	t.Logf("16-item fetch render (%d bytes): %.0f allocs", len(xml), got)
	if got > 12 {
		t.Errorf("16-item fetch render: %.0f allocs, ceiling 12", got)
	}
}
