package core_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gupster/internal/core"
	"gupster/internal/coverage"
	"gupster/internal/overload"
	"gupster/internal/policy"
	"gupster/internal/provenance"
	"gupster/internal/racetag"
	"gupster/internal/schema"
	"gupster/internal/store"
	"gupster/internal/token"
	"gupster/internal/wire"
	"gupster/internal/workload"
	"gupster/internal/xmltree"
	"gupster/internal/xpath"
)

// TestChainingMissAllocs is the chaining-miss row of the resolve path's
// allocation gate: an MDM as gupsterd ships it but with no cache, in front
// of four loopback stores holding the benchmark's 8 KiB book split four
// ways, so every chaining resolve fetches, merges and answers. The stores
// run in this process, so their share — four fetches served and rendered —
// is counted too. It measures 193; the ceiling is that plus 10 %. The MDM
// moves the replies as bytes (DESIGN.md §23): a tree parsed, merged and
// rendered there costs some 40 allocations more.
func TestChainingMissAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	signer := token.NewSigner([]byte("allocs-key"))
	m := core.New(core.Config{
		Schema:     schema.GUP(),
		Signer:     signer,
		GrantTTL:   30 * time.Second,
		Adjuncts:   schema.GUPAdjuncts(),
		Provenance: provenance.NewLedger(4096),
		Overload:   overload.Config{MaxConcurrency: 64},
	})
	defer m.Close()

	const owner = "u00000"
	bookPath := "/user[@id='" + owner + "']/address-book"
	kinds := []string{"personal", "corporate", "family", "service"}
	book := workload.AddressBookOfSize(8<<10, rand.New(rand.NewSource(1)))
	pieces := make([]*xmltree.Node, len(kinds))
	for j := range pieces {
		pieces[j] = xmltree.New("address-book")
	}
	for n, item := range book.Children {
		item.SetAttr("type", kinds[n%len(kinds)])
		pieces[n%len(kinds)].Add(item)
	}
	for j, piece := range pieces {
		eng := store.NewEngine("s" + kinds[j] + ".gup.example")
		eng.Schema = schema.GUP()
		srv := store.NewServer(eng, signer)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := eng.Put(owner, xpath.MustParse(bookPath), piece); err != nil {
			t.Fatal(err)
		}
		p := xpath.MustParse(bookPath + "/item[@type='" + kinds[j] + "']")
		if err := m.Register(coverage.StoreID(eng.ID()), srv.Addr(), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.PAP.PutRule(owner, policy.Rule{
		ID: "friends-book", Path: xpath.MustParse(bookPath),
		Cond: policy.RoleIs("friend"), Effect: policy.Permit,
	}); err != nil {
		t.Fatal(err)
	}
	req := &wire.ResolveRequest{
		Path:    bookPath,
		Context: policy.Context{Requester: "friend-1", Role: "friend", Purpose: policy.PurposeQuery},
		Verb:    token.VerbFetch,
		Pattern: wire.PatternChaining,
	}

	ctx := context.Background()
	resp, err := m.Resolve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(resp.Data, "<item "); got != len(book.Children) {
		t.Fatalf("chaining resolve answered %d items of %d", got, len(book.Children))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Resolve(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 212
	t.Logf("chaining miss: %.0f allocs/op", allocs)
	if allocs > ceiling {
		t.Errorf("chaining miss: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
}
