package core_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"gupster/internal/core"
	"gupster/internal/faultinject"
	"gupster/internal/wire"
	"gupster/internal/xmltree"
)

// One plan executor serves the client's referral pattern and the MDM's
// chaining and recruiting patterns. Each plan below runs through all
// three on a fresh rig and must produce the same canonical XML and the
// counter values the three separate implementations produced.
func TestPlanTableAcrossPatterns(t *testing.T) {
	const book = "/user[@id='u']/address-book"
	type counts struct{ fallbacks, fanOutCalls uint64 }
	type want struct {
		xml    string // "" means the operation fails
		errHas string
		// who executes the plan counts it: the client for referral, the MDM
		// for chaining and recruiting.
		referral, chaining, recruiting counts
	}
	cases := []struct {
		name  string
		build func(r *rig)
		want  want
	}{
		{
			name: "single full cover",
			build: func(r *rig) {
				r.addStore("a")
				r.register("a", book)
				r.seed("a", "u", book, `<address-book><item name="mom" type="personal"><phone>1</phone></item></address-book>`)
			},
			want: want{
				xml: `<user id="u"><address-book><item name="mom" type="personal"><phone>1</phone></item></address-book></user>`,
			},
		},
		{
			name: "3-way partial merge",
			build: func(r *rig) {
				for id, typ := range map[string]string{"a": "personal", "b": "corporate", "c": "family"} {
					r.addStore(id)
					r.register(id, book+"/item[@type='"+typ+"']")
					r.seed(id, "u", book, `<address-book><item name="`+id+`" type="`+typ+`"><phone>`+id+`</phone></item></address-book>`)
				}
			},
			want: want{
				xml: `<user id="u"><address-book>` +
					`<item name="a" type="personal"><phone>a</phone></item>` +
					`<item name="b" type="corporate"><phone>b</phone></item>` +
					`<item name="c" type="family"><phone>c</phone></item>` +
					`</address-book></user>`,
				referral: counts{fanOutCalls: 3},
				chaining: counts{fanOutCalls: 3},
				// The recruited store fans out, not the MDM.
			},
		},
		{
			name: "two alternatives, first store dead",
			build: func(r *rig) {
				for _, id := range []string{"a", "b"} {
					r.addStore(id)
					r.register(id, book)
					r.seed(id, "u", book, `<address-book><item name="rick" type="corporate"><phone>2</phone></item></address-book>`)
				}
				r.stores["a"].Close()
			},
			want: want{
				xml:      `<user id="u"><address-book><item name="rick" type="corporate"><phone>2</phone></item></address-book></user>`,
				referral: counts{fallbacks: 1},
				chaining: counts{fallbacks: 1},
				// Recruiting fell back without counting it until it moved onto
				// the shared executor; now it counts like the other two.
				recruiting: counts{fallbacks: 1},
			},
		},
		{
			name: "all stores dead",
			build: func(r *rig) {
				for _, id := range []string{"a", "b"} {
					r.addStore(id)
					r.register(id, book)
					r.stores[id].Close()
				}
			},
			want: want{errHas: "connection refused"},
		},
		{
			name:  "nothing covers",
			build: func(r *rig) { r.addStore("a") },
			want:  want{errHas: core.ErrNoCoverage.Error()},
		},
	}
	patterns := []struct {
		name string
		get  func(*core.Client) (*xmltree.Node, error)
		want func(want) counts
		got  func(*rig, *core.Client) counts
	}{
		{"referral",
			func(c *core.Client) (*xmltree.Node, error) { return c.Get(context.Background(), book) },
			func(w want) counts { return w.referral },
			func(_ *rig, c *core.Client) counts {
				return counts{c.Resilience.Stats.Fallbacks.Load(), c.Pipeline().FanOutCalls.Load()}
			}},
		{"chaining",
			func(c *core.Client) (*xmltree.Node, error) {
				return c.GetVia(context.Background(), book, wire.PatternChaining)
			},
			func(w want) counts { return w.chaining },
			func(r *rig, _ *core.Client) counts {
				return counts{r.mdm.Resilience().Stats.Fallbacks.Load(), r.mdm.Pipeline().FanOutCalls.Load()}
			}},
		{"recruiting",
			func(c *core.Client) (*xmltree.Node, error) {
				return c.GetVia(context.Background(), book, wire.PatternRecruiting)
			},
			func(w want) counts { return w.recruiting },
			func(r *rig, _ *core.Client) counts {
				return counts{r.mdm.Resilience().Stats.Fallbacks.Load(), r.mdm.Pipeline().FanOutCalls.Load()}
			}},
	}
	for _, tc := range cases {
		for _, p := range patterns {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				r := newRig(t, 0)
				tc.build(r)
				cli := r.client("u", "self")
				doc, err := p.get(cli)
				if tc.want.xml == "" {
					if err == nil || !strings.Contains(err.Error(), tc.want.errHas) {
						t.Fatalf("err = %v, want one naming %q", err, tc.want.errHas)
					}
				} else if err != nil {
					t.Fatal(err)
				} else if got := doc.String(); got != tc.want.xml {
					t.Fatalf("document\n got %s\nwant %s", got, tc.want.xml)
				}
				if got, want := p.got(r, cli), p.want(tc.want); got != want {
					t.Errorf("fallbacks/fan-out calls = %+v, want %+v", got, want)
				}
			})
		}
	}
}

// A recruited store keeps one connection to each sibling store, however
// many recruits pass through it; it used to dial and close one per sibling
// per request.
func TestRecruitReusesSiblingConnections(t *testing.T) {
	const book = "/user[@id='u']/address-book"
	r := newRig(t, 0)
	r.addStore("a")
	r.register("a", book+"/item[@type='personal']")
	r.seed("a", "u", book, `<address-book><item name="a" type="personal"><phone>1</phone></item></address-book>`)
	siblings := map[string]*faultinject.Proxy{}
	for id, typ := range map[string]string{"b": "corporate", "c": "family"} {
		p := r.addProxiedStore(id, 1)
		r.registerVia(id, p.Addr(), book+"/item[@type='"+typ+"']")
		r.seed(id, "u", book, `<address-book><item name="`+id+`" type="`+typ+`"><phone>2</phone></item></address-book>`)
		siblings[id] = p
	}
	const k = 6
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		cli := r.client("u", "self")
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc, err := cli.GetVia(context.Background(), book, wire.PatternRecruiting)
			if err != nil {
				t.Errorf("recruit: %v", err)
				return
			}
			if n := len(doc.Child("address-book").ChildrenNamed("item")); n != 3 {
				t.Errorf("recruit merged %d items, want 3", n)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < k; i++ { // and serially: concurrent recruits may have coalesced at the MDM
		if _, err := r.client("u", "self").GetVia(context.Background(), book, wire.PatternRecruiting); err != nil {
			t.Fatal(err)
		}
	}
	for id, p := range siblings {
		if n := p.Accepted.Load(); n != 1 {
			t.Errorf("sibling %s accepted %d connections over %d recruits, want 1", id, n, 2*k)
		}
	}
}
