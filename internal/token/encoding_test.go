package token

import (
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"gupster/internal/racetag"
	"gupster/internal/xpath"
)

var goldenNow = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

// TestSignatureGolden pins the signature bytes: the hex below was recorded
// with the fmt.Fprintf encoder (referenceMAC) over a fixed key and clock.
// Stores and the MDM are separate processes that share only the key, so a
// change to these bytes is a protocol change, not a refactor.
func TestSignatureGolden(t *testing.T) {
	s := NewSigner([]byte("golden-key")).WithClock(func() time.Time { return goldenNow })
	rows := []struct {
		store, owner, path string
		verb               Verb
		requester          string
		ttl                time.Duration
		signedPath, sig    string
	}{
		{"gup.spcs.com", "alice", "/user[@id='alice']/presence", VerbFetch, "bob", 30 * time.Second,
			"/user[@id='alice']/presence",
			"8f4ed21568a8327ad646a037bb1c193519fc84ec721e7e887251a22896c7ec80"},
		{"s0.gup.example", "u00000", "/user[@id='u00000']/address-book/item[@type='personal']", VerbFetch, "friend-1", 30 * time.Second,
			"/user[@id='u00000']/address-book/item[@type='personal']",
			"ba23229e612683e75750c1f7a0f2a43fd4f74879ea510d3951426c5f01f84f4c"},
		{"b.gup.vzw.example", "x", "/user[@id='x']/devices/device[@network='pstn'][@id]/@id", VerbUpdate, "", 0,
			"/user[@id='x']/devices/device[@id][@network='pstn']/@id",
			"ebc56fabad1c75fb40d6786c1361bcf8faf39465dc5a9948d37139a04d5872dd"},
		{"", "", "/a", VerbSubscribe, "a;b:c", -time.Nanosecond,
			"/a",
			"5207657c242e1ade2be8ff5703264d3e2bf08d0cedcc999fe415b692ba5906f0"},
		{"st-ü", "ñ", "/user[@id='ü']/*[@k='v w']", VerbFetch, "r", time.Hour,
			"/user[@id='ü']/*[@k='v w']",
			"ce2ebefd107811a84e85a82d56bd65adb5c211209bc569b3f1615a085654f0ab"},
	}
	for _, r := range rows {
		q := s.Sign(r.store, r.owner, xpath.MustParse(r.path), r.verb, r.requester, r.ttl)
		if q.Path != r.signedPath {
			t.Errorf("%s: signed path %q, want %q", r.path, q.Path, r.signedPath)
		}
		if q.Sig != r.sig {
			t.Errorf("%s: signature %s, want %s", r.path, q.Sig, r.sig)
		}
		if ref := referenceMAC([]byte("golden-key"), &q); ref != q.Sig {
			t.Errorf("%s: reference encoder gives %s, signer %s", r.path, ref, q.Sig)
		}
	}
}

// FuzzSignMatchesReference: for any key and any field bytes — separators,
// invalid UTF-8, negative or extreme integers — Sign produces exactly the
// reference encoder's signature, and Verify accepts it.
func FuzzSignMatchesReference(f *testing.F) {
	f.Add([]byte("k"), "s0.gup.example", "u00000", "/user[@id='u00000']/address-book", "fetch", "friend-1", goldenNow.UnixNano(), int64(30*time.Second))
	f.Add([]byte{}, "", "", "", "", "", int64(0), int64(0))
	f.Add([]byte("\x00\xff"), "a:b;", "3:abc;", "\xff\xfe", "update", "ü", int64(-1<<63), int64(1<<63-1))
	f.Fuzz(func(t *testing.T, key []byte, store, owner, path, verb, requester string, issued, ttl int64) {
		s := NewSigner(key).WithClock(func() time.Time { return time.Unix(0, issued) })
		// A one-step path renders as "/" + its name, whatever the name's
		// bytes, so the signed path is free-form too.
		q := s.Sign(store, owner, xpath.Path{Steps: []xpath.Step{{Name: path}}}, Verb(verb), requester, time.Duration(ttl))
		if want := referenceMAC(key, &q); q.Sig != want {
			t.Fatalf("signature %s, reference %s for %+v", q.Sig, want, q)
		}
		if err := s.Verify(&q, store, Verb(verb)); errors.Is(err, ErrBadSignature) {
			t.Fatalf("own signature refused: %+v", q)
		}
	})
}

// TestConcurrentSignersShareThePool: a signer and its WithClock copies draw
// MAC states from one pool; concurrent signs and verifies must neither race
// (run under -race) nor see each other's buffers.
func TestConcurrentSignersShareThePool(t *testing.T) {
	base := NewSigner(key)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		s := base
		if g%2 == 1 {
			at := goldenNow.Add(time.Duration(g) * time.Second)
			s = base.WithClock(func() time.Time { return at })
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				owner := strconv.Itoa(g*1000 + i)
				q := s.Sign("st", owner, xpath.MustParse("/user[@id='"+owner+"']/presence"), VerbFetch, "r", time.Minute)
				if want := referenceMAC(key, &q); q.Sig != want {
					t.Errorf("goroutine %d: signature %s, reference %s", g, q.Sig, want)
					return
				}
				if err := s.Verify(&q, "st", VerbFetch); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSignAllocs is the token row of the resolve path's allocation gate:
// the signed path and the hex signature are a Sign's only allocations, and
// a Verify that succeeds allocates nothing of its own.
func TestSignAllocs(t *testing.T) {
	if racetag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewSigner(key)
	p := xpath.MustParse("/user[@id='u00000']/address-book/item[@type='personal']")
	q := s.Sign("s0.gup.example", "u00000", p, VerbFetch, "friend-1", 30*time.Second)
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"sign", 6, func() { q = s.Sign("s0.gup.example", "u00000", p, VerbFetch, "friend-1", 30*time.Second) }},
		{"verify", 2, func() {
			if err := s.Verify(&q, "s0.gup.example", VerbFetch); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocs/op, ceiling %.0f", c.name, got, c.max)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	s := NewSigner(key)
	p := xpath.MustParse("/user[@id='u00000']/address-book/item[@type='personal']")
	b.ReportAllocs()
	for b.Loop() {
		s.Sign("s0.gup.example", "u00000", p, VerbFetch, "friend-1", 30*time.Second)
	}
}

func BenchmarkVerify(b *testing.B) {
	s := NewSigner(key)
	q := s.Sign("s0.gup.example", "u00000", xpath.MustParse("/user[@id='u00000']/address-book/item[@type='personal']"), VerbFetch, "friend-1", 30*time.Second)
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Verify(&q, "s0.gup.example", VerbFetch); err != nil {
			b.Fatal(err)
		}
	}
}
