package token

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gupster/internal/xpath"
)

var key = []byte("shared-secret-for-tests")

func fixedClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func TestSignVerify(t *testing.T) {
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	s := NewSigner(key).WithClock(fixedClock(now))
	p := xpath.MustParse("/user[@id='alice']/presence")
	q := s.Sign("gup.spcs.com", "alice", p, VerbFetch, "bob", time.Minute)

	if err := s.Verify(&q, "gup.spcs.com", VerbFetch); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	got, err := q.ParsedPath()
	if err != nil || !xpath.Equivalent(got, p) {
		t.Errorf("ParsedPath = %v, %v", got, err)
	}
	if !q.Expiry().Equal(now.Add(time.Minute)) {
		t.Errorf("Expiry = %v", q.Expiry())
	}
}

func TestTamperDetection(t *testing.T) {
	now := time.Now()
	s := NewSigner(key).WithClock(fixedClock(now))
	p := xpath.MustParse("/user[@id='alice']/presence")
	base := s.Sign("store1", "alice", p, VerbFetch, "bob", time.Minute)

	mutations := []func(*SignedQuery){
		func(q *SignedQuery) { q.Owner = "mallory" },
		func(q *SignedQuery) { q.Path = "/user[@id='alice']/wallet" },
		func(q *SignedQuery) { q.Requester = "mallory" },
		func(q *SignedQuery) { q.TTL = int64(time.Hour * 24 * 365) },
		func(q *SignedQuery) { q.IssuedAt += 1 },
		func(q *SignedQuery) { q.Verb = VerbUpdate },
		func(q *SignedQuery) { q.Sig = strings.Repeat("0", len(q.Sig)) },
		// The right MAC in uppercase hex is not the signature Sign issues.
		func(q *SignedQuery) { q.Sig = strings.ToUpper(q.Sig) },
		// A prefix of the right signature, and the right one with a byte
		// more, are of the wrong length.
		func(q *SignedQuery) { q.Sig = q.Sig[:len(q.Sig)-2] },
		func(q *SignedQuery) { q.Sig += "0" },
	}
	for i, mutate := range mutations {
		q := base
		mutate(&q)
		verb := q.Verb
		if err := s.Verify(&q, q.Store, verb); !errors.Is(err, ErrBadSignature) {
			t.Errorf("mutation %d: err = %v, want ErrBadSignature", i, err)
		}
	}
}

func TestFieldAmbiguityResisted(t *testing.T) {
	// Moving bytes between adjacent fields must change the MAC
	// (length-prefixed canonical encoding).
	now := time.Now()
	s := NewSigner(key).WithClock(fixedClock(now))
	p := xpath.MustParse("/user")
	a := s.Sign("storeX", "ab", p, VerbFetch, "r", time.Minute)
	b := s.Sign("storeXa", "b", p, VerbFetch, "r", time.Minute)
	b.IssuedAt = a.IssuedAt
	b.Sig = ""
	// Recompute what b's sig would be with a's timestamp.
	b2 := s.Sign("storeXa", "b", p, VerbFetch, "r", time.Minute)
	if a.Sig == b2.Sig {
		t.Error("field boundary shift produced identical signatures")
	}
}

func TestWrongStoreAndVerb(t *testing.T) {
	s := NewSigner(key)
	p := xpath.MustParse("/user[@id='a']/presence")
	q := s.Sign("store1", "a", p, VerbFetch, "r", time.Minute)
	if err := s.Verify(&q, "store2", VerbFetch); !errors.Is(err, ErrWrongStore) {
		t.Errorf("err = %v", err)
	}
	if err := s.Verify(&q, "store1", VerbUpdate); !errors.Is(err, ErrWrongVerb) {
		t.Errorf("err = %v", err)
	}
}

func TestExpiry(t *testing.T) {
	issue := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	s := NewSigner(key).WithClock(fixedClock(issue))
	p := xpath.MustParse("/user[@id='a']/presence")
	q := s.Sign("store1", "a", p, VerbFetch, "r", time.Second)

	// Within TTL + skew: fine.
	late := NewSigner(key).WithClock(fixedClock(issue.Add(30 * time.Second)))
	if err := late.Verify(&q, "store1", VerbFetch); err != nil {
		t.Errorf("within skew: %v", err)
	}
	// Beyond TTL + skew: expired.
	tooLate := NewSigner(key).WithClock(fixedClock(issue.Add(2 * time.Minute)))
	if err := tooLate.Verify(&q, "store1", VerbFetch); !errors.Is(err, ErrExpired) {
		t.Errorf("err = %v, want ErrExpired", err)
	}
	// Issued in the future beyond skew: rejected.
	early := NewSigner(key).WithClock(fixedClock(issue.Add(-2 * time.Minute)))
	if err := early.Verify(&q, "store1", VerbFetch); !errors.Is(err, ErrNotYetValid) {
		t.Errorf("err = %v, want ErrNotYetValid", err)
	}
}

func TestDifferentKeysDisagree(t *testing.T) {
	s1 := NewSigner([]byte("key-one"))
	s2 := NewSigner([]byte("key-two"))
	p := xpath.MustParse("/user[@id='a']")
	q := s1.Sign("store1", "a", p, VerbFetch, "r", time.Minute)
	if err := s2.Verify(&q, "store1", VerbFetch); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-key verify: %v", err)
	}
}

func TestKeyIsCopied(t *testing.T) {
	k := []byte("mutable-key")
	s := NewSigner(k)
	p := xpath.MustParse("/user")
	q := s.Sign("st", "o", p, VerbFetch, "r", time.Minute)
	k[0] = 'X' // caller mutates its buffer
	if err := s.Verify(&q, "st", VerbFetch); err != nil {
		t.Errorf("signer shares caller's key buffer: %v", err)
	}
}

func TestFingerprintAndRedact(t *testing.T) {
	s := NewSigner(key)
	q := s.Sign("st", "alice", xpath.MustParse("/user[@id='alice']/wallet"), VerbUpdate, "alice", time.Minute)
	if len(q.Fingerprint()) != 12 {
		t.Errorf("Fingerprint = %q", q.Fingerprint())
	}
	r := q.Redact()
	if strings.Contains(r, q.Sig) {
		t.Error("Redact leaks signature")
	}
	for _, frag := range []string{"update", "alice", "/user[@id='alice']/wallet", "@st"} {
		if !strings.Contains(r, frag) {
			t.Errorf("Redact %q missing %q", r, frag)
		}
	}
	short := SignedQuery{Sig: "abc"}
	if short.Fingerprint() != "abc" {
		t.Error("short fingerprint")
	}
}
