// Package token implements GUPster's signed-query mechanism (paper §5.3,
// "Security and access control"): when the MDM grants a request it rewrites
// the query, timestamps it, and signs it; data stores accept only queries
// carrying a valid, fresh MDM signature. This keeps access-control decisions
// at the single point of entry while letting data flow store→client
// directly.
//
// Signatures are HMAC-SHA256 over a canonical encoding of the query fields.
// The MDM and its stores share the key out of band (in a real deployment,
// per-store keys or public-key signatures; the data-management behaviour is
// identical).
package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"
	"time"

	"gupster/internal/xpath"
)

// Verb says what the signed query may do at the store.
type Verb string

// Verbs a signed query can carry.
const (
	VerbFetch     Verb = "fetch"
	VerbUpdate    Verb = "update"
	VerbSubscribe Verb = "subscribe"
)

// SignedQuery is a query rewritten and authorized by the MDM. It is the
// referral unit handed back to clients.
type SignedQuery struct {
	// Store is the data store the query is addressed to.
	Store string `json:"store"`
	// Owner is the profile owner the query concerns.
	Owner string `json:"owner"`
	// Path is the (possibly narrowed) granted path.
	Path string `json:"path"`
	// Verb is the permitted operation.
	Verb Verb `json:"verb"`
	// Requester is the principal the grant was issued to.
	Requester string `json:"requester"`
	// IssuedAt is the grant's timestamp (Unix nanoseconds).
	IssuedAt int64 `json:"issued_at"`
	// TTL is the grant's validity window in nanoseconds.
	TTL int64 `json:"ttl"`
	// Sig is the hex-encoded HMAC.
	Sig string `json:"sig"`
}

// ParsedPath parses the granted path.
func (q *SignedQuery) ParsedPath() (xpath.Path, error) {
	return xpath.Parse(q.Path)
}

// Expiry returns the instant the grant lapses.
func (q *SignedQuery) Expiry() time.Time {
	return time.Unix(0, q.IssuedAt).Add(time.Duration(q.TTL))
}

// Verification failures.
var (
	ErrBadSignature = errors.New("token: bad signature")
	ErrExpired      = errors.New("token: grant expired")
	ErrNotYetValid  = errors.New("token: grant issued in the future")
	ErrWrongStore   = errors.New("token: grant addressed to a different store")
	ErrWrongVerb    = errors.New("token: verb not granted")
)

// Signer issues and verifies signed queries. The zero value is unusable;
// construct with NewSigner. Safe for concurrent use (all state is
// read-only after construction, and the MAC states come from a pool).
type Signer struct {
	// macs pools keyed HMAC states with their scratch buffers; copies made
	// by WithClock share it, as they share the key it was built over.
	macs *sync.Pool
	// MaxSkew tolerates clock skew between MDM and stores when checking
	// IssuedAt; default one minute.
	MaxSkew time.Duration
	// now is injectable for tests.
	now func() time.Time
}

// macState is one pooled HMAC with room for the canonical encoding it
// hashes and the hex signature it produces.
type macState struct {
	h   hash.Hash
	msg []byte
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

// maxPooledMsg bounds the encoding buffer a pooled state keeps: a query
// with an outsized path is encoded once, not pinned for the process's life.
const maxPooledMsg = 4 << 10

// NewSigner returns a signer over the shared key.
func NewSigner(key []byte) *Signer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Signer{
		macs: &sync.Pool{New: func() any {
			return &macState{h: hmac.New(sha256.New, k), msg: make([]byte, 0, 256)}
		}},
		MaxSkew: time.Minute,
		now:     time.Now,
	}
}

// WithClock returns a copy of the signer using the given clock; for tests
// and simulations.
func (s *Signer) WithClock(now func() time.Time) *Signer {
	cp := *s
	cp.now = now
	return &cp
}

// Sign issues a grant for requester to perform verb on owner's data at path,
// held at store, valid for ttl.
func (s *Signer) Sign(store, owner string, path xpath.Path, verb Verb, requester string, ttl time.Duration) SignedQuery {
	q := SignedQuery{
		Store:     store,
		Owner:     owner,
		Path:      path.String(),
		Verb:      verb,
		Requester: requester,
		IssuedAt:  s.now().UnixNano(),
		TTL:       int64(ttl),
	}
	st := s.macs.Get().(*macState)
	q.Sig = string(st.mac(&q))
	s.release(st)
	return q
}

// Verify checks the signature, freshness and addressing of a grant as a
// data store would: the store name must match its own identity and the verb
// must equal the operation being attempted. The signature is compared in
// constant time against the lowercase hex Sign produces, so a store leaks
// no timing about how much of a forged signature was right.
func (s *Signer) Verify(q *SignedQuery, atStore string, verb Verb) error {
	st := s.macs.Get().(*macState)
	want := st.mac(q)
	// The encoding has been hashed; its buffer carries the presented
	// signature into the compare without a conversion's allocation.
	st.msg = append(st.msg[:0], q.Sig...)
	ok := subtle.ConstantTimeCompare(want, st.msg) == 1
	s.release(st)
	if !ok {
		return ErrBadSignature
	}
	if q.Store != atStore {
		return fmt.Errorf("%w: grant for %q presented at %q", ErrWrongStore, q.Store, atStore)
	}
	if q.Verb != verb {
		return fmt.Errorf("%w: grant allows %q, attempted %q", ErrWrongVerb, q.Verb, verb)
	}
	now := s.now()
	issued := time.Unix(0, q.IssuedAt)
	if issued.After(now.Add(s.MaxSkew)) {
		return ErrNotYetValid
	}
	if now.After(q.Expiry().Add(s.MaxSkew)) {
		return ErrExpired
	}
	return nil
}

func (s *Signer) release(st *macState) {
	if cap(st.msg) > maxPooledMsg {
		st.msg = make([]byte, 0, 256)
	}
	s.macs.Put(st)
}

// mac returns the hex HMAC of q's canonical encoding: every field as
// "<decimal length>:<bytes>;", in the order Store, Owner, Path, Verb,
// Requester, IssuedAt, TTL, the two integers in decimal — length-prefixed to
// prevent ambiguity. The result aliases st and is valid until st is reused.
func (st *macState) mac(q *SignedQuery) []byte {
	b := st.msg[:0]
	for _, f := range [...]string{q.Store, q.Owner, q.Path, string(q.Verb), q.Requester} {
		b = strconv.AppendInt(b, int64(len(f)), 10)
		b = append(b, ':')
		b = append(b, f...)
		b = append(b, ';')
	}
	for _, n := range [...]int64{q.IssuedAt, q.TTL} {
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], n, 10)
		b = strconv.AppendInt(b, int64(len(d)), 10)
		b = append(b, ':')
		b = append(b, d...)
		b = append(b, ';')
	}
	st.msg = b
	st.h.Reset()
	st.h.Write(b)
	hex.Encode(st.hex[:], st.h.Sum(st.sum[:0]))
	return st.hex[:]
}

// Fingerprint returns a short stable identifier of a grant for logging.
func (q *SignedQuery) Fingerprint() string {
	if len(q.Sig) >= 12 {
		return q.Sig[:12]
	}
	return q.Sig
}

// Redact returns a loggable one-line description without the signature.
func (q *SignedQuery) Redact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s for %s @%s ttl=%s",
		q.Verb, q.Owner, q.Path, q.Requester, q.Store, time.Duration(q.TTL))
	return b.String()
}
