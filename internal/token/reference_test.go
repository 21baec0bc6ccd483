package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// referenceMAC is the signature encoder as first written: a fresh HMAC and
// one fmt.Fprintf per field. It is kept only as the oracle the pooled
// encoder in token.go must match byte for byte.
func referenceMAC(key []byte, q *SignedQuery) string {
	h := hmac.New(sha256.New, key)
	for _, f := range []string{
		q.Store, q.Owner, q.Path, string(q.Verb), q.Requester,
		strconv.FormatInt(q.IssuedAt, 10), strconv.FormatInt(q.TTL, 10),
	} {
		fmt.Fprintf(h, "%d:%s;", len(f), f)
	}
	return hex.EncodeToString(h.Sum(nil))
}
