package wire

import (
	"bytes"
	"encoding/json"
	"testing"

	"gupster/internal/policy"
)

// viaJSON is s as encoding/json carries it: every byte that is not UTF-8
// becomes U+FFFD.
func viaJSON(s string) string {
	b, _ := json.Marshal(s)
	_ = json.Unmarshal(b, &s)
	return s
}

// FuzzBatchResolveFrame exercises the batch-resolve payload through the
// frame codec: a batch of requests must survive encode → decode with entry
// count, order, and per-entry fields intact, and arbitrary JSON fed to the
// batch decoder must never panic — a malformed entry surfaces as an
// unmarshal error or an empty entry, never as a corrupted neighbour (the
// positional partial-failure contract).
func FuzzBatchResolveFrame(f *testing.F) {
	f.Add(1, "/user[@id='u']/presence", "alice", "query", "")
	f.Add(3, "/user[@id='v']/calendar", "bob", "notification", "gupster: access denied")
	f.Add(0, "", "", "", "")
	f.Add(8, "/user/*", "mom ✗ éλ", "q", "resilience: circuit open")
	f.Add(64, "/user[@id='u']/address-book/item[@type='corporate']", "r", "query", "e")

	f.Fuzz(func(t *testing.T, n int, path, requester, purpose, errStr string) {
		if n < 0 {
			n = -n
		}
		n %= 128 // keep frames under MaxFrame
		req := BatchResolveRequest{}
		for i := 0; i < n; i++ {
			req.Requests = append(req.Requests, ResolveRequest{
				Path:    path,
				Context: policy.Context{Requester: requester, Purpose: policy.Purpose(purpose)},
			})
		}
		payload, err := json.Marshal(&req)
		if err != nil {
			t.Skip() // strings json cannot encode losslessly
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Message{Type: TypeBatchResolve, ID: 1, Payload: Payload{json: payload}}); err != nil {
			t.Skip()
		}
		m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame of a written batch frame: %v", err)
		}
		if m.Type != TypeBatchResolve {
			t.Fatalf("type %q after round trip", m.Type)
		}
		var got BatchResolveRequest
		if err := Unmarshal(m.Payload, &got); err != nil {
			t.Fatalf("decode batch payload: %v", err)
		}
		if len(got.Requests) != n {
			t.Fatalf("entry count %d after round trip, want %d", len(got.Requests), n)
		}
		// A batch's entries are plain JSON, and JSON rewrites bytes that are
		// not UTF-8 to U+FFFD: compare against what the encoder carries.
		for i, r := range got.Requests {
			want := req.Requests[i]
			if r.Path != viaJSON(want.Path) ||
				r.Context.Requester != viaJSON(want.Context.Requester) ||
				string(r.Context.Purpose) != viaJSON(string(want.Context.Purpose)) {
				t.Fatalf("entry %d mangled: got %+v want %+v", i, r, want)
			}
		}

		// The response direction: positional entries where success and error
		// alternate must keep their slots.
		resp := BatchResolveResponse{}
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				resp.Results = append(resp.Results, BatchResolveEntry{
					Response: &ResolveResponse{Data: path, Hops: i},
				})
			} else {
				resp.Results = append(resp.Results, BatchResolveEntry{Error: errStr})
			}
		}
		rp, err := json.Marshal(&resp)
		if err != nil {
			t.Skip()
		}
		var rbuf bytes.Buffer
		if err := WriteFrame(&rbuf, &Message{Type: TypeBatchResolve, ID: 2, Payload: Payload{json: rp}}); err != nil {
			t.Skip()
		}
		rm, err := ReadFrame(&rbuf)
		if err != nil {
			t.Fatalf("ReadFrame of batch response: %v", err)
		}
		var gotResp BatchResolveResponse
		if err := Unmarshal(rm.Payload, &gotResp); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
		if len(gotResp.Results) != n {
			t.Fatalf("result count %d, want %d", len(gotResp.Results), n)
		}
		for i, e := range gotResp.Results {
			if i%2 == 0 {
				if e.Response == nil {
					t.Fatalf("entry %d lost its response", i)
				}
			} else if e.Response != nil || e.Error != viaJSON(resp.Results[i].Error) {
				t.Fatalf("error entry %d mangled: %+v", i, e)
			}
		}
	})
}

// FuzzBatchResolveDecode feeds arbitrary bytes to the batch payload
// decoder: it must never panic, and whatever it accepts must re-encode to
// an equivalent batch.
func FuzzBatchResolveDecode(f *testing.F) {
	f.Add([]byte(`{"requests":[{"path":"/user"}]}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"requests":[{"path":"/user","context":{"requester":"r"}},null]}`))
	f.Add([]byte(`{"results":[{"response":{"pattern":"referral"}},{"error":"x"}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte{0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchResolveRequest
		if err := Unmarshal(Payload{json: data}, &req); err == nil {
			re, merr := json.Marshal(&req)
			if merr != nil {
				t.Fatalf("accepted batch request does not re-encode: %v", merr)
			}
			var again BatchResolveRequest
			if err := Unmarshal(Payload{json: re}, &again); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if len(again.Requests) != len(req.Requests) {
				t.Fatalf("entry count changed across re-encode: %d != %d", len(again.Requests), len(req.Requests))
			}
		}
		var resp BatchResolveResponse
		if err := Unmarshal(Payload{json: data}, &resp); err == nil {
			if _, merr := json.Marshal(&resp); merr != nil {
				t.Fatalf("accepted batch response does not re-encode: %v", merr)
			}
		}
	})
}
