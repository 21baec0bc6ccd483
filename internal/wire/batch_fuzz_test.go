package wire

import (
	"bytes"
	"testing"

	"gupster/internal/policy"
)

// FuzzBatchResolveFrame exercises the batch-resolve payload through the
// frame codec: a batch of requests must survive encode → decode with entry
// count, order, and per-entry fields intact — byte for byte, whatever the
// strings hold — and arbitrary bytes fed to the batch decoder must never
// panic — a malformed entry surfaces as an
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
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Message{Type: TypeBatchResolve, ID: 1, Payload: Marshal(&req)}); err != nil {
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
		for i, r := range got.Requests {
			want := req.Requests[i]
			if r.Path != want.Path || r.Context.Requester != want.Context.Requester || r.Context.Purpose != want.Context.Purpose {
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
		var rbuf bytes.Buffer
		if err := WriteFrame(&rbuf, &Message{Type: TypeBatchResolve, ID: 2, Payload: Marshal(&resp)}); err != nil {
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
			} else if e.Response != nil || e.Error != resp.Results[i].Error {
				t.Fatalf("error entry %d mangled: %+v", i, e)
			}
		}
	})
}

// FuzzBatchResolveDecode feeds arbitrary bytes to the batch payload
// decoder: it must never panic, and whatever it accepts must re-encode to
// the bytes it came from.
func FuzzBatchResolveDecode(f *testing.F) {
	one := fields(BatchResolveRequest{Requests: []ResolveRequest{{Path: "/user"}}})
	f.Add(one)
	f.Add(fields(BatchResolveRequest{}))
	f.Add(fields(BatchResolveRequest{Requests: []ResolveRequest{{Path: "/user", Context: policy.Context{Requester: "r"}}, {}}}))
	f.Add(fields(BatchResolveResponse{Results: []BatchResolveEntry{{Response: &ResolveResponse{Hops: 1}}, {Error: "x"}}}))
	f.Add(one[:3])   // cut short
	f.Add([]byte{0}) // no fields at all
	f.Add([]byte{0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchResolveRequest
		if err := Unmarshal(Payload{fields: data}, &req); err == nil {
			if re := fields(&req); !bytes.Equal(re, data) {
				t.Fatalf("accepted batch request re-encodes differently:\n in %x\nout %x", data, re)
			}
		}
		var resp BatchResolveResponse
		if err := Unmarshal(Payload{fields: data}, &resp); err == nil {
			if re := fields(&resp); !bytes.Equal(re, data) {
				t.Fatalf("accepted batch response re-encodes differently:\n in %x\nout %x", data, re)
			}
		}
	})
}
