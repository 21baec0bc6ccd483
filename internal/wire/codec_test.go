package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"gupster/internal/replication"
	"gupster/internal/wire"
)

// payloadTypes is every struct declared in proto.go and in
// replication/proto.go: the payloads and the types nested in them.
// TestPayloadTableIsComplete keeps the list honest against the source.
var payloadTypes = []any{
	new(wire.ShardInfo), new(wire.ShardMap), new(wire.ShardInstallRequest), new(wire.ShardInstallResponse),
	new(wire.ShardCoverageResponse), new(wire.GossipPing), new(wire.GossipAck), new(wire.GossipPingReq),
	new(wire.MemberHealth), new(wire.MembershipResponse), new(wire.ReplStatus), new(wire.ReplPeer),
	new(wire.HeartbeatRequest), new(wire.HeartbeatResponse), new(wire.LeaseInfo), new(wire.TraceRequest),
	new(wire.TraceResponse), new(wire.SlowRequest), new(wire.SlowResponse), new(wire.TraceReportRequest),
	new(wire.ProvenanceRequest), new(wire.ProvenanceRecord), new(wire.ProvenanceSummary), new(wire.ProvenanceResponse),
	new(wire.ChangedNotice), new(wire.ExecRequest), new(wire.ExecResponse), new(wire.ResolveRequest),
	new(wire.Referral), new(wire.Alternative), new(wire.ResolveResponse), new(wire.BatchResolveRequest),
	new(wire.BatchResolveEntry), new(wire.BatchResolveResponse), new(wire.FetchRequest), new(wire.FetchResponse),
	new(wire.UpdateRequest), new(wire.UpdateResponse), new(wire.RegisterRequest), new(wire.UnregisterRequest),
	new(wire.Empty), new(wire.SubscribeRequest), new(wire.Notification), new(wire.PutRuleRequest),
	new(wire.RulePayload), new(wire.DeleteRuleRequest),
	new(wire.SyncStartRequest), new(wire.SyncStartResponse), new(wire.SyncOp), new(wire.SyncDeltaRequest),
	new(wire.SyncDeltaResponse), new(wire.WhoHasRequest), new(wire.WhoHasResponse), new(wire.StatsResponse),

	new(replication.AppendRequest), new(replication.AppendResponse), new(replication.VoteRequest),
	new(replication.VoteResponse), new(replication.SnapshotChunk), new(replication.SnapshotResponse),
}

// structsDeclaredIn lists the struct types a Go file declares.
func structsDeclaredIn(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if _, isStruct := ts.Type.(*ast.StructType); isStruct {
				names = append(names, f.Name.Name+"."+ts.Name.Name)
			}
		}
		return true
	})
	return names
}

func TestPayloadTableIsComplete(t *testing.T) {
	declared := append(structsDeclaredIn(t, "proto.go"), structsDeclaredIn(t, "../replication/proto.go")...)
	var listed []string
	for _, v := range payloadTypes {
		listed = append(listed, reflect.TypeOf(v).Elem().String())
	}
	sort.Strings(declared)
	sort.Strings(listed)
	if !reflect.DeepEqual(declared, listed) {
		t.Errorf("payloadTypes is not the set of structs the two proto.go files declare\ndeclared %v\n  listed %v", declared, listed)
	}
}

// hostile is what a string field is filled with: the characters JSON
// escapes (and its HTML escaping rewrote), multi-byte runes, and a counter
// so that no two fields of a value hold the same string.
func hostile(n int) string {
	return fmt.Sprintf(`<a b="%d">&amp; 'q' \ ✓ é 日本</a>`, n)
}

// fill sets every field of v, recursively, to a distinct non-zero value.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(hostile(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(1_790_000_000+int64(*n), 0).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String() + " — teach the test about it")
	}
}

// Unmarshal(Marshal(v)) is what a plain encoding/json round trip of v is,
// for every payload type, filled and empty, by value and by pointer, and
// with only one string field set at a time — which for the five types with a
// bulk field is the bulk-only value, and the value with everything but the
// bulk. A bulk field that Marshal dropped, Unmarshal missed, or either
// carried to the wrong field shows as a difference.
func TestPayloadTypesRoundTripLikeJSON(t *testing.T) {
	check := func(name string, v reflect.Value) { // v is a *T
		t.Helper()
		viaJSON := reflect.New(v.Type().Elem())
		b, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		if err := json.Unmarshal(b, viaJSON.Interface()); err != nil {
			t.Fatalf("%s: json.Unmarshal: %v", name, err)
		}
		for form, in := range map[string]any{"pointer": v.Interface(), "value": v.Elem().Interface()} {
			viaWire := reflect.New(v.Type().Elem())
			if err := wire.Unmarshal(wire.Marshal(in), viaWire.Interface()); err != nil {
				t.Errorf("%s (%s): wire.Unmarshal: %v", name, form, err)
			} else if !reflect.DeepEqual(viaWire.Interface(), viaJSON.Interface()) {
				t.Errorf("%s (%s): wire round trip differs from encoding/json's\nwire %+v\njson %+v", name, form, viaWire.Elem(), viaJSON.Elem())
			}
		}
	}
	for _, proto := range payloadTypes {
		typ := reflect.TypeOf(proto).Elem()
		check(typ.String()+" zero", reflect.New(typ))
		full := reflect.New(typ)
		n := 0
		fill(full.Elem(), &n)
		check(typ.String()+" filled", full)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type.Kind() != reflect.String {
				continue
			}
			only := reflect.New(typ)
			only.Elem().Field(i).SetString(hostile(i))
			check(typ.String()+" with only "+typ.Field(i).Name, only)
			all := reflect.New(typ)
			all.Elem().Set(full.Elem())
			all.Elem().Field(i).SetString("")
			check(typ.String()+" without "+typ.Field(i).Name, all)
		}
	}
}

// The relay case: a Payload that is itself the value goes through Marshal
// and Unmarshal untouched, and a frame relayed that way decodes at the far
// end as if it had not been relayed.
func TestPayloadPassesThroughUntouched(t *testing.T) {
	in := wire.ResolveResponse{Data: hostile(1), Cached: true, Hops: 2, Degraded: []string{hostile(2)}}
	p := wire.Marshal(in)
	if again := wire.Marshal(p); !reflect.DeepEqual(again, p) {
		t.Errorf("Marshal rewrote a Payload: %+v → %+v", p, again)
	}
	var relayed wire.Payload
	if err := wire.Unmarshal(p, &relayed); err != nil || !reflect.DeepEqual(relayed, p) {
		t.Errorf("Unmarshal into a Payload: %+v → %+v, %v", p, relayed, err)
	}
	var out wire.ResolveResponse
	if err := wire.Unmarshal(wire.Marshal(relayed), &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Errorf("relayed payload decodes as %+v, %v; want %+v", out, err, in)
	}
	// An empty payload relays as an empty payload and still refuses to
	// decode into a value.
	var empty wire.Payload
	if err := wire.Unmarshal(wire.Payload{}, &empty); err != nil {
		t.Errorf("relaying an empty payload: %v", err)
	}
	if err := wire.Unmarshal(empty, new(wire.Empty)); err == nil {
		t.Error("an empty payload decoded into a value")
	}
	// Bulk bytes with nowhere to go are an error, not a silent drop.
	if err := wire.Unmarshal(p, new(wire.StatsResponse)); err == nil {
		t.Error("a bulk-carrying payload decoded into a type with no bulk field")
	}
}

// FuzzPayloadDecode feeds arbitrary bytes to the decoder of every payload
// type: it never panics, it refuses with ErrMalformedPayload, and what it
// accepts re-encodes to exactly the bytes it came from — the encoding is
// canonical, so no two byte strings decode to the same value.
func FuzzPayloadDecode(f *testing.F) {
	for i, proto := range payloadTypes {
		typ := reflect.TypeOf(proto).Elem()
		full := reflect.New(typ)
		n := 0
		fill(full.Elem(), &n)
		filled := wire.FieldsOf(wire.Marshal(full.Interface()))
		f.Add(uint8(i), wire.FieldsOf(wire.Marshal(reflect.New(typ).Interface())))
		f.Add(uint8(i), filled)
		f.Add(uint8(i), filled[:len(filled)/2])     // cut short
		f.Add(uint8(i), append(filled, 0))          // a trailing byte
		f.Add(uint8(i+1), filled)                   // another type's bytes
		f.Add(uint8(i), append([]byte{0x80}, 0x00)) // a varint that is not minimal
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		typ := reflect.TypeOf(payloadTypes[int(which)%len(payloadTypes)]).Elem()
		v := reflect.New(typ)
		if err := wire.Unmarshal(wire.PayloadOf(data), v.Interface()); err != nil {
			if len(data) > 0 && !errors.Is(err, wire.ErrMalformedPayload) {
				t.Fatalf("%s: refused with %v, want ErrMalformedPayload", typ, err)
			}
			return
		}
		if again := wire.FieldsOf(wire.Marshal(v.Interface())); !bytes.Equal(again, data) {
			t.Fatalf("%s: accepted bytes re-encode differently\n in %x\nout %x", typ, data, again)
		}
	})
}

// A hostile count costs the decoder no more than the bytes behind it can
// hold. StatsResponse is the largest payload struct: a 1 MiB payload that
// claims 2^20 of them is refused before anything is allocated for them,
// and one that claims as many as 1 MiB of minimal elements really holds
// allocates at most 16 × the frame — the ratio of a struct's size in
// memory to its smallest encoding, bounded for every type because each
// field encodes to at least one byte.
func TestHostileCountAllocatesLittle(t *testing.T) {
	const frame = 1 << 20
	zero := wire.FieldsOf(wire.Marshal(wire.StatsResponse{}))
	claim := func(n int, element []byte) []byte {
		b := binary.AppendUvarint(nil, uint64(n))
		for len(b)+len(element) <= frame {
			b = append(b, element...)
		}
		return append(b, make([]byte, frame-len(b))...)
	}
	allocated := func(payload []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wire.Unmarshal(wire.PayloadOf(payload), new([]wire.StatsResponse))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}

	got, err := allocated(claim(1<<20, zero))
	if !errors.Is(err, wire.ErrMalformedPayload) {
		t.Fatalf("2^20 elements in 1 MiB: err = %v, want ErrMalformedPayload", err)
	}
	if got > 64<<10 {
		t.Errorf("refusing 2^20 elements in 1 MiB allocated %d bytes, more than 64 KiB", got)
	}

	fits := (frame - 3) / len(zero)
	got, err = allocated(claim(fits, zero))
	if !errors.Is(err, wire.ErrMalformedPayload) { // the zero padding after the last element
		t.Fatalf("%d elements in 1 MiB: err = %v, want the padding refused", fits, err)
	}
	t.Logf("%d minimal %d-byte elements in 1 MiB allocated %d bytes, %.1f × the frame", fits, len(zero), got, float64(got)/frame)
	if got > 16*frame {
		t.Errorf("%d elements in 1 MiB allocated %d bytes, more than 16 × the frame", fits, got)
	}
}

// Codecs compile on first use, and first use may be concurrent: eight
// goroutines meet a type no other test encodes, at once.
func TestCodecConcurrentFirstUse(t *testing.T) {
	type firstUse struct {
		Name  string
		Hops  []int32
		When  *time.Time
		Inner struct{ OK bool }
	}
	when := time.Unix(1_790_000_000, 5).UTC()
	in := firstUse{Name: hostile(1), Hops: []int32{-1, 2}, When: &when}
	in.Inner.OK = true
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var out firstUse
			if err := wire.Unmarshal(wire.Marshal(&in), &out); err != nil || !reflect.DeepEqual(out, in) {
				t.Errorf("round trip: %+v, %v; want %+v", out, err, in)
			}
		}()
	}
	close(start)
	wg.Wait()
}
