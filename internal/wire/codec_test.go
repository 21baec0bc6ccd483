package wire_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
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
