package wire

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzWrongShardReply is the property test that TypeWrongShard replies are
// well-formed frames whatever the owner, shard and address: they round-trip
// through the framing, keep the correlation ID, carry a decodable payload,
// and always set Error so shard-unaware clients terminate cleanly.
func FuzzWrongShardReply(f *testing.F) {
	f.Add(uint64(1), "alice", "shard-b", "10.0.0.2:7000", uint64(3))
	f.Add(uint64(0), "", "", "", uint64(0))
	f.Add(uint64(1<<63), "owner with spaces", "s\x00", "addr\xff", uint64(1<<50))
	f.Add(uint64(42), "bob@example.com", "east-2", "[::1]:9", uint64(1))
	f.Fuzz(func(t *testing.T, id uint64, owner, shardID, addr string, version uint64) {
		req := &Message{Type: TypeResolve, ID: id}
		var mp *ShardMap
		if version != 0 {
			mp = &ShardMap{Version: version, Shards: []ShardInfo{{ID: shardID, Addr: addr}}}
		}
		reply := errorReply(t, req, &WrongShardError{Owner: owner, ShardID: shardID, Addr: addr, Map: mp})
		if id == 0 {
			if reply != nil {
				t.Fatalf("one-way frame answered: %+v", reply)
			}
			return
		}
		if reply.Type != TypeWrongShard {
			t.Fatalf("reply type %q, want %q", reply.Type, TypeWrongShard)
		}
		if reply.ID != id {
			t.Fatalf("reply ID %d, want %d (correlation broken)", reply.ID, id)
		}
		if reply.Error == "" {
			t.Fatal("wrong-shard reply without Error: old clients would treat it as success")
		}
		var p WrongShardError
		if err := Unmarshal(reply.Payload, &p); err != nil {
			t.Fatalf("wrong-shard payload undecodable: %v", err)
		}
		// Every field arrives as it was sent, strings byte for byte, and a
		// map in means a map out.
		if p.Owner != owner || p.ShardID != shardID || p.Addr != addr {
			t.Fatalf("redirect fields %q/%q/%q, want %q/%q/%q", p.Owner, p.ShardID, p.Addr, owner, shardID, addr)
		}
		if !reflect.DeepEqual(p.Map, mp) {
			t.Fatalf("map changed in flight: sent %+v, got %+v", mp, p.Map)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, reply); err != nil {
			t.Fatalf("re-frame: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil || again.Type != TypeWrongShard || again.ID != id {
			t.Fatalf("re-framed reply corrupt: %+v, %v", again, err)
		}
	})
}

// TestWrongShardErrorDecoding: a replied *WrongShardError surfaces client-side
// as a typed *WrongShardError carrying the redirect target and map, not as a
// RemoteError.
func TestWrongShardErrorDecoding(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", HandlerFunc(func(c *ServerConn, m *Message) {
		mp := &ShardMap{Version: 4, Shards: []ShardInfo{
			{ID: "a", Addr: "10.0.0.1:7000"},
			{ID: "b", Addr: "10.0.0.2:7000", Members: []string{"10.0.0.2:7000", "10.0.0.3:7000"}},
		}}
		_ = c.ReplyError(m, &WrongShardError{
			Owner: "alice", ShardID: "b", Addr: "10.0.0.2:7000",
			Members: []string{"10.0.0.2:7000", "10.0.0.3:7000"}, Map: mp,
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	err = cli.Call(context.Background(), TypeResolve, &ResolveRequest{Path: "/user[@id='alice']/presence"}, nil)
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("got %v (%T), want *WrongShardError", err, err)
	}
	if ws.Owner != "alice" || ws.ShardID != "b" || ws.Addr != "10.0.0.2:7000" {
		t.Fatalf("redirect fields = %q/%q/%q", ws.Owner, ws.ShardID, ws.Addr)
	}
	if len(ws.Members) != 2 {
		t.Fatalf("Members = %v, want both constellation members", ws.Members)
	}
	if ws.Map == nil || ws.Map.Version != 4 || len(ws.Map.Shards) != 2 {
		t.Fatalf("Map = %+v, want the full v4 map", ws.Map)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatal("wrong-shard reply also decoded as RemoteError")
	}
	if !strings.Contains(ws.Error(), "b") {
		t.Fatalf("error text %q names no shard", ws.Error())
	}
}
