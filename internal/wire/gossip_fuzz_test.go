package wire

import (
	"bytes"
	"testing"
)

// FuzzGossipFrame drives the gossip payloads (ping, ack, ping-req,
// membership) through frame encode → decode → payload unmarshal: the
// round trip must preserve every field, and arbitrary payload bytes must
// never panic the decoders — gossip frames arrive from peers that may be
// mid-crash or partitioned mid-write.
func FuzzGossipFrame(f *testing.F) {
	f.Add("gossip-ping", "shard-1", "127.0.0.1:9", uint64(3), uint64(12), fields(GossipPing{}))
	f.Add("gossip-ping-req", "shard-2", "127.0.0.1:10", uint64(0), uint64(1), fields(GossipPingReq{FromID: "a"}))
	f.Add("membership", "spare-0", "", uint64(1<<40), uint64(0), fields(MembershipResponse{Members: []MemberHealth{{ID: "x", State: "alive"}}}))
	f.Add("gossip-ping", "", "", uint64(0), uint64(0), []byte{0xff, 0xfe})
	f.Fuzz(func(t *testing.T, msgType, id, addr string, epoch, version uint64, raw []byte) {
		// 1. A well-formed ping must survive the full frame round trip.
		ping := GossipPing{FromID: id, FromAddr: addr, MapEpoch: epoch, MapVersion: version}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Message{Type: msgType, ID: 1, Payload: Marshal(ping)}); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		m, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame of a written gossip frame: %v", err)
		}
		var got GossipPing
		if err := Unmarshal(m.Payload, &got); err != nil {
			t.Fatalf("unmarshal round-tripped ping: %v", err)
		}
		if got != ping {
			t.Fatalf("ping round trip mismatch:\n in: %+v\nout: %+v", ping, got)
		}

		// 2. An ack built from the same coordinates must round-trip too.
		ack := GossipAck{FromID: id, MapEpoch: epoch, MapVersion: version}
		var ack2 GossipAck
		if err := Unmarshal(Marshal(ack), &ack2); err != nil {
			t.Fatalf("ack round trip: %v", err)
		}
		if ack2 != ack {
			t.Fatalf("ack round trip mismatch: %+v vs %+v", ack2, ack)
		}

		// 3. Arbitrary bytes into every gossip decoder must fail cleanly or
		// produce a value, never panic.
		if len(raw) > 0 {
			var p GossipPing
			_ = Unmarshal(Payload{fields: raw}, &p)
			var a GossipAck
			_ = Unmarshal(Payload{fields: raw}, &a)
			var pr GossipPingReq
			_ = Unmarshal(Payload{fields: raw}, &pr)
			var mr MembershipResponse
			_ = Unmarshal(Payload{fields: raw}, &mr)
			var sm ShardMap
			_ = Unmarshal(Payload{fields: raw}, &sm)
		}
	})
}
