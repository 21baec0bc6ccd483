package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"testing"
	"time"

	"gupster/internal/trace"
)

// captureConn is a ServerConn's connection that keeps what is written.
type captureConn struct {
	net.Conn
	out bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

// replyBytes returns the bytes reply put on the wire.
func replyBytes(t testing.TB, reply func(*ServerConn) error) []byte {
	t.Helper()
	conn := &captureConn{}
	if err := reply(&ServerConn{conn: conn}); err != nil {
		t.Fatalf("reply: %v", err)
	}
	return conn.out.Bytes()
}

// errorReply returns the frame ReplyError(req, err) writes, nil when it
// writes none.
func errorReply(t testing.TB, req *Message, err error) *Message {
	t.Helper()
	b := replyBytes(t, func(c *ServerConn) error { return c.ReplyError(req, err) })
	if len(b) == 0 {
		return nil
	}
	m, rerr := ReadFrame(bytes.NewReader(b))
	if rerr != nil {
		t.Fatalf("reply unreadable: %v", rerr)
	}
	return m
}

// TestGoldenFrames pins frame version 1: every kind of reply is, byte for
// byte, the frame recorded when the binary frame replaced the JSON envelope
// (DESIGN.md §19). A change to these bytes is a change to the protocol and
// needs a new version byte, not a new recording. The first one, by hand:
// length 0x44 | version 01 | id 07 | budget 00 | 07 "resolve" | no error |
// no ext | 0x18 bytes of JSON without "data" | the component, as it is.
func TestGoldenFrames(t *testing.T) {
	req := &Message{Type: TypeResolve, ID: 7}
	traced := &Message{Type: TypeFetch, ID: 9}
	traced.SetSpanDrain(func() []trace.Span {
		return []trace.Span{{TraceID: "t1", SpanID: 5, Parent: 2, Hop: 1, Site: "store", Name: "store.fetch", Entry: true, Start: 1000, DurMicros: 42}}
	})
	members := []string{"10.0.0.2:7000", "10.0.0.3:7000"}
	mp := ShardMap{Version: 4, Epoch: 2, Shards: []ShardInfo{{ID: "s1", Addr: "10.0.0.1:7000"}, {ID: "s2", Addr: "10.0.0.2:7000", Members: members}}}
	replyErr := func(m *Message, err error) func(*ServerConn) error {
		return func(c *ServerConn) error { return c.ReplyError(m, err) }
	}
	cases := []struct {
		name  string
		reply func(*ServerConn) error
		want  string
	}{
		{"success", func(c *ServerConn) error {
			return c.Reply(req, ResolveResponse{Data: `<presence status="available"/>`, Cached: true, Hops: 1})
		},
			"00000044010700077265736f6c76650000187b22636163686564223a747275652c22686f7073223a317d3c70726573656e6365207374617475733d22617661696c61626c65222f3e"},
		{"success with spans", func(c *ServerConn) error {
			return c.Reply(traced, FetchResponse{XML: "<a/>", Version: 3})
		},
			"000000b70109000566657463680090017b227370616e73223a5b7b2274726163655f6964223a227431222c227370616e5f6964223a352c22706172656e74223a322c22686f70223a312c2273697465223a2273746f7265222c226e616d65223a2273746f72652e6665746368222c22656e747279223a747275652c2273746172745f756e69785f6e616e6f223a313030302c226475725f7573223a34327d5d7d167b22786d6c223a22222c2276657273696f6e223a337d3c612f3e"},
		{"plain error", replyErr(req, errors.New("gupster: access denied: /user[@id='alice']/wallet for bob")),
			"00000047010700077265736f6c766539677570737465723a206163636573732064656e6965643a202f757365725b4069643d27616c696365275d2f77616c6c657420666f7220626f620000"},
		{"overloaded", replyErr(req, &OverloadedError{Op: "ignored", RetryAfter: 750 * time.Millisecond, Reason: "admission queue full"}),
			"000000670107000a6f7665726c6f61646564206f7665726c6f616465643a2061646d697373696f6e2071756575652066756c6c00367b2272657472795f61667465725f6d73223a3735302c22726561736f6e223a2261646d697373696f6e2071756575652066756c6c227d"},
		{"overloaded, sub-millisecond hint", replyErr(req, &OverloadedError{RetryAfter: 500 * time.Microsecond}),
			"0000001f0107000a6f7665726c6f616465640c6f7665726c6f616465643a2000027b7d"},
		{"overloaded with spans", replyErr(traced, &OverloadedError{RetryAfter: 25 * time.Millisecond, Reason: "queue wait exceeded"}),
			"000000f50109000a6f7665726c6f616465641f6f7665726c6f616465643a207175657565207761697420657863656564656490017b227370616e73223a5b7b2274726163655f6964223a227431222c227370616e5f6964223a352c22706172656e74223a322c22686f70223a312c2273697465223a2273746f7265222c226e616d65223a2273746f72652e6665746368222c22656e747279223a747275652c2273746172745f756e69785f6e616e6f223a313030302c226475725f7573223a34327d5d7d347b2272657472795f61667465725f6d73223a32352c22726561736f6e223a2271756575652077616974206578636565646564227d"},
		{"not leader", replyErr(req, &NotLeaderError{Op: "ignored", LeaderAddr: "10.0.0.2:7000", LeaderID: "10.0.0.2:7000", Term: 9}),
			"000000790107000a6e6f742d6c6561646572246e6f74206c656164657220286c65616465722061742031302e302e302e323a373030302900447b226c65616465725f61646472223a2231302e302e302e323a37303030222c226c65616465725f6964223a2231302e302e302e323a37303030222c227465726d223a397d"},
		{"not leader, none known", replyErr(req, &NotLeaderError{Term: 3}),
			"000000370107000a6e6f742d6c65616465721c6e6f74206c656164657220286e6f206c6561646572206b6e6f776e29000a7b227465726d223a337d"},
		{"wrong shard", replyErr(req, &WrongShardError{Op: "ignored", Owner: "alice", ShardID: "s2", Addr: "10.0.0.2:7000", Members: members, Map: &mp}),
			"000001490107000b77726f6e672d73686172643777726f6e6720736861726420666f72206f776e657220616c696365202873686172642073322061742031302e302e302e323a373030302900ff017b226f776e6572223a22616c696365222c2273686172645f6964223a227332222c2261646472223a2231302e302e302e323a37303030222c226d656d62657273223a5b2231302e302e302e323a37303030222c2231302e302e302e333a37303030225d2c226d6170223a7b2276657273696f6e223a342c22736861726473223a5b7b226964223a227331222c2261646472223a2231302e302e302e313a37303030227d2c7b226964223a227332222c2261646472223a2231302e302e302e323a37303030222c226d656d62657273223a5b2231302e302e302e323a37303030222c2231302e302e302e333a37303030225d7d5d2c2265706f6368223a327d7d"},
		{"wrong shard, unroutable", replyErr(req, &WrongShardError{Owner: "alice"}),
			"000000580107000b77726f6e672d73686172643577726f6e6720736861726420666f72206f776e657220616c69636520286e6f20726f757461626c65207368617264206b6e6f776e2900117b226f776e6572223a22616c696365227d"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(replyBytes(t, tc.reply)); got != tc.want {
			t.Errorf("%s: frame differs from the recorded version-1 frame\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// legacyFrames are the JSON-envelope frames the commit before the binary
// frame (5ba03df) wrote for TestGoldenFrames' first three inputs.
var legacyFrames = []string{
	"000000707b2274797065223a227265736f6c7665222c226964223a372c227061796c6f6164223a7b2264617461223a225c753030336370726573656e6365207374617475733d5c22617661696c61626c655c222f5c7530303365222c22636163686564223a747275652c22686f7073223a317d7d",
	"000000d57b2274797065223a226665746368222c226964223a392c227061796c6f6164223a7b22786d6c223a225c7530303363612f5c7530303365222c2276657273696f6e223a337d2c227370616e73223a5b7b2274726163655f6964223a227431222c227370616e5f6964223a352c22706172656e74223a322c22686f70223a312c2273697465223a2273746f7265222c226e616d65223a2273746f72652e6665746368222c22656e747279223a747275652c2273746172745f756e69785f6e616e6f223a313030302c226475725f7573223a34327d5d7d",
	"0000005d7b2274797065223a227265736f6c7665222c226964223a372c226572726f72223a22677570737465723a206163636573732064656e6965643a202f757365725b4069643d27616c696365275d2f77616c6c657420666f7220626f62227d",
}
