package wire_test

import (
	"reflect"
	"strings"
	"testing"

	"gupster/internal/wire"
)

func TestParseShards(t *testing.T) {
	cases := []struct {
		in   string
		want []wire.ShardInfo
		err  string // substring of the error; "" means success
	}{
		{in: "", want: nil},
		{in: "s1=127.0.0.1:7000", want: []wire.ShardInfo{{ID: "s1", Addr: "127.0.0.1:7000"}}},
		{in: " s1=a:1 , s2=b:2 ,", want: []wire.ShardInfo{{ID: "s1", Addr: "a:1"}, {ID: "s2", Addr: "b:2"}}},
		{in: "s1=a:1|a:2|a:3,s2=b:1", want: []wire.ShardInfo{
			{ID: "s1", Addr: "a:1", Members: []string{"a:1", "a:2", "a:3"}},
			{ID: "s2", Addr: "b:1"},
		}},
		{in: "s1", err: `bad shard entry "s1"`},
		{in: "=a:1", err: `bad shard entry "=a:1"`},
		{in: "s1=", err: `bad shard entry "s1="`},
		{in: "s1=a:1||a:3", err: `bad shard entry "s1=a:1||a:3"`},
		{in: "s1=a:1|", err: `bad shard entry "s1=a:1|"`},
	}
	for _, tc := range cases {
		got, err := wire.ParseShards(tc.in)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ParseShards(%q) = %v, %v; want error %q", tc.in, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseShards(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}
