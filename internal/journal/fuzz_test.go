package journal

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScanWAL holds the log scanner to its contract on any bytes: it never
// panics, the good prefix it reports ends on a frame boundary inside the
// input, scanning that prefix alone reads the same head and records, and
// so does scanning the prefix followed by a torn frame built from tail.
func FuzzScanWAL(f *testing.F) {
	frameless, err := os.ReadFile(filepath.Join("testdata", "frameless", walName))
	if err != nil {
		f.Fatal(err)
	}
	framed, err := appendFrame(nil, walHead{Base: 7, Term: 2})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		r := randomRecord(rng, i)
		if framed, err = appendFrame(framed, &r); err != nil {
			f.Fatal(err)
		}
	}
	for _, log := range [][]byte{frameless, framed} {
		f.Add(log, []byte("garbage"))
		f.Add(log[:len(log)-3], []byte{})
		f.Add(log[:headerSize+1], log[headerSize:])
		f.Add(append(log[:len(log):len(log)], 0, 0, 1), []byte{})
	}

	f.Fuzz(func(t *testing.T, data, tail []byte) {
		head, records, good := scanWAL(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good = %d outside the %d-byte input", good, len(data))
		}
		pos := 0
		for pos < good {
			if pos+headerSize > good {
				t.Fatalf("good = %d ends inside the header at %d", good, pos)
			}
			pos += headerSize + int(binary.BigEndian.Uint32(data[pos:]))
		}
		if pos != good {
			t.Fatalf("good = %d is not a frame boundary (next one at %d)", good, pos)
		}

		same := func(what string, in []byte) {
			h, recs, g := scanWAL(in)
			if g != good || !reflect.DeepEqual(h, head) || !reflect.DeepEqual(recs, records) {
				t.Fatalf("%s: head %+v, %d records, good %d; want %+v, %d records, good %d",
					what, h, len(recs), g, head, len(records), good)
			}
		}
		prefix := data[:good:good]
		same("the good prefix", prefix)
		// A frame whose header claims one byte more than follows it is torn
		// whatever the bytes are.
		torn := binary.BigEndian.AppendUint32(prefix, uint32(len(tail)+1))
		torn = binary.BigEndian.AppendUint32(torn, 0)
		same("the good prefix and a torn frame", append(torn, tail...))
	})
}
