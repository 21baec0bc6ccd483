package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"
)

// The payload codec (DESIGN.md §19). A payload, and the frame's ext
// section, is one positional binary encoding of a Go value, compiled once
// per type:
//
//	struct       uvarint count of its fields, then each exported field in
//	             declaration order; fields tagged json:"-" are not fields
//	string       uvarint length, then the bytes ([]byte alike)
//	int*         zigzag varint
//	uint*        uvarint
//	bool         one byte, 0 or 1
//	float*       8 bytes, the float64's IEEE bits, little-endian
//	slice, map   uvarint count, then the elements (a map's key before its value)
//	pointer      a presence byte, 0 or 1, then the value when present
//	time.Time    uvarint length, then its MarshalBinary bytes
//
// Nothing names a field: a payload struct's field order is the protocol.
// Reordering, inserting, removing or retyping a field of any type that
// travels needs a new frame version byte. The leading field count makes
// every value at least one byte — an empty frame field stays "no
// payload" — and makes a payload sent to a route of another shape fail to
// decode rather than decode as something else.
//
// The top-level struct of a payload may tag one string field wire:"bulk":
// that field is left out of the positional bytes and travels as the
// frame's bulk (see Payload). Nested, the same struct encodes the field in
// place.

// ErrMalformedPayload is what every payload the decoder refuses wraps:
// truncated, trailing bytes, a bool or presence byte that is not 0 or 1,
// an integer that overflows its field, a varint that is not minimal, a
// field count other than the type's, or an element count that the bytes
// left could not hold.
var ErrMalformedPayload = errors.New("wire: malformed payload")

// codec is one type's compiled encoding.
type codec struct {
	enc func(b []byte, v reflect.Value) []byte
	dec func(d *decoder, v reflect.Value)
	// min is the fewest bytes any value of the type encodes to; a count
	// of n elements needs n × min bytes behind it.
	min int
}

// payloadCodec is a type's codec as a whole payload: its bulk field, if it
// declares one, is left out of the positional bytes.
type payloadCodec struct {
	*codec
	bulk int // the bulk field's index; -1 when the type has none
}

var (
	compileMu sync.Mutex
	codecs    sync.Map // reflect.Type → *codec
	payloads  sync.Map // reflect.Type → *payloadCodec
)

// payloadCodecFor returns t's payload codec, compiling it on first use.
func payloadCodecFor(t reflect.Type) (*payloadCodec, error) {
	if pc, ok := payloads.Load(t); ok {
		return pc.(*payloadCodec), nil
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	if pc, ok := payloads.Load(t); ok {
		return pc.(*payloadCodec), nil
	}
	pc := &payloadCodec{bulk: -1}
	var err error
	if t.Kind() == reflect.Struct {
		if pc.bulk, err = bulkField(t); err != nil {
			return nil, err
		}
	}
	if pc.bulk < 0 {
		pc.codec, err = compile(t)
	} else {
		pc.codec, err = compileStruct(t, pc.bulk)
	}
	if err != nil {
		return nil, err
	}
	payloads.Store(t, pc)
	return pc, nil
}

// bulkField finds the field tagged wire:"bulk", -1 when there is none.
func bulkField(t reflect.Type) (int, error) {
	bulk := -1
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("wire") != "bulk" {
			continue
		}
		if bulk >= 0 || f.Type.Kind() != reflect.String || !encoded(f) {
			return -1, fmt.Errorf("wire: %s: one exported string field may be the bulk, not %s", t, f.Name)
		}
		bulk = i
	}
	return bulk, nil
}

// encoded reports whether a struct field travels.
func encoded(f reflect.StructField) bool {
	return f.IsExported() && f.Tag.Get("json") != "-"
}

// compile builds t's codec; the caller holds compileMu. No payload type
// contains itself, so neither compiling one nor decoding it recurses deeper
// than its declaration.
func compile(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	var c *codec
	var err error
	switch t.Kind() {
	case reflect.Bool:
		c = &codec{enc: encBool, dec: decBool, min: 1}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c = &codec{enc: encInt, dec: decInt, min: 1}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c = &codec{enc: encUint, dec: decUint, min: 1}
	case reflect.Float32, reflect.Float64:
		c = &codec{enc: encFloat, dec: decFloat, min: 8}
	case reflect.String:
		c = &codec{enc: encString, dec: decString, min: 1}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			c = &codec{enc: encBytes, dec: decBytes, min: 1}
		} else {
			c, err = compileSlice(t)
		}
	case reflect.Map:
		c, err = compileMap(t)
	case reflect.Pointer:
		c, err = compilePointer(t)
	case reflect.Struct:
		if t == timeType {
			c = &codec{enc: encTime, dec: decTime, min: 1 + timeBinaryLen}
		} else {
			c, err = compileStruct(t, -1)
		}
	default:
		err = fmt.Errorf("wire: cannot encode %s (kind %s)", t, t.Kind())
	}
	if err != nil {
		return nil, err
	}
	codecs.Store(t, c)
	return c, nil
}

func compileSlice(t reflect.Type) (*codec, error) {
	elem, err := compile(t.Elem())
	if err != nil {
		return nil, err
	}
	return &codec{min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			n := d.count(elem.min)
			if n == 0 {
				v.SetZero()
				return
			}
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		},
	}, nil
}

// compileMap encodes a map's entries in iteration order, so a map's bytes
// are not canonical; no payload type has one.
func compileMap(t reflect.Type) (*codec, error) {
	key, err := compile(t.Key())
	if err != nil {
		return nil, err
	}
	val, err := compile(t.Elem())
	if err != nil {
		return nil, err
	}
	return &codec{min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			b = binary.AppendUvarint(b, uint64(v.Len()))
			for it := v.MapRange(); it.Next(); {
				b = key.enc(b, it.Key())
				b = val.enc(b, it.Value())
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			n := d.count(key.min + val.min)
			if n == 0 {
				v.SetZero()
				return
			}
			m := reflect.MakeMapWithSize(v.Type(), n)
			for i := 0; i < n; i++ {
				k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
				key.dec(d, k)
				val.dec(d, e)
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		},
	}, nil
}

func compilePointer(t reflect.Type) (*codec, error) {
	elem, err := compile(t.Elem())
	if err != nil {
		return nil, err
	}
	return &codec{min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return elem.enc(append(b, 1), v.Elem())
		},
		dec: func(d *decoder, v reflect.Value) {
			if !d.flag("presence byte") {
				v.SetZero()
				return
			}
			p := reflect.New(t.Elem())
			elem.dec(d, p.Elem())
			v.Set(p)
		},
	}, nil
}

// compileStruct encodes t's fields but skip (-1 for none).
func compileStruct(t reflect.Type, skip int) (*codec, error) {
	type field struct {
		index int
		c     *codec
	}
	var fields []field
	min := 1
	for i := 0; i < t.NumField(); i++ {
		if i == skip || !encoded(t.Field(i)) {
			continue
		}
		c, err := compile(t.Field(i).Type)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s.%s)", err, t, t.Field(i).Name)
		}
		fields = append(fields, field{i, c})
		min += c.min
	}
	count := uint64(len(fields))
	return &codec{min: min,
		enc: func(b []byte, v reflect.Value) []byte {
			b = binary.AppendUvarint(b, count)
			for _, f := range fields {
				b = f.c.enc(b, v.Field(f.index))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) {
			if n := d.uvarint(); n != count && d.bad == "" {
				d.fail(fmt.Sprintf("%d fields where %s has %d", n, t, count))
			}
			for _, f := range fields {
				f.c.dec(d, v.Field(f.index))
			}
		},
	}, nil
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func decBool(d *decoder, v reflect.Value) { v.SetBool(d.flag("bool")) }

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func decInt(d *decoder, v reflect.Value) {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if v.OverflowInt(x) {
		d.fail(fmt.Sprintf("%d overflows %s", x, v.Type()))
		return
	}
	v.SetInt(x)
}

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func decUint(d *decoder, v reflect.Value) {
	x := d.uvarint()
	if v.OverflowUint(x) {
		d.fail(fmt.Sprintf("%d overflows %s", x, v.Type()))
		return
	}
	v.SetUint(x)
}

func encFloat(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func decFloat(d *decoder, v reflect.Value) {
	bits := binary.LittleEndian.Uint64(d.take(8, "float"))
	f := math.Float64frombits(bits)
	if v.Kind() == reflect.Float32 && math.Float64bits(float64(float32(f))) != bits {
		d.fail(fmt.Sprintf("%v overflows float32", f))
		return
	}
	v.SetFloat(f)
}

func encString(b []byte, v reflect.Value) []byte { return appendField(b, v.String()) }

// decString copies: a decoded string may be kept long after its frame (the
// coverage registry keeps a register frame's path for good). A string equal
// to one of the last few decoded from the same payload shares that copy —
// a span's trace ID and site, a referral's owner and requester repeat.
func decString(d *decoder, v reflect.Value) {
	b := d.take(d.count(1), "string")
	for _, s := range d.recent {
		if s == string(b) {
			v.SetString(s)
			return
		}
	}
	s := string(b)
	d.recent[d.next%len(d.recent)] = s
	d.next++
	v.SetString(s)
}

func encBytes(b []byte, v reflect.Value) []byte { return appendField(b, v.Bytes()) }

func decBytes(d *decoder, v reflect.Value) {
	s := d.take(d.count(1), "bytes")
	if len(s) == 0 {
		v.SetZero()
		return
	}
	v.SetBytes(append([]byte(nil), s...))
}

var timeType = reflect.TypeFor[time.Time]()

// timeBinaryLen is the length of the shortest MarshalBinary encoding.
const timeBinaryLen = 15

func timeOf(v reflect.Value) *time.Time {
	if v.CanAddr() {
		return v.Addr().Interface().(*time.Time)
	}
	t := v.Interface().(time.Time)
	return &t
}

func encTime(b []byte, v reflect.Value) []byte {
	t := timeOf(v)
	at := len(b)
	out, err := t.AppendBinary(append(b, 0))
	if err != nil { // an offset of seconds, which the binary form cannot hold: keep the instant
		out, _ = t.UTC().AppendBinary(append(b, 0))
	}
	out[at] = byte(len(out) - at - 1)
	return out
}

// decTime refuses a time whose bytes MarshalBinary would not write back,
// so that every accepted payload re-encodes to itself.
func decTime(d *decoder, v reflect.Value) {
	raw := d.take(d.count(1), "time")
	if d.bad != "" {
		return
	}
	t := timeOf(v)
	var again [2 * timeBinaryLen]byte
	if err := t.UnmarshalBinary(raw); err != nil {
		d.fail(err.Error())
	} else if back, _ := t.AppendBinary(again[:0]); string(back) != string(raw) {
		d.fail("time not in its MarshalBinary form")
	}
}

// decoder consumes a payload. The first fault sets bad and empties rest,
// so everything after it decodes as zero values and nothing is allocated
// on the strength of bytes that are not there.
type decoder struct {
	rest []byte
	bad  string
	// recent holds the last strings decoded, for decString to share.
	recent [4]string
	next   int
}

func (d *decoder) fail(why string) {
	if d.bad == "" {
		d.bad = why
	}
	d.rest = nil
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.rest)
	switch {
	case n == 0:
		d.fail("truncated")
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.rest[n-1] == 0:
		d.fail("varint not minimal")
		return 0
	}
	d.rest = d.rest[n:]
	return x
}

// count reads an element count and refuses one the bytes left cannot
// hold at min bytes an element.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.rest)/min) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.rest)))
		return 0
	}
	return int(n)
}

// take returns the next n bytes. Past the end it fails and returns zeros;
// n is then at most 8, as every longer take is of a count that was checked.
func (d *decoder) take(n int, what string) []byte {
	if n > len(d.rest) {
		d.fail("truncated " + what)
		return make([]byte, n)
	}
	b := d.rest[:n:n]
	d.rest = d.rest[n:]
	return b
}

// flag reads a bool or a presence byte.
func (d *decoder) flag(what string) bool {
	switch b := d.take(1, what)[0]; {
	case d.bad != "":
		return false
	case b > 1:
		d.fail(fmt.Sprintf("%s 0x%02x", what, b))
		return false
	default:
		return b == 1
	}
}

// decodeValue decodes a whole payload's positional bytes into v.
func decodeValue(c *codec, b []byte, v reflect.Value) error {
	d := decoder{rest: b}
	c.dec(&d, v)
	switch {
	case d.bad != "":
		return fmt.Errorf("%w: %s: %s", ErrMalformedPayload, v.Type(), d.bad)
	case len(d.rest) > 0:
		return fmt.Errorf("%w: %s: %d trailing bytes", ErrMalformedPayload, v.Type(), len(d.rest))
	}
	return nil
}
