// Package codec gives experiment cell results a stable, versioned
// binary representation — the contract that lets a result outlive the
// process that computed it. The on-disk result store (internal/store)
// and the grid-serving wire format (internal/wire) share these exact
// bytes: a cell persisted by a local run is byte-identical to the same
// cell streamed by the daemon.
//
// A frame is:
//
//	uvarint kind     — which registered result type this is
//	uvarint version  — that type's schema version at encode time
//	payload          — the type's own varint/float64-bits encoding
//
// Result types register themselves (kind, version, append func, decode
// func) at init time; see internal/grid's codec registrations. The
// registry is read without a lock, so registering after the first
// lookup panics. Decoding
// a frame whose kind is unknown fails with ErrUnknownKind, a version
// mismatch fails with ErrVersionSkew, and a malformed payload fails
// with ErrCorrupt — never a panic, never a partial value. Version skew
// is how persisted results self-invalidate: bump a type's registered
// version when its semantics change and every stored frame of the old
// version reads as a cache miss.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
)

// Kind identifies a registered result type inside a frame.
type Kind uint16

var (
	// ErrUnknownKind reports a frame whose kind has no registration.
	ErrUnknownKind = errors.New("codec: unknown kind")
	// ErrVersionSkew reports a frame encoded under a different schema
	// version of its kind.
	ErrVersionSkew = errors.New("codec: version skew")
	// ErrCorrupt reports a malformed or truncated frame.
	ErrCorrupt = errors.New("codec: corrupt frame")
	// ErrUnregistered reports an Encode of a value whose type has no
	// registration.
	ErrUnregistered = errors.New("codec: unregistered type")
)

// registration binds one kind to its type, version and functions.
type registration struct {
	kind    Kind
	version uint64
	name    string
	enc     func(*Enc, any)
	dec     func(*Dec) any
}

var (
	byKind    = map[Kind]*registration{}
	byType    = map[reflect.Type]*registration{}
	kindNames = map[string]Kind{}
	// looked is set by the first lookup; from then on the registry is
	// frozen, so lookups need no lock.
	looked atomic.Bool
)

// lookup returns v's registration, freezing the registry.
func lookup(v any) (*registration, bool) {
	freeze()
	r, ok := byType[reflect.TypeOf(v)]
	return r, ok
}

// freeze marks the registry as read: Register panics from now on.
func freeze() {
	if !looked.Load() {
		looked.Store(true)
	}
}

// Register binds kind to T with the given schema version. app must
// write every field T's result depends on; dec must read them back in
// the same order through the cursor (returning the zero T once the
// cursor has erred is fine — Decode surfaces the cursor error). name is
// a stable diagnostic label. Register panics on a duplicate kind, name
// or type, and once any Append, Decode or Registered has run:
// registrations are init-time wiring, not runtime input, and the
// registry is read without a lock.
func Register[T any](kind Kind, version uint64, name string, app func(*Enc, T), dec func(*Dec) T) {
	if looked.Load() {
		panic(fmt.Sprintf("codec: %q registered after the registry was first read", name))
	}
	t := reflect.TypeOf((*T)(nil)).Elem()
	if prev, ok := byKind[kind]; ok {
		panic(fmt.Sprintf("codec: kind %d already registered as %q", kind, prev.name))
	}
	if prev, ok := byType[t]; ok {
		panic(fmt.Sprintf("codec: type %v already registered as %q", t, prev.name))
	}
	if _, ok := kindNames[name]; ok {
		panic(fmt.Sprintf("codec: name %q already registered", name))
	}
	r := &registration{
		kind:    kind,
		version: version,
		name:    name,
		enc:     func(e *Enc, v any) { app(e, v.(T)) },
		dec:     func(d *Dec) any { return dec(d) },
	}
	byKind[kind] = r
	byType[t] = r
	kindNames[name] = kind
}

// Registered reports whether v's dynamic type has a registration, and
// under which kind.
func Registered(v any) (Kind, bool) {
	r, ok := lookup(v)
	if !ok {
		return 0, false
	}
	return r.kind, true
}

// Encode frames v under its registered kind and version.
func Encode(v any) ([]byte, error) {
	return Append(nil, v)
}

// Append frames v onto b.
func Append(b []byte, v any) ([]byte, error) {
	e := &Enc{b: b}
	if err := e.Append(v); err != nil {
		return nil, err
	}
	return e.b, nil
}

// Decode parses one frame occupying all of b and returns the value
// under its registered concrete type. Trailing bytes, short payloads
// and field-level garbage all fail with ErrCorrupt.
func Decode(b []byte) (any, error) {
	return new(Dec).Decode(b)
}

// Append frames v onto the bytes e holds, as the package's Append does
// onto b. A caller that frames many values holds one Enc and reuses
// its storage (see Reset); an unregistered v leaves e unchanged.
func (e *Enc) Append(v any) error {
	r, ok := lookup(v)
	if !ok {
		return fmt.Errorf("%w: %T", ErrUnregistered, v)
	}
	e.b = binary.AppendUvarint(e.b, uint64(r.kind))
	e.b = binary.AppendUvarint(e.b, r.version)
	r.enc(e, v)
	return nil
}

// Bytes returns the bytes e holds. They stay e's: the next Append or
// Reset may overwrite them.
func (e *Enc) Bytes() []byte { return e.b }

// Reset empties e and keeps its storage for the next frames.
func (e *Enc) Reset() { e.b = e.b[:0] }

// Decode parses one frame occupying all of b, as the package's Decode
// does, reusing d: a caller that decodes many frames holds one Dec. The
// value shares no bytes with b: strings and slices are copied out.
func (d *Dec) Decode(b []byte) (any, error) {
	*d = Dec{b: b}
	kind := d.U64()
	version := d.U64()
	if d.err != nil {
		return nil, fmt.Errorf("%w: frame header", ErrCorrupt)
	}
	if kind > math.MaxUint16 {
		// Reject before the Kind conversion: kind 65536+k must not
		// silently alias kind k.
		return nil, fmt.Errorf("%w: kind %d", ErrUnknownKind, kind)
	}
	freeze()
	r, ok := byKind[Kind(kind)]
	if !ok {
		return nil, fmt.Errorf("%w: kind %d", ErrUnknownKind, kind)
	}
	if version != r.version {
		return nil, fmt.Errorf("%w: %s is v%d, frame is v%d", ErrVersionSkew, r.name, r.version, version)
	}
	v := r.dec(d)
	if d.err != nil {
		return nil, fmt.Errorf("%w: %s payload: %v", ErrCorrupt, r.name, d.err)
	}
	if d.pos != len(d.b) {
		return nil, fmt.Errorf("%w: %s payload has %d trailing bytes", ErrCorrupt, r.name, len(d.b)-d.pos)
	}
	return v, nil
}

// Enc appends primitive fields to a frame payload.
type Enc struct {
	b []byte
}

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// I64 appends a signed (zig-zag) varint.
func (e *Enc) I64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Int appends an int as a signed varint.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// F64 appends a float64 as its 8 IEEE-754 bits, little-endian — exact
// round trip, no formatting loss.
func (e *Enc) F64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Dec reads primitive fields from a frame payload with a sticky error:
// after the first malformed field every further read returns zero
// values, so decoders can read unconditionally and check Err once.
type Dec struct {
	b   []byte
	pos int
	err error
}

// Fail marks the frame corrupt: a decoder calls it for a field that
// decodes but holds a value Append never writes.
func (d *Dec) Fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("bad %s at offset %d", what, d.pos)
	}
}

// padded reports whether the n-byte varint at the cursor has a longer
// encoding than its value needs. Enc writes only the shortest form, so
// a padded varint is corrupt: accepting one would let two byte strings
// decode to the same frame.
func (d *Dec) padded(n int) bool { return n > 1 && d.b[d.pos+n-1] == 0 }

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 || d.padded(n) {
		d.Fail("uvarint")
		return 0
	}
	d.pos += n
	return v
}

// I64 reads a signed varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 || d.padded(n) {
		d.Fail("varint")
		return 0
	}
	d.pos += n
	return v
}

// Int reads an int-sized signed varint.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads one byte; anything but 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.pos >= len(d.b) {
		d.Fail("bool")
		return false
	}
	v := d.b[d.pos]
	d.pos++
	if v > 1 {
		d.Fail("bool value")
		return false
	}
	return v == 1
}

// F64 reads 8 little-endian IEEE-754 bits.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.Fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.pos:]))
	d.pos += 8
	return v
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.pos) {
		d.Fail("string length")
		return ""
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }
