package codec

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
)

// testResult exercises every primitive field type.
type testResult struct {
	A uint64
	B int64
	C float64
	D bool
	E string
	F int
}

// testResultV2 shares kind-space with nothing; used for skew tests.
type testResultV2 struct {
	A uint64
}

const (
	kindTest   Kind = 1000
	kindTestV2 Kind = 1001
)

func init() {
	Register(kindTest, 3, "codec-test", func(e *Enc, v testResult) {
		e.U64(v.A)
		e.I64(v.B)
		e.F64(v.C)
		e.Bool(v.D)
		e.Str(v.E)
		e.Int(v.F)
	}, func(d *Dec) testResult {
		return testResult{A: d.U64(), B: d.I64(), C: d.F64(), D: d.Bool(), E: d.Str(), F: d.Int()}
	})
	Register(kindTestV2, 7, "codec-test-v2", func(e *Enc, v testResultV2) {
		e.U64(v.A)
	}, func(d *Dec) testResultV2 {
		return testResultV2{A: d.U64()}
	})
}

func TestRoundTrip(t *testing.T) {
	want := testResult{A: 1 << 40, B: -17, C: 3.25, D: true, E: "swim", F: -4}
	b, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(testResult)
	if !ok {
		t.Fatalf("decoded %T, want testResult", v)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestGoldenFrame pins the frame layout: kind and version uvarints, then
// the payload fields in registration order. If this breaks, either bump
// the type's version or keep the bytes — silently changing them
// invalidates every persisted store.
func TestGoldenFrame(t *testing.T) {
	b, err := Encode(testResult{A: 5, B: -1, C: 1.5, D: true, E: "ab", F: 2})
	if err != nil {
		t.Fatal(err)
	}
	const golden = "e807030501000000000000f83f0102616204"
	if got := hex.EncodeToString(b); got != golden {
		t.Fatalf("golden frame changed:\n got  %s\n want %s", got, golden)
	}
}

func TestUnknownKind(t *testing.T) {
	b, err := Encode(testResult{})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the kind uvarint (0xe8 0x07 = 1000) to an unregistered 1002.
	b[0], b[1] = 0xea, 0x07
	if _, err := Decode(b); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

// TestOversizedKindDoesNotAlias: a frame carrying kind 65536+k must be
// rejected, not decoded as kind k.
func TestOversizedKindDoesNotAlias(t *testing.T) {
	b, err := Encode(testResultV2{A: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the frame with kind 1001 + 65536 and the same version and
	// payload bytes.
	aliased := binary.AppendUvarint(nil, uint64(kindTestV2)+1<<16)
	aliased = append(aliased, b[2:]...)
	if _, err := Decode(aliased); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

func TestVersionSkew(t *testing.T) {
	b, err := Encode(testResultV2{A: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Version byte follows the 2-byte kind uvarint.
	if b[2] != 7 {
		t.Fatalf("unexpected frame layout: %x", b)
	}
	b[2] = 6
	if _, err := Decode(b); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want ErrVersionSkew", err)
	}
}

func TestCorruptPayloads(t *testing.T) {
	b, err := Encode(testResult{A: 5, B: -1, C: 1.5, D: true, E: "ab", F: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"header only":   b[:3],
		"truncated":     b[:len(b)-3],
		"trailing":      append(append([]byte{}, b...), 0),
		"bad bool":      func() []byte { c := append([]byte{}, b...); c[13] = 9; return c }(),
		"string length": func() []byte { c := append([]byte{}, b...); c[14] = 0xFF; return c }(),
		// A = 5 written as 0x85 0x00: the value decodes, but Enc writes
		// only the shortest form.
		"padded varint": append(append(append([]byte{}, b[:3]...), 0x85, 0x00), b[4:]...),
	}
	for name, c := range cases {
		if _, err := Decode(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestEncodeUnregistered(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := Encode(unregistered{}); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("got %v, want ErrUnregistered", err)
	}
	if _, ok := Registered(unregistered{}); ok {
		t.Fatal("Registered reported true for an unregistered type")
	}
	if k, ok := Registered(testResult{}); !ok || k != kindTest {
		t.Fatalf("Registered(testResult) = %d, %v", k, ok)
	}
}

// FuzzDecode: no input may panic or return both a value and an error.
func FuzzDecode(f *testing.F) {
	seed, _ := Encode(testResult{A: 5, B: -1, C: 1.5, D: true, E: "ab", F: 2})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xe8, 0x07, 0x03})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := Decode(b)
		if err != nil && v != nil {
			t.Fatalf("Decode returned value %v alongside error %v", v, err)
		}
	})
}

// lateResult is registered only by TestRegisterAfterLookupPanics.
type lateResult struct{}

// TestRegisterAfterLookupPanics: lookups read the registry without a
// lock, so registering once it has been read must fail loudly and leave
// the registry as it was.
func TestRegisterAfterLookupPanics(t *testing.T) {
	if _, ok := Registered(testResult{}); !ok {
		t.Fatal("testResult is not registered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register after a lookup did not panic")
		}
		if _, ok := Registered(lateResult{}); ok {
			t.Fatal("the late registration took effect")
		}
	}()
	Register(1002, 1, "codec-late", func(*Enc, lateResult) {}, func(*Dec) lateResult { return lateResult{} })
}
