package wire

import (
	"bytes"
	"reflect"
	"testing"

	"dynloop/internal/spec"
)

// TestDecodedValuesDoNotAlias pins what lets a reader reuse its payload
// buffer once DecodeCells returns: decoded values share no bytes with
// the payload. It decodes a payload holding one frame of every
// registered kind, overwrites the payload, and requires every value to
// equal a fresh decode of an untouched copy.
func TestDecodedValuesDoNotAlias(t *testing.T) {
	payload, err := AppendCells(nil, sampleValues())
	if err != nil {
		t.Fatal(err)
	}
	untouched := bytes.Clone(payload)
	got, err := DecodeCells(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xFF
	}
	want, err := DecodeCells(untouched)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("value %d (%T) changed with its payload:\n got  %+v\n want %+v", i, want[i], got[i], want[i])
		}
	}
}

// metricsValues is a payload-shaped value list of n spec.Metrics, the
// value type of the spec grids (fig6 has 72 cells).
func metricsValues(n int) []any {
	values := make([]any, n)
	for i := range values {
		values[i] = spec.Metrics{Instrs: uint64(1000 + i), Cycles: uint64(500 + i), SpecEvents: uint64(i)}
	}
	return values
}

// TestAppendCellsAllocs pins the encoder's buffer use: frames go into
// pooled storage, and the payload is sized before it is written, so
// appending into a buffer with room allocates nothing and appending to
// nil allocates the payload slice alone.
func TestAppendCellsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled frame storage at random")
	}
	for _, values := range [][]any{sampleValues(), metricsValues(72)} {
		b, err := AppendCells(nil, values) // warms the pool
		if err != nil {
			t.Fatal(err)
		}
		if cap(b) != len(b) {
			t.Errorf("%d values: AppendCells(nil) returned cap %d for a %d-byte payload, want it exact", len(values), cap(b), len(b))
		}
		room := make([]byte, 0, len(b))
		if n := testing.AllocsPerRun(100, func() { AppendCells(room[:0], values) }); n != 0 {
			t.Errorf("%d values: AppendCells into a buffer with room allocates %v objects, want 0", len(values), n)
		}
		if n := testing.AllocsPerRun(100, func() { AppendCells(nil, values) }); n != 1 {
			t.Errorf("%d values: AppendCells(nil) allocates %v objects, want 1", len(values), n)
		}
	}
}

// decodeCellsConst is what DecodeCells allocates besides its values:
// the value slice and the one reused codec.Dec.
const decodeCellsConst = 2

// TestDecodeCellsAllocs pins the decoder at one object per value (the
// value's box; spec.Metrics holds no string or slice) plus a constant:
// one codec.Dec serves every frame.
func TestDecodeCellsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's allocations are not what production sees")
	}
	for _, n := range []int{18, 72} {
		payload, err := AppendCells(nil, metricsValues(n))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeCells(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(n+decodeCellsConst) {
			t.Errorf("DecodeCells of %d values allocates %v objects, want at most %d", n, allocs, n+decodeCellsConst)
		}
	}
}
