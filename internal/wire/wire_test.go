package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"dynloop/internal/branchpred"
	"dynloop/internal/datapred"
	"dynloop/internal/grid"
	"dynloop/internal/loopstats"
	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// sampleValues holds one value of every type the codec registry
// encodes.
func sampleValues() []any {
	return []any{
		spec.Metrics{Instrs: 100, Cycles: 50, SpecEvents: 3, ExcludedLoops: -1, Anomalies: 2},
		grid.Table1Row{Bench: "swim",
			S:     loopstats.Summary{Instrs: 9, StaticLoops: 3, ItersPerExec: 2.5, MaxNesting: 2},
			Paper: workload.PaperRow{Loops: 4, TPC4: 1.25, MaxNL: 3}},
		grid.Fig4Cell{LET: 0.5, LIT: 0.25},
		grid.Fig8Row{Bench: "li", S: datapred.Summary{Loops: 7, Iters: 70, SamePathPct: 12.5, MemOverflow: 1}},
		grid.CLSCell{Evictions: 11, AtCap: true, TPC: 1.75},
		grid.ReplCell{LET: 0.125, LIT: 0.0625, Inhibited: 5},
		grid.OneShotRow{Bench: "gcc", WithIPE: 3.5, WithoutIPE: 4.5, WithExecs: 8, WithoutExec: 6},
		grid.BaselineRow{Bench: "go", Results: []branchpred.Result{
			{Name: "btfn", Branches: 10, Hits: 7, BackwardBranches: 4, BackwardHits: 3},
			{Name: "gshare", Branches: 10, Hits: 9}}},
		grid.TaskPredRow{Bench: "perl", NextTaskPct: 55.5, Scored: 99, IterHitPct: 66.25},
		grid.OracleRow{Bench: "perl", STRTPC: 1.5, OracleTPC: 2, STRHit: 80, OracleHit: 100},
	}
}

func TestCellsRoundTrip(t *testing.T) {
	b, err := AppendCells(nil, sampleValues())
	if err != nil {
		t.Fatal(err)
	}
	values, err := DecodeCells(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values, sampleValues()) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", values, sampleValues())
	}
	// Empty payloads round-trip too.
	eb, err := AppendCells(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs, err := DecodeCells(eb); err != nil || len(vs) != 0 {
		t.Fatalf("empty cells: %v %v", vs, err)
	}
}

func TestCellsCorrupt(t *testing.T) {
	b, err := AppendCells(nil, sampleValues())
	if err != nil {
		t.Fatal(err)
	}
	// Truncation at every byte must error, never return partial values.
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeCells(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeCells(append(append([]byte{}, b...), 7)); err == nil {
		t.Fatal("trailing bytes decoded cleanly")
	}
	if _, err := DecodeCells([]byte("NOTCELLS\n")); !errors.Is(err, ErrCorrupt) {
		t.Fatal("bad magic accepted")
	}
	// An unencodable value fails the append, not the wire.
	if _, err := AppendCells(nil, []any{struct{ X int }{1}}); err == nil {
		t.Fatal("unregistered value encoded")
	}
}

// TestCellsHostileCount: a cell count the payload cannot hold is
// rejected before it sizes an allocation.
func TestCellsHostileCount(t *testing.T) {
	payload := binary.AppendUvarint([]byte(cellsMagic), maxCells)
	if len(payload) != 12 {
		t.Fatalf("hostile payload is %d bytes, want 12", len(payload))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCells(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile count: got %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("hostile count allocated %d bytes decoding a 12-byte payload", n)
	}
}

// FuzzDecodeCells: no payload may panic the decoder, and every payload
// it accepts must re-encode to the same bytes.
func FuzzDecodeCells(f *testing.F) {
	all, err := AppendCells(nil, sampleValues())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	for _, v := range sampleValues() {
		one, err := AppendCells(nil, []any{v})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(one)
		f.Add(one[:len(one)-1])
	}
	empty, _ := AppendCells(nil, nil)
	f.Add(empty)
	f.Add(all[:len(cellsMagic)+1])
	f.Add(binary.AppendUvarint([]byte(cellsMagic), maxCells))
	f.Add(append([]byte(cellsMagic), 0x80, 0x00)) // padded count
	f.Fuzz(func(t *testing.T, b []byte) {
		values, err := DecodeCells(b)
		if err != nil {
			if values != nil {
				t.Fatalf("DecodeCells returned values alongside error %v", err)
			}
			return
		}
		again, err := AppendCells(nil, values)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted payload re-encodes differently:\n got  %x\n want %x", again, b)
		}
	})
}
