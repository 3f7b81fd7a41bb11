package harness

import (
	"context"
	"sync"
	"testing"

	"dynloop/internal/builder"
	"dynloop/internal/interp"
	"dynloop/internal/isa"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

// randomUnit is a halting program with calls and nested loops, about
// 71k instructions long.
func randomUnit(t *testing.T) *builder.Unit {
	t.Helper()
	u, err := builder.Random(12, builder.RandomOpt{})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// traverseStep runs one Traverse of u at cfg with a stream hash
// attached and checks it against a plain interpreted MultiRun: the
// source, the result, the hash, and that only an interpreted traversal
// counts as one.
func traverseStep(t *testing.T, recs *Recordings, tr *Traces, u *builder.Unit, cfg MultiConfig, want Source) {
	t.Helper()
	build := func() (*builder.Unit, error) { return u, nil }
	trav0, replays0 := Traversals(), interp.CtlReplays()
	var h trace.Hash
	res, src, err := Traverse(context.Background(), recs, tr, "r", 12, build, cfg, trace.AsPass(&h))
	if err != nil {
		t.Fatal(err)
	}
	trav, replays := Traversals()-trav0, interp.CtlReplays()-replays0
	if src != want {
		t.Fatalf("budget %d: source %d, want %d", cfg.Budget, src, want)
	}
	if (src == FromRecording) != (replays == 1) || (src == Interpreted) != (trav == 1) {
		t.Fatalf("budget %d from source %d: %d traversals and %d control-plane replays", cfg.Budget, src, trav, replays)
	}
	var ref trace.Hash
	refRes, err := MultiRun(u, MultiConfig{Budget: cfg.Budget}, trace.AsPass(&ref))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != refRes.Executed || res.Halted != refRes.Halted || h.Sum != ref.Sum {
		t.Fatalf("budget %d from source %d: executed %d halted %v hash %x, interpreted %d %v %x",
			cfg.Budget, src, res.Executed, res.Halted, h.Sum, refRes.Executed, refRes.Halted, ref.Sum)
	}
}

// TestTraverseServesFromRecording walks one stream through budgets
// that a recording covers (prefixes, then anything once it halted) and
// budgets it does not (longer, or run-to-halt before the halt was
// recorded): only the latter interpret, each re-recording the stream,
// and every traversal delivers the interpreted stream.
func TestTraverseServesFromRecording(t *testing.T) {
	u := randomUnit(t)
	recs := NewRecordings()
	for _, step := range []struct {
		budget uint64
		batch  int
		want   Source
	}{
		{20_000, 0, Interpreted},
		{5_000, 3, FromRecording},
		{20_000, 1, FromRecording},
		{40_000, 0, Interpreted},
		{30_000, 0, FromRecording},
		{20_000, 0, FromRecording},
		{0, 0, Interpreted},
		{0, 0, FromRecording},
		{1 << 40, 0, FromRecording},
		{10_000, 3, FromRecording},
	} {
		traverseStep(t, recs, nil, u, MultiConfig{Budget: step.budget, BatchSize: step.batch}, step.want)
	}
	if recs.Len() != 1 {
		t.Fatalf("%d recordings of one stream", recs.Len())
	}
}

// TestTraverseKeepsInterpreterPaths: a traversal with a full-plane pass
// never replays, even once the stream's recording exists.
func TestTraverseKeepsInterpreterPaths(t *testing.T) {
	u := randomUnit(t)
	build := func() (*builder.Unit, error) { return u, nil }
	ctx := context.Background()
	recs := NewRecordings()
	traverseStep(t, recs, nil, u, MultiConfig{}, Interpreted)
	if recs.Len() != 1 {
		t.Fatalf("%d recordings after a control-only traversal, want 1", recs.Len())
	}

	var want trace.Counter
	if _, err := MultiRun(u, MultiConfig{}, trace.AsPass(&want)); err != nil {
		t.Fatal(err)
	}
	var got trace.Counter
	var h trace.Hash
	_, src, err := Traverse(ctx, recs, nil, "r", 12, build, MultiConfig{}, trace.AsPass(&h), trace.AsPass(&got))
	if err != nil {
		t.Fatal(err)
	}
	if src != Interpreted || got != want {
		t.Fatalf("full-plane traversal: source %d, counts %+v, want interpreted %+v", src, got, want)
	}
}

// TestTraverseArchive: with a trace archive, a runner's first traversal
// of a stream comes from the archive (recording it there when cold) and
// its later ones from the runner's recording; a fresh runner starts
// from the archive again.
func TestTraverseArchive(t *testing.T) {
	u := randomUnit(t)
	tr := newTestTraces(t)
	recs := NewRecordings()
	traverseStep(t, recs, tr, u, MultiConfig{}, Interpreted)
	traverseStep(t, recs, tr, u, MultiConfig{}, FromRecording)
	fresh := NewRecordings()
	traverseStep(t, fresh, tr, u, MultiConfig{Budget: 30_000}, FromArchive)
	traverseStep(t, fresh, tr, u, MultiConfig{Budget: 20_000}, FromRecording)
	if st := tr.Stats(); st.Records != 1 || st.Replays != 1 {
		t.Fatalf("archive stats %+v, want 1 record and 1 replay", st)
	}
}

// TestTraverseErrorNotRecorded: a traversal that ends in a machine
// error publishes no recording.
func TestTraverseErrorNotRecorded(t *testing.T) {
	u := &builder.Unit{Prog: &program.Program{Name: "off-end", Code: []isa.Instr{isa.Nop()}}}
	build := func() (*builder.Unit, error) { return u, nil }
	recs := NewRecordings()
	var h trace.Hash
	if _, _, err := Traverse(context.Background(), recs, nil, "off-end", 1, build, MultiConfig{}, trace.AsPass(&h)); err == nil {
		t.Fatal("running off the program did not fail")
	}
	if recs.Len() != 0 {
		t.Fatal("a failed traversal was recorded")
	}
}

// TestRecordingsBound: the set keeps at most MaxRecordings, evicting
// the least recently used, and keeps the longer of two recordings of a
// stream.
func TestRecordingsBound(t *testing.T) {
	u := randomUnit(t)
	mk := func(budget uint64) *interp.CtlRecording {
		rec := &interp.CtlRecorder{}
		b := trace.NewBroadcast(0, rec)
		b.Init()
		cpu := u.NewCPU()
		if _, err := cpu.Run(budget, b); err != nil {
			t.Fatal(err)
		}
		b.Finalize()
		return rec.Recording(u.Code(), cpu.Halted())
	}
	short, long := mk(100), mk(200)
	s := NewRecordings()
	s.publish("r", 0, long)
	s.publish("r", 0, short)
	if got := s.lookup("r", 0); got != long {
		t.Fatal("a shorter recording replaced a longer one")
	}
	for seed := uint64(1); seed < 2*MaxRecordings; seed++ {
		s.publish("r", seed, short)
		s.lookup("r", 0) // keep seed 0 the most recently used
	}
	if s.Len() != MaxRecordings {
		t.Fatalf("%d recordings, bound %d", s.Len(), MaxRecordings)
	}
	if s.lookup("r", 0) != long || s.lookup("r", 1) != nil || s.lookup("r", 2*MaxRecordings-1) == nil {
		t.Fatal("eviction did not drop the least recently used recordings")
	}
}

// TestTraverseConcurrent: goroutines traversing one stream at several
// budgets through one set all see the interpreted stream. Runs under
// `go test -race` in CI.
func TestTraverseConcurrent(t *testing.T) {
	u := randomUnit(t)
	build := func() (*builder.Unit, error) { return u, nil }
	budgets := []uint64{0, 10_000, 30_000, 50_000}
	want := make(map[uint64]uint64)
	for _, b := range budgets {
		var h trace.Hash
		if _, err := MultiRun(u, MultiConfig{Budget: b}, trace.AsPass(&h)); err != nil {
			t.Fatal(err)
		}
		want[b] = h.Sum
	}
	recs := NewRecordings()
	var wg sync.WaitGroup
	for i := 0; i < 4*len(budgets); i++ {
		b := budgets[i%len(budgets)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h trace.Hash
			if _, _, err := Traverse(context.Background(), recs, nil, "r", 12, build, MultiConfig{Budget: b}, trace.AsPass(&h)); err != nil {
				t.Error(err)
				return
			}
			if h.Sum != want[b] {
				t.Errorf("budget %d: hash %x, want %x", b, h.Sum, want[b])
			}
		}()
	}
	wg.Wait()
}
