package spec_test

import (
	"fmt"
	"testing"

	"dynloop/internal/builder"
	_ "dynloop/internal/expt" // registers the paper's grids
	"dynloop/internal/grid"
	"dynloop/internal/harness"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/spec"
	"dynloop/internal/workload"
)

// gridConfigs returns the engine configuration of every engine cell of
// the registered grid name, in cell order, compiled for one benchmark.
func gridConfigs(t testing.TB, name string) []spec.Config {
	t.Helper()
	e, ok := grid.Lookup(name)
	if !ok {
		t.Fatalf("grid %q is not registered", name)
	}
	s := e.Spec
	s.Benchmarks = []string{"swim"}
	cells, _, err := grid.Compile(grid.Config{Budget: 1000}, s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out []spec.Config
	for _, c := range cells {
		if c.Coord.Policy == "" {
			continue
		}
		pol, err := grid.ParsePolicy(c.Coord.Policy)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := spec.Config{TUs: c.Coord.TUs, Policy: pol, LETCapacity: c.Coord.LETCap}
		if c.Coord.NestRule == "static" {
			cfg.NestRule = spec.NestRuleStatic
		}
		if ex := c.Coord.Exclusion; ex.Enabled {
			cfg.Exclude = true
			cfg.ExcludeThreshold = ex.Threshold
			cfg.ExcludeMinResolved = ex.MinResolved
			cfg.ExcludeCapacity = ex.Capacity
		}
		out = append(out, cfg)
	}
	return out
}

// referenceConfigs is every distinct engine configuration of the
// registered grids (the clssize, taskpred and oracle kinds run STR(3)
// and STR at 4 TUs, which Figure 7 holds) plus lanes the grids do not
// exercise much or at all: exclusion at its defaults and on IDLE, the
// static nest rule, the infinite machine under each policy, and small
// LET capacities.
func referenceConfigs(t testing.TB) []spec.Config {
	t.Helper()
	var out []spec.Config
	seen := map[string]bool{}
	add := func(cfgs ...spec.Config) {
		for _, c := range cfgs {
			if k := fmt.Sprintf("%+v", c); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	for _, name := range grid.Names() {
		if e, _ := grid.Lookup(name); e.Spec.Kind == "spec" {
			add(gridConfigs(t, name)...)
		}
	}
	add(
		spec.Config{TUs: 4, Policy: spec.STR(), Exclude: true},
		spec.Config{TUs: 8, Policy: spec.Idle(), Exclude: true, ExcludeThreshold: 0.9, ExcludeMinResolved: 4, ExcludeCapacity: 2},
		spec.Config{TUs: 16, Policy: spec.STRn(1), NestRule: spec.NestRuleStatic},
		spec.Config{TUs: 2, Policy: spec.STRn(2), NestRule: spec.NestRuleStatic},
		spec.Config{TUs: 0, Policy: spec.Idle()},
		spec.Config{TUs: 0, Policy: spec.STRn(3)},
		spec.Config{TUs: 4, Policy: spec.STR(), LETCapacity: 2},
		spec.Config{TUs: 8, Policy: spec.STRn(1), LETCapacity: 2, NestRule: spec.NestRuleStatic},
		spec.Config{TUs: 0, Policy: spec.STR(), LETCapacity: 4},
		spec.Config{TUs: 8, Policy: spec.Idle(), LETCapacity: 4, Exclude: true},
	)
	return out
}

// oracleConfigs are lanes that read recorded iteration counts.
func oracleConfigs(counts []int) []spec.Config {
	return []spec.Config{
		{TUs: 4, Policy: spec.STR(), OracleIters: counts},
		{TUs: 8, Policy: spec.STRn(2), OracleIters: counts},
		{TUs: 4, Policy: spec.Idle(), OracleIters: counts, LETCapacity: 2},
		{TUs: 16, Policy: spec.STRn(1), NestRule: spec.NestRuleStatic, OracleIters: counts},
	}
}

// compareBank runs u for budget instructions on one detector of CLS
// capacity cls observed by one bank per LET capacity holding a lane for
// every configuration, and by one private reference engine per
// configuration, and reports every lane whose Metrics differ from its
// reference engine's.
func compareBank(t *testing.T, what string, u *builder.Unit, budget uint64, cls int, cfgs []spec.Config) {
	t.Helper()
	compareBanks(t, what, u, budget, cls, cfgs, spec.NewBank)
}

// compareBanks is compareBank with the banks made by newBank.
func compareBanks(t *testing.T, what string, u *builder.Unit, budget uint64, cls int, cfgs []spec.Config, newBank func(letCapacity int) *spec.Bank) {
	t.Helper()
	hc := harness.Config{Budget: budget, CLSCapacity: cls}
	var observers []loopdet.Observer
	banks := map[int]*spec.Bank{}
	lanes := make([]spec.Lane, len(cfgs))
	refs := make([]*spec.RefEngine, len(cfgs))
	for i, cfg := range cfgs {
		b := banks[cfg.LETCapacity]
		if b == nil {
			b = newBank(cfg.LETCapacity)
			banks[cfg.LETCapacity] = b
			observers = append(observers, b)
		}
		lanes[i] = b.Add(cfg)
		refs[i] = spec.NewRefEngine(cfg)
		observers = append(observers, refs[i])
	}
	if _, err := harness.Run(u, hc, observers...); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, cfg := range cfgs {
		cfg.OracleIters = nil // printed as a flag below
		if got, want := lanes[i].Metrics(), refs[i].Metrics(); got != want {
			t.Errorf("%s, CLS %d, lane %+v (oracle %v):\nbank      %+v\nreference %+v",
				what, cls, cfg, cfgs[i].OracleIters != nil, got, want)
		}
	}
}

// TestBankMatchesReference: every lane of a bank computes exactly the
// Metrics of a reference engine of its configuration on the same
// detector, for every engine configuration of the registered grids and
// the lanes referenceConfigs adds, plus oracle lanes, on every workload
// at two seeds and three CLS capacities (default, a small one that
// evicts, and unbounded).
func TestBankMatchesReference(t *testing.T) {
	seeds, capacities := []uint64{1, 1009}, []int{0, 4, -1}
	if testing.Short() || raceEnabled {
		seeds, capacities = seeds[:1], []int{4}
	}
	const budget = 200_000
	cfgs := referenceConfigs(t)
	for _, bm := range workload.All() {
		for _, seed := range seeds {
			u, err := bm.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cls := range capacities {
				rec := spec.NewOracleRecorder()
				if _, err := harness.Run(u, harness.Config{Budget: budget, CLSCapacity: cls}, rec); err != nil {
					t.Fatal(err)
				}
				all := append(cfgs[:len(cfgs):len(cfgs)], oracleConfigs(rec.Counts())...)
				compareBank(t, fmt.Sprintf("%s seed %d", bm.Name, seed), u, budget, cls, all)
			}
		}
	}
}

// TestBankResetMatchesReference: a bank that is Reset in the middle of a
// traversal, with executions and their threads still on its record
// stack, computes exactly what reference engines compute in its next
// life. Each bank lives twice before that: once with two lanes of
// another LET capacity, and once with the very lanes it then gets, so
// records, exclusion tables and oracle lanes of the same shape are
// reused. A recycled bank carries nothing of its earlier lives into its
// lanes.
func TestBankResetMatchesReference(t *testing.T) {
	const budget = 100_000
	cfgs := referenceConfigs(t)
	for _, bm := range workload.All() {
		u, err := bm.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		rec := spec.NewOracleRecorder()
		if _, err := harness.Run(u, harness.Config{Budget: budget, CLSCapacity: 4}, rec); err != nil {
			t.Fatal(err)
		}
		all := append(cfgs[:len(cfgs):len(cfgs)], oracleConfigs(rec.Counts())...)
		// live runs b on part of the stream and stops with executions on
		// the stack (no flush).
		live := func(b *spec.Bank, n uint64) {
			det := loopdet.New(loopdet.Config{Capacity: 4})
			det.AddObserver(b)
			if _, err := u.NewCPU().Run(n, det); err != nil {
				t.Fatal(err)
			}
		}
		used := func(letCapacity int) *spec.Bank {
			b := spec.NewBank(2)
			b.Add(spec.Config{TUs: 4, Policy: spec.STR(), LETCapacity: 2})
			b.Add(spec.Config{TUs: 0, Policy: spec.STRn(3), LETCapacity: 2})
			live(b, budget/3)
			b.Reset(letCapacity)
			for _, cfg := range all {
				if cfg.LETCapacity == letCapacity {
					b.Add(cfg)
				}
			}
			live(b, budget/2)
			b.Reset(letCapacity)
			return b
		}
		compareBanks(t, bm.Name+" after Reset", u, budget, 4, all, used)
	}
}

// FuzzBank: on random structured programs, a bank of a random lane set
// matches the reference engines. Each pair of lane bytes draws one
// lane: TU count, policy, nest rule, exclusion, LET capacity and
// whether it reads oracle counts.
func FuzzBank(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0x41, 0x00, 0x12, 0x05, 0x38, 0x22})
	f.Add(uint64(7), uint8(3), []byte{0x00, 0x00, 0x8f, 0x13, 0x24, 0x2a, 0x31, 0x09})
	f.Add(uint64(1009), uint8(1), []byte{0xf4, 0xff, 0x23, 0x10})
	f.Fuzz(func(t *testing.T, seed uint64, clsSel uint8, laneBytes []byte) {
		u, err := builder.Random(seed, builder.RandomOpt{})
		if err != nil {
			t.Skip(err)
		}
		const budget = 50_000
		cls := []int{0, 2, 4, -1}[clsSel%4]
		rec := spec.NewOracleRecorder()
		if _, err := harness.Run(u, harness.Config{Budget: budget, CLSCapacity: cls}, rec); err != nil {
			t.Fatal(err)
		}
		var cfgs []spec.Config
		for i := 0; i+1 < len(laneBytes) && len(cfgs) < 16; i += 2 {
			a, b := laneBytes[i], laneBytes[i+1]
			cfg := spec.Config{TUs: int(a % 9)}
			switch (a >> 4) % 4 {
			case 0:
				cfg.Policy = spec.Idle()
			case 1:
				cfg.Policy = spec.STR()
			default:
				cfg.Policy = spec.STRn(int(a>>6) + 1)
			}
			if b&1 != 0 {
				cfg.NestRule = spec.NestRuleStatic
			}
			if b&2 != 0 {
				cfg.Exclude = true
				cfg.ExcludeThreshold = 0.5 + float64(b>>6)/10
				cfg.ExcludeMinResolved = 2 + int(b>>6)
				cfg.ExcludeCapacity = 1 + int(b>>6)
			}
			cfg.LETCapacity = []int{0, 0, 2, 4}[(b>>2)%4]
			if b&16 != 0 {
				cfg.OracleIters = rec.Counts()
			}
			cfgs = append(cfgs, cfg)
		}
		if len(cfgs) == 0 {
			return
		}
		compareBank(t, fmt.Sprintf("random seed %d", seed), u, budget, cls, cfgs)
	})
}

// loopEvent is one detector callback, recorded for replay.
type loopEvent struct {
	kind   uint8 // evRetired, evStart, evIter or evEnd
	x      loopdet.Exec
	reason loopdet.EndReason
	a, b   uint64 // Retired's n and last; the other events' index in a
}

const (
	evRetired = iota
	evStart
	evIter
	evEnd
)

// eventLog records what a detector tells a count observer.
type eventLog struct{ evs []loopEvent }

func (l *eventLog) Retired(n, last uint64) {
	l.evs = append(l.evs, loopEvent{kind: evRetired, a: n, b: last})
}
func (l *eventLog) ExecStart(x *loopdet.Exec) {
	l.evs = append(l.evs, loopEvent{kind: evStart, x: *x})
}
func (l *eventLog) IterStart(x *loopdet.Exec, index uint64) {
	l.evs = append(l.evs, loopEvent{kind: evIter, x: *x, a: index})
}
func (l *eventLog) ExecEnd(x *loopdet.Exec, r loopdet.EndReason, index uint64) {
	l.evs = append(l.evs, loopEvent{kind: evEnd, x: *x, reason: r, a: index})
}
func (l *eventLog) OneShot(t, b isa.Addr, index uint64) {}

// replay delivers the log to o through x, which holds each event's
// execution in turn.
func (l *eventLog) replay(o loopdet.CountObserver, x *loopdet.Exec) {
	for i := range l.evs {
		e := &l.evs[i]
		*x = e.x
		switch e.kind {
		case evRetired:
			o.Retired(e.a, e.b)
		case evStart:
			o.ExecStart(x)
		case evIter:
			o.IterStart(x, e.a)
		case evEnd:
			o.ExecEnd(x, e.reason, e.a)
		}
	}
}

// TestBankAllocsDoNotScale pins that a bank allocates nothing per loop
// event once warm: a bank holding Figure 7's 20 lanes, warmed on swim's
// loop events, allocates as much replaying the events of 100k
// instructions as of 500k — nothing.
func TestBankAllocsDoNotScale(t *testing.T) {
	bm, err := workload.Lookup("swim")
	if err != nil {
		t.Fatal(err)
	}
	u, err := bm.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	record := func(budget uint64) *eventLog {
		l := &eventLog{}
		if _, err := harness.Run(u, harness.Config{Budget: budget}, l); err != nil {
			t.Fatal(err)
		}
		return l
	}
	short, long := record(100_000), record(500_000)
	cfgs := gridConfigs(t, "fig7")
	if len(cfgs) != 20 {
		t.Fatalf("fig7 has %d engine cells, want 20", len(cfgs))
	}
	b := spec.NewBank(0)
	for _, c := range cfgs {
		b.Add(c)
	}
	x := new(loopdet.Exec)
	long.replay(b, x)
	long.replay(b, x)
	small := testing.AllocsPerRun(3, func() { short.replay(b, x) })
	large := testing.AllocsPerRun(3, func() { long.replay(b, x) })
	if small != large || large != 0 {
		t.Errorf("a warm bank of fig7's lanes allocates %v objects over %d loop events and %v over %d, want 0 and 0",
			small, len(short.evs), large, len(long.evs))
	}
}
