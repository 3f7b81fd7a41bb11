package spec

import (
	"fmt"
	"slices"

	"dynloop/internal/freelist"
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
	"dynloop/internal/looptab"
)

// Bank is a set of speculation engines observing one detector through
// one LET: each engine is a lane. A lane computes exactly what an Engine
// of its configuration on a detector of its own computes, because an
// engine is a deterministic function of the detector's events and of
// its LET, which depends only on those events and its capacity. The
// bank turns what would be one observer per engine into one observer
// per (detector, LET capacity): one dispatch, one LET update and one
// lookup of the execution's state per loop event, whatever the number
// of lanes, and per-lane state laid out contiguously.
//
// Add every lane before the first event; read each lane's Metrics after
// the detector is flushed.
type Bank struct {
	let   looptab.LET
	lanes []lane
	// spare holds exclusion tables of lanes a Reset dropped, for the
	// next lanes that run one.
	spare []*exclusion
	// recs mirrors the CLS: one record per active execution, outermost
	// first. Ended records keep their storage past len(recs) for the
	// next execution, as the detector recycles its entries.
	recs []record
	// instrs and last are the retired-instruction count and the index of
	// the last retired instruction, the same for every lane.
	instrs, last uint64
	// static is set when some lane applies the static nest rule, aux
	// when some lane models the infinite machine or reads oracle counts.
	static, aux bool
}

// lane is one engine's machine state. The first cache line holds what
// every event reads, the second the counters a promotion and a spawn
// update; the rest is read only by lanes that use it.
type lane struct {
	// base and creditEnd give the lane's cycle count as a function of
	// the bank's retired-instruction count (see clock): instructions up
	// to creditEnd are skip credit, already executed by a promoted
	// speculative thread, and cost no further cycles.
	base, creditEnd uint64
	// extentID is the execution whose promoted thread granted the
	// credit; the credit ends with that thread's iteration.
	extentID uint64
	idle     int
	tus      int // 0 models the infinite machine
	// starveLimit is the STR(i) limit under the starvation nest rule
	// (0 when the rule is off).
	starveLimit int
	excl        *exclusion // nil unless the lane runs the exclusion table
	stride      bool

	c counts

	// staticLimit is the STR(i) limit under the static nest rule.
	staticLimit int
	oracle      []int
	oracleNext  int
}

// counts are a lane's Metrics counters.
type counts struct {
	promoted, resolved, verifDist    uint64
	specEvents, spawned, outstanding uint64
	squashed, flushed                uint64
	denied, anomalies                uint64
}

// exclusion is a lane's §2.3.2 exclusion machinery.
type exclusion struct {
	threshold   float64
	minResolved int
	accs        map[isa.Addr]accuracy
	table       looptab.Table[struct{}]
}

// accuracy tracks a loop's resolved speculative threads for the
// exclusion table.
type accuracy struct {
	promoted, squashed uint32
}

// record is the bank's state for one loop execution, mirroring the CLS
// entry where the paper stores the TU identifiers (§3.1.2).
type record struct {
	id    uint64
	t     isa.Addr
	lanes []laneExec
	// aux holds, per lane, the execution's oracle count and infinite
	// machine state; nil unless the bank has such lanes.
	aux []laneAux
	// starved holds, per lane, the distinct loops (by target address)
	// that wanted speculative threads but found no idle TU while this
	// execution was the lane's outermost thread owner — the STR(i)
	// accounting (see Policy); laneExec.starved says how many.
	starved [][]isa.Addr
	// pred is the LET's iteration-count prediction for the loop,
	// computed for the first stride lane that asks, and valid while
	// predAt is one more than the LET's eviction count (0: not yet
	// asked): only the loop's own ExecEnd, or an eviction, changes its
	// entry.
	pred   int64
	predOK bool
	predAt uint64
}

// laneExec is one finite lane's threads for one loop execution, one
// cache line. The queued threads hold consecutive iterations from head
// on, kept as runs of threads spawned at one event: runs[first:], less
// the off threads of runs[first] already promoted. Whenever n is 0,
// runs is empty and first and off are 0.
type laneExec struct {
	runs  []threadRun
	first int
	off   int
	n     int // queued threads
	head  int // iteration of the first queued thread
	// starved counts the execution's STR(i) starved loops (see
	// record.starved). One more than the lane's limit squashes the
	// execution's threads and clears it.
	starved int
}

// laneAux is one lane's per-execution state that only oracle and
// infinite-machine lanes use.
type laneAux struct {
	// oracleIters is the execution's true final iteration count when the
	// lane runs with an oracle (0 = none).
	oracleIters int
	// infinite-machine representation: from allFrom on, every iteration
	// counts as spawned at allClock/allIndex.
	allFrom  int
	allClock uint64
	allIndex uint64
}

// threadRun is count speculative threads spawned at one event.
type threadRun struct {
	count      int
	spawnClock uint64
	spawnIndex uint64
	// predicted marks threads spawned under an iteration-count
	// prediction; only those count toward the exclusion table's accuracy
	// (a cold loop's blind IDLE-fallback threads say nothing about its
	// predictability).
	predicted bool
}

// Lane is a handle on one lane of a Bank.
type Lane struct {
	b *Bank
	i int
}

// Metrics returns a snapshot of the lane's results so far.
func (l Lane) Metrics() Metrics { return l.b.metrics(l.i) }

// banks recycles Banks with their LET, lanes and records (see Release).
// A fused group of the paper's grids takes at most four; the bound
// covers four such groups at once.
var banks = freelist.New[Bank]("spec.banks", 16)

// NewBank returns an empty bank whose lanes predict from one LET of
// letCapacity entries (0 = unbounded), which the bank keeps current. It
// may return a released bank, which keeps the storage it grew.
func NewBank(letCapacity int) *Bank {
	b := banks.Get()
	b.Reset(letCapacity)
	return b
}

// Reset empties the bank as NewBank(letCapacity) returns it, with no
// lanes, keeping the storage of its LET, lanes, records and exclusion
// tables. Lanes handed out before must not be used afterwards.
func (b *Bank) Reset(letCapacity int) {
	b.let.Reset(letCapacity)
	for i := range b.lanes {
		if x := b.lanes[i].excl; x != nil {
			b.spare = append(b.spare, x)
		}
	}
	clear(b.lanes) // drop oracle counts and exclusion tables
	b.lanes = b.lanes[:0]
	// Records, those on the stack included, get their per-lane state
	// rebuilt by push (their lane slices are cut to zero here), so a
	// record abandoned mid-run is as clean as a new one.
	recs := b.recs[:cap(b.recs)]
	for i := range recs {
		r := &recs[i]
		r.lanes, r.aux, r.starved = r.lanes[:0], r.aux[:0], r.starved[:0]
	}
	b.recs = b.recs[:0]
	b.instrs, b.last = 0, 0
	b.static, b.aux = false, false
}

// Release hands the bank back for a later NewBank to reuse. Neither the
// bank nor its lanes may be used afterwards.
func (b *Bank) Release() { banks.Put(b) }

// LETCapacity returns the capacity of the bank's LET.
func (b *Bank) LETCapacity() int { return b.let.Capacity() }

// Add adds a lane for cfg. cfg.LETCapacity must be the bank's, and the
// bank must not have seen an event yet.
func (b *Bank) Add(cfg Config) Lane {
	if cfg.LETCapacity != b.let.Capacity() {
		panic(fmt.Sprintf("spec: lane with LET capacity %d added to a bank of capacity %d", cfg.LETCapacity, b.let.Capacity()))
	}
	if b.instrs != 0 || len(b.recs) != 0 {
		panic("spec: lane added to a bank that has seen events")
	}
	l := lane{tus: cfg.TUs, stride: cfg.Policy.Kind == PolicyStride}
	if cfg.TUs > 0 {
		l.idle = cfg.TUs - 1 // one TU is the non-speculative thread
		if cfg.NestRule == NestRuleStatic {
			l.staticLimit = cfg.Policy.NestLimit
		}
	}
	if cfg.NestRule == NestRuleStarvation {
		l.starveLimit = cfg.Policy.NestLimit
	}
	if cfg.Exclude {
		cfg.excludeDefaults()
		l.excl = b.exclusion(cfg.ExcludeThreshold, cfg.ExcludeMinResolved, cfg.ExcludeCapacity)
	}
	if len(cfg.OracleIters) > 0 {
		l.oracle = cfg.OracleIters
	}
	b.static = b.static || l.staticLimit > 0
	b.aux = b.aux || l.tus == 0 || l.oracle != nil
	b.lanes = append(b.lanes, l)
	return Lane{b: b, i: len(b.lanes) - 1}
}

// exclusion returns an empty exclusion table, a spare one when the bank
// has it.
func (b *Bank) exclusion(threshold float64, minResolved, capacity int) *exclusion {
	var x *exclusion
	if n := len(b.spare); n > 0 {
		x = b.spare[n-1]
		b.spare = b.spare[:n-1]
		clear(x.accs)
	} else {
		x = &exclusion{accs: make(map[isa.Addr]accuracy)}
	}
	x.threshold, x.minResolved = threshold, minResolved
	x.table.Reset(capacity)
	return x
}

func (b *Bank) metrics(i int) Metrics {
	l := &b.lanes[i]
	m := Metrics{
		Instrs:          b.instrs,
		Cycles:          l.clock(b.instrs),
		SpecEvents:      l.c.specEvents,
		ThreadsSpawned:  l.c.spawned,
		ThreadsPromoted: l.c.promoted,
		ThreadsSquashed: l.c.squashed,
		ThreadsFlushed:  l.c.flushed,
		OutstandingSum:  l.c.outstanding,
		VerifDistSum:    l.c.verifDist,
		ResolvedThreads: l.c.resolved,
		DeniedSpawns:    l.c.denied,
		Anomalies:       l.c.anomalies,
	}
	if l.excl != nil {
		m.ExcludedLoops = l.excl.table.Len()
	}
	return m
}

// Retired implements loopdet.CountObserver: every retired instruction
// costs one cycle unless it was already executed by a promoted
// speculative thread (skip credit). No thread can resolve mid-run (loop
// events only occur at run boundaries), so each lane's clock is a
// function of the retired-instruction count alone until the next loop
// event, and a run costs the bank one addition, whatever its lanes.
func (b *Bank) Retired(n, last uint64) {
	b.instrs += n
	b.last = last
}

// clock returns the lane's cycle count once now instructions retired.
func (l *lane) clock(now uint64) uint64 {
	if now <= l.creditEnd {
		return l.base
	}
	return l.base + now - l.creditEnd
}

// credit replaces the lane's skip credit, once now instructions
// retired, with s instructions.
func (l *lane) credit(now, s uint64) {
	l.base = l.clock(now)
	l.creditEnd = now + s
}

// ExecStart implements loopdet.Observer.
func (b *Bank) ExecStart(x *loopdet.Exec) {
	r := b.push(x)
	if b.aux {
		for i := range b.lanes {
			if l := &b.lanes[i]; l.oracle != nil {
				if l.oracleNext < len(l.oracle) {
					r.aux[i].oracleIters = l.oracle[l.oracleNext]
				}
				l.oracleNext++
			}
		}
	}
	b.let.OnExecStart(x.T)
	if b.static {
		for i := range b.lanes {
			if b.lanes[i].staticLimit > 0 {
				b.enforceStaticNestLimit(i)
			}
		}
	}
}

// push opens the record of execution x on top of the stack, reusing an
// ended record's storage when there is one. An ended record's thread
// queues are empty: its ExecEnd squashed them.
func (b *Bank) push(x *loopdet.Exec) *record {
	n := len(b.recs)
	if n < cap(b.recs) {
		b.recs = b.recs[:n+1]
	} else {
		b.recs = append(b.recs, record{})
	}
	r := &b.recs[n]
	r.id, r.t, r.predAt = x.ID, x.T, 0
	if len(r.lanes) != len(b.lanes) {
		// A new record, or one from before the bank's Reset: rebuild its
		// per-lane state, keeping the thread-run storage.
		r.lanes = slices.Grow(r.lanes[:0], len(b.lanes))[:len(b.lanes)]
		for i := range r.lanes {
			r.lanes[i] = laneExec{runs: r.lanes[i].runs[:0]}
		}
		if b.aux {
			r.aux = slices.Grow(r.aux[:0], len(b.lanes))[:len(b.lanes)]
		}
	} else {
		for i := range r.lanes {
			r.lanes[i].starved = 0
		}
	}
	clear(r.aux)
	return r
}

// find returns the stack index of execution id's record, or -1. The
// stack is at most CLS-deep and the event is usually about the
// innermost execution, so the scan starts there.
func (b *Bank) find(id uint64) int {
	for i := len(b.recs) - 1; i >= 0; i-- {
		if b.recs[i].id == id {
			return i
		}
	}
	return -1
}

// enforceStaticNestLimit applies the literal structural STR(i) reading
// for lane li: while the outermost execution owning speculative threads
// has more than the limit of non-speculated loops nested above it on
// the CLS, its threads are squashed.
func (b *Bank) enforceStaticNestLimit(li int) {
	l := &b.lanes[li]
	for {
		oi := b.outermostOwner(li)
		if oi < 0 {
			return
		}
		nested := 0
		for j := oi + 1; j < len(b.recs); j++ {
			if b.recs[j].lanes[li].n == 0 {
				nested++
			}
		}
		if nested <= l.staticLimit {
			return
		}
		b.squash(l, &b.recs[oi].lanes[li], b.recs[oi].t, b.last, false)
	}
}

// outermostOwner returns the stack index of the outermost execution
// holding threads of lane li, or -1.
func (b *Bank) outermostOwner(li int) int {
	for i := range b.recs {
		if b.recs[i].lanes[li].n > 0 {
			return i
		}
	}
	return -1
}

// starve implements the STR(i) rule. The paper: "the maximum number of
// non-speculated loops that can be nested into a loop that is being
// speculated; if this limit is exceeded, all speculative threads
// corresponding to the outermost loop are squashed. In this way, idle
// TUs can be used to speculate in inner loops."
//
// We count a nested loop as "non-speculated" when it *asked* for threads
// and found none idle — loops whose predicted remaining iterations are
// already covered do not count (otherwise short fully-covered inner
// loops, e.g. fpppp's trip-2/3 nests, would squash exactly the coarse
// outer speculation whose huge verification distances Table 2 reports).
// The distinct-loop count accumulates on the outermost thread owner and
// resets whenever that owner spawns again.
func (b *Bank) starve(li, ri int, index uint64) {
	oi := b.outermostOwner(li)
	if oi < 0 || oi == ri {
		return
	}
	l, owner := &b.lanes[li], &b.recs[oi]
	if len(owner.starved) != len(owner.lanes) {
		// Keep the sets a recycled record grew: laneExec.starved bounds
		// what of them is current.
		owner.starved = slices.Grow(owner.starved[:0], len(owner.lanes))[:len(owner.lanes)]
	}
	oe := &owner.lanes[li]
	set := owner.starved[li][:oe.starved]
	if t := b.recs[ri].t; !slices.Contains(set, t) {
		set = append(set, t)
		owner.starved[li] = set
		oe.starved++
	}
	if len(set) > l.starveLimit {
		b.squash(l, oe, owner.t, index, false)
		oe.starved = 0
	}
}

// IterStart implements loopdet.Observer: per lane, verification
// (promotion of the first speculated iteration, §3.1.3) followed by
// spawning (§3.1.1).
func (b *Bank) IterStart(x *loopdet.Exec, index uint64) {
	ri := b.find(x.ID)
	if ri < 0 {
		for i := range b.lanes {
			b.lanes[i].c.anomalies++
		}
		return
	}
	r := &b.recs[ri]
	now := b.instrs
	for li := range b.lanes {
		l, le := &b.lanes[li], &r.lanes[li]
		if l.extentID == x.ID {
			// The promoted thread reached its termination point; leftover
			// credit (it finished early and waited) is discarded.
			l.extentID = 0
			l.credit(now, 0)
		}
		skip := l.creditEnd > now
		promoted := false
		switch {
		case l.tus == 0:
			b.infinite(l, &r.aux[li], x, now, index, skip)
			continue
		case le.n > 0:
			if skip || le.head != x.Iters {
				// Should be unreachable: threads always precede the frontier
				// in program order and are consumed in iteration order.
				l.c.anomalies++
				b.squash(l, le, r.t, index, false)
				break
			}
			h := le.promote()
			promoted = true
			l.c.promoted++
			l.c.resolved++
			l.c.verifDist += index - h.spawnIndex
			l.idle++
			if h.predicted && l.excl != nil {
				l.excl.note(r.t, true)
			}
			if c := l.clock(now); c > h.spawnClock {
				l.credit(now, c-h.spawnClock)
				l.extentID = x.ID
			}
		}
		// Spawn only at the lane's real frontier: at the promotion
		// boundary itself, or when no skip credit is pending. Boundaries
		// strictly inside already-executed speculative work never spawn
		// (that work is in the past; see DESIGN.md). Without an idle TU,
		// only the exclusion table and the STR(i) trigger have work.
		if (promoted || !skip) && (l.idle > 0 || l.excl != nil || le.n == 0 && l.starveLimit > 0) {
			b.spawn(l, le, li, ri, x.Iters+1+le.n, index)
		}
	}
}

// infinite runs an iteration start of x on the unbounded machine of
// lane l, whose state for the execution is a: at the first iteration
// start on the lane's frontier every future iteration is spawned, and
// each later one is promoted.
func (b *Bank) infinite(l *lane, a *laneAux, x *loopdet.Exec, now, index uint64, skip bool) {
	switch {
	case a.allFrom == 0:
		if !skip {
			a.allFrom = x.Iters + 1
			a.allClock = l.clock(now)
			a.allIndex = index
			l.c.specEvents++
		}
	case x.Iters >= a.allFrom:
		l.c.promoted++
		l.c.resolved++
		l.c.verifDist += index - a.allIndex
		if c := l.clock(now); c > a.allClock {
			l.credit(now, c-a.allClock)
			l.extentID = x.ID
		}
	}
}

// promote removes the first queued thread and returns its run.
func (q *laneExec) promote() threadRun {
	h := q.runs[q.first]
	q.n--
	q.head++
	if q.n == 0 {
		q.reset()
		return h
	}
	if q.off++; q.off == h.count {
		q.first++
		q.off = 0
	}
	return h
}

// enqueue appends a run of threads; first is the iteration the run
// starts at when the queue is empty. A full slice whose first half is
// promoted runs is compacted instead of grown, so a steady promote-one,
// spawn-one loop never allocates and copies about once per half slice.
func (q *laneExec) enqueue(t threadRun, first int) {
	if q.n == 0 {
		q.head = first
	} else if len(q.runs) == cap(q.runs) && 2*q.first >= len(q.runs) {
		q.runs = q.runs[:copy(q.runs, q.runs[q.first:])]
		q.first = 0
	}
	q.runs = append(q.runs, t)
	q.n += t.count
}

func (q *laneExec) reset() {
	q.runs = q.runs[:0]
	q.first, q.off, q.n = 0, 0, 0
}

// spawn creates speculative threads of finite lane l, at index li, for
// the iterations from first on of the execution at stack index ri,
// whose threads in that lane are le, per the lane's policy. first is
// always the iteration after the last queued (or current) one.
func (b *Bank) spawn(l *lane, le *laneExec, li, ri, first int, index uint64) {
	r := &b.recs[ri]
	if l.excl != nil && l.excl.table.Touch(r.t) != nil {
		// The loop is in the §2.3.2 exclusion table: no speculation.
		l.c.denied++
		return
	}
	// How many further iterations the policy wants covered.
	desired := int64(1) << 62 // unknown count: as many as there are TUs
	predicted := false
	switch {
	case l.oracle != nil && r.aux[li].oracleIters > 0:
		desired = int64(r.aux[li].oracleIters) - int64(first) + 1
		predicted = true
	case l.stride:
		if at := b.let.Evictions() + 1; r.predAt != at {
			r.pred, r.predOK = b.let.PredictIters(r.t)
			r.predAt = at
		}
		if r.predOK {
			desired = r.pred - int64(first) + 1
			predicted = true
		}
	}
	if desired <= 0 {
		return
	}
	if l.idle == 0 {
		if le.n == 0 && l.starveLimit > 0 {
			// A loop that wants speculation but owns no thread and finds
			// no TU: the STR(i) trigger.
			b.starve(li, ri, index)
		}
		if l.idle == 0 {
			return
		}
	}
	want := l.idle
	if int64(want) > desired {
		want = int(desired)
	}
	le.enqueue(threadRun{count: want, spawnClock: l.clock(b.instrs), spawnIndex: index, predicted: predicted}, first)
	l.idle -= want
	le.starved = 0
	l.c.specEvents++
	l.c.spawned += uint64(want)
	l.c.outstanding += uint64(le.n)
}

// ExecEnd implements loopdet.Observer: remaining speculative threads of
// the loop execute non-existent iterations and are squashed (§3.1.3).
func (b *Bank) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	ri := b.find(x.ID)
	if ri < 0 {
		return
	}
	r := &b.recs[ri]
	flush := reason == loopdet.EndFlush
	for li := range b.lanes {
		l := &b.lanes[li]
		if l.extentID == x.ID {
			l.extentID = 0
			l.credit(b.instrs, 0)
		}
		b.squash(l, &r.lanes[li], r.t, index, flush)
	}
	// Evictions and flushes are not real completions; the LET keeps its
	// history.
	if reason != loopdet.EndEvicted && !flush {
		b.let.OnExecEnd(r.t, x.Iters)
	}
	// Close the gap, parking the ended record's storage past the top.
	ended := *r
	top := len(b.recs) - 1
	copy(b.recs[ri:], b.recs[ri+1:])
	b.recs[top] = ended
	b.recs = b.recs[:top]
}

// OneShot implements loopdet.Observer: single-iteration executions never
// reach the CLS, so no lane can speculate on them.
func (*Bank) OneShot(t, b isa.Addr, index uint64) {}

// squash discards all pending threads of le, an execution of loop t, in
// lane l. Flush-squashes (stream end) are accounted separately and
// excluded from the hit ratio.
func (b *Bank) squash(l *lane, le *laneExec, t isa.Addr, index uint64, flush bool) {
	n := le.n
	if n == 0 {
		return
	}
	if flush {
		l.c.flushed += uint64(n)
	} else {
		for k := le.first; k < len(le.runs); k++ {
			run := &le.runs[k]
			c := run.count
			if k == le.first {
				c -= le.off
			}
			l.c.squashed += uint64(c)
			l.c.resolved += uint64(c)
			l.c.verifDist += uint64(c) * (index - run.spawnIndex)
			if run.predicted && l.excl != nil {
				for range c {
					l.excl.note(t, false)
				}
			}
		}
	}
	le.reset()
	l.idle += n
}

// note feeds the exclusion table's accuracy tracking (§2.3.2): once a
// loop has enough resolved threads and a poor ratio, it is excluded
// from further speculation.
func (x *exclusion) note(t isa.Addr, promoted bool) {
	a := x.accs[t]
	if promoted {
		a.promoted++
	} else {
		a.squashed++
	}
	x.accs[t] = a
	total := int(a.promoted + a.squashed)
	if total >= x.minResolved {
		ratio := float64(a.promoted) / float64(total)
		if ratio < x.threshold && x.table.Get(t) == nil {
			x.table.Insert(t)
		}
	}
}

// checkInvariant verifies TU conservation in every finite lane: idle + 1
// (non-speculative) + outstanding speculative threads == TUs.
func (b *Bank) checkInvariant() error {
	for li := range b.lanes {
		l := &b.lanes[li]
		if l.tus == 0 {
			continue
		}
		busy := 0
		for i := range b.recs {
			busy += b.recs[i].lanes[li].n
		}
		if l.idle+1+busy != l.tus {
			return fmt.Errorf("spec: TU leak in lane %d: idle=%d busy=%d tus=%d", li, l.idle, busy, l.tus)
		}
	}
	return nil
}
