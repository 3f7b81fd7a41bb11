package loopdet

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"dynloop/internal/isa"
)

// AliasCheck is an observer that polices the Exec lifetime contract the
// detector's recycling relies on. It records the first violation of:
//
//   - ExecStart handing out a pointer that is still live (its ExecEnd has
//     not been seen yet);
//   - an execution's ID or T changing between its ExecStart and ExecEnd;
//   - execution IDs repeating.
//
// Reused counts ExecStarts that received a previously retired pointer,
// so a test can tell that recycling actually happened. Sequence digests
// every event with what the observer saw of it, so a test can check
// that the observer sees the same sequence on a detector it shares with
// other observers as on a private one.
type AliasCheck struct {
	live   map[*Exec]identity
	ids    map[uint64]bool
	seen   map[*Exec]bool
	Starts int
	Reused int
	err    error
	seq    hash.Hash64
}

type identity struct {
	id uint64
	t  isa.Addr
}

// NewAliasCheck returns an empty checker; attach it to a detector.
func NewAliasCheck() *AliasCheck {
	return &AliasCheck{live: map[*Exec]identity{}, ids: map[uint64]bool{}, seen: map[*Exec]bool{}, seq: fnv.New64a()}
}

// Sequence returns the digest of the events seen so far.
func (a *AliasCheck) Sequence() uint64 { return a.seq.Sum64() }

// record folds one event into the sequence digest.
func (a *AliasCheck) record(words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		a.seq.Write(b[:])
	}
}

// recordExec folds an event on x, with everything x shows, into the
// sequence digest.
func (a *AliasCheck) recordExec(event uint64, x *Exec, words ...uint64) {
	a.record(event, x.ID, uint64(x.T), uint64(x.B), uint64(x.Iters),
		x.StartIndex, x.IterStartIndex, uint64(x.Depth))
	a.record(words...)
}

// Err returns the first violation seen, or nil.
func (a *AliasCheck) Err() error { return a.err }

func (a *AliasCheck) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

// ExecStart implements Observer.
func (a *AliasCheck) ExecStart(x *Exec) {
	a.recordExec(1, x)
	a.Starts++
	if prev, ok := a.live[x]; ok {
		a.fail("ExecStart of id %d handed out the pointer of live execution %d", x.ID, prev.id)
	}
	if a.ids[x.ID] {
		a.fail("execution id %d handed out twice", x.ID)
	}
	if a.seen[x] {
		a.Reused++
	}
	a.ids[x.ID], a.seen[x] = true, true
	a.live[x] = identity{x.ID, x.T}
}

// IterStart implements Observer.
func (a *AliasCheck) IterStart(x *Exec, index uint64) {
	a.recordExec(2, x, index)
	a.check(x, "IterStart")
}

// ExecEnd implements Observer.
func (a *AliasCheck) ExecEnd(x *Exec, reason EndReason, index uint64) {
	a.recordExec(3, x, uint64(reason), index)
	a.check(x, "ExecEnd")
	delete(a.live, x)
}

// OneShot implements Observer.
func (a *AliasCheck) OneShot(t, b isa.Addr, index uint64) {
	a.record(4, uint64(t), uint64(b), index)
}

// check verifies x is live and still carries its ExecStart identity.
func (a *AliasCheck) check(x *Exec, event string) {
	was, ok := a.live[x]
	switch {
	case !ok:
		a.fail("%s of id %d for a pointer that is not live", event, x.ID)
	case was != identity{x.ID, x.T}:
		a.fail("%s: execution changed from id %d T=%d to id %d T=%d while live",
			event, was.id, was.t, x.ID, x.T)
	}
}
