package loopdet

import (
	"fmt"

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
// so a test can tell that recycling actually happened.
type AliasCheck struct {
	NopObserver
	live   map[*Exec]identity
	ids    map[uint64]bool
	seen   map[*Exec]bool
	Starts int
	Reused int
	err    error
}

type identity struct {
	id uint64
	t  isa.Addr
}

// NewAliasCheck returns an empty checker; attach it to a detector.
func NewAliasCheck() *AliasCheck {
	return &AliasCheck{live: map[*Exec]identity{}, ids: map[uint64]bool{}, seen: map[*Exec]bool{}}
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
func (a *AliasCheck) IterStart(x *Exec, _ uint64) { a.check(x, "IterStart") }

// ExecEnd implements Observer.
func (a *AliasCheck) ExecEnd(x *Exec, _ EndReason, _ uint64) {
	a.check(x, "ExecEnd")
	delete(a.live, x)
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
