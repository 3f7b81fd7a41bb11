package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"dynloop/internal/harness"
	"dynloop/internal/obs"
)

// counters is a snapshot of the process-wide counts the modules already
// expose: harness traversal/replay counters and the obs registry.
type counters struct {
	traversals, replays, instr, events, shed, putBytes uint64
}

func snapshot() counters {
	var b bytes.Buffer
	obs.Default.WriteTo(&b)
	m, err := obs.ParseText(b.Bytes())
	if err != nil {
		panic(fmt.Sprintf("perfbench: parsing the obs registry: %v", err))
	}
	return counters{
		traversals: harness.Traversals(),
		replays:    harness.Replays(),
		instr:      uint64(m["dynloop_interp_instructions_total"]),
		events:     uint64(m["dynloop_replay_events_total"]),
		shed:       uint64(m["dynloop_http_shed_total"]),
		putBytes:   uint64(m["dynloop_store_put_bytes_total"]),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		traversals: c.traversals - o.traversals,
		replays:    c.replays - o.replays,
		instr:      c.instr - o.instr,
		events:     c.events - o.events,
		shed:       c.shed - o.shed,
		putBytes:   c.putBytes - o.putBytes,
	}
}

// exactCounts collects, per count name, the value each repetition of
// one seed produced. Every such count must repeat exactly; mismatches
// lists those that did not.
type exactCounts map[string][]uint64

func (e exactCounts) add(name string, v uint64) { e[name] = append(e[name], v) }

func (e exactCounts) mismatches() []string {
	var out []string
	for name, vs := range e {
		for _, v := range vs[1:] {
			if v != vs[0] {
				out = append(out, fmt.Sprintf("%s=%v", name, vs))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func (e exactCounts) report() string {
	if bad := e.mismatches(); len(bad) > 0 {
		return "counts that did not repeat exactly: " + strings.Join(bad, " ")
	}
	names := make([]string, 0, len(e))
	for name := range e {
		names = append(names, name)
	}
	sort.Strings(names)
	return "counts repeated exactly across repetitions: " + strings.Join(names, " ")
}
