package main

import "fmt"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
	lower      bool // for end-to-end metrics: lower is better
}

// endToEnd are the metrics every untraced run reports, on every
// workload. On the paper workloads a request is one registered grid of
// the render (grid.Run plus its section renderer); on serve-mix it is
// one HTTP request.
var endToEnd = []metricDef{
	{"wall_s", "s", true},    // one repetition: a full render, or the whole request stream
	{"setup_s", "s", true},   // one-time set-up before the first repetition
	{"alloc_mb", "MB", true}, // heap bytes allocated per repetition
	{"disk_mb", "MB", true},  // bytes on disk after a repetition
	{"rps", "req/s", false},  // requests completed per second of a repetition
	{"p50_ms", "ms", true},   // median request latency
	{"p99_ms", "ms", true},   // request latency at the tail percentile rule
}

// perLayer lists the metrics a traced run reports, in a fixed order.
// Layers a workload does not touch report 0.
func perLayer() []metricDef {
	out := []metricDef{
		{"builder.builds", "count", false}, {"builder.build_s", "s", false},
		{"interp.traversals", "count", false}, {"interp.instr", "count", false},
		{"interp.busy_s", "s", false}, {"interp.ns_per_instr", "ns", false},
		{"tracefile.open_s", "s", false}, {"tracefile.replays", "count", false},
		{"tracefile.events", "count", false}, {"tracefile.busy_s", "s", false},
		{"tracefile.ns_per_event", "ns", false}, {"tracefile.record_s", "s", false},
		{"loopdet.busy_s", "s", false}, {"loopdet.ns_per_instr", "ns", false},
	}
	for _, name := range paperGrids() {
		out = append(out, metricDef{"grid." + flat(name) + ".s", "s", false},
			metricDef{"grid." + flat(name) + ".traversals", "count", false})
	}
	for _, k := range passKinds {
		out = append(out, metricDef{"pass." + k + ".self_s", "s", false})
	}
	return append(out,
		metricDef{"trace.epochs", "count", false},
		metricDef{"runner.jobs", "count", false}, metricDef{"runner.executed", "count", false},
		metricDef{"runner.cache_hits", "count", false}, metricDef{"runner.group_runs", "count", false},
		metricDef{"runner.disk_hits", "count", false}, metricDef{"runner.queue_wait_s", "s", false},
		metricDef{"runner.busy_s", "s", false},
		metricDef{"render.s", "s", false}, metricDef{"grid.compile_s", "s", false},
		metricDef{"wire.decode_s", "s", false}, metricDef{"codec.frames", "count", false},
		metricDef{"store.open_s", "s", false}, metricDef{"store.gets", "count", false},
		metricDef{"store.hits", "count", false}, metricDef{"store.puts", "count", false},
		metricDef{"store.put_bytes", "bytes", false}, metricDef{"store.get_us", "us", false},
		metricDef{"server.grid.p50_ms", "ms", false}, metricDef{"server.grid.p99_ms", "ms", false},
		metricDef{"server.cell.p50_ms", "ms", false}, metricDef{"server.cell.p99_ms", "ms", false},
		metricDef{"server.write.p50_ms", "ms", false}, metricDef{"server.write.p99_ms", "ms", false},
		metricDef{"server.shed", "count", false},
		metricDef{"trace.unattributed_share", "1", false},
		metricDef{"trace.overhead_s", "s", false},
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns the values a workload produced into the reported set:
// every defined metric, unset ones as 0. A value with no definition is
// a bug in the benchmark.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not defined", name)
		}
	}
	return out, nil
}
