package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/codec"
	"dynloop/internal/grid"
	"dynloop/internal/runner"
	"dynloop/internal/server"
	"dynloop/internal/store"
	"dynloop/internal/wire"
	"dynloop/internal/workload"
)

// The serve-mix traffic is assumed, not measured: the repository holds no
// record of the requests a daemon receives. The budgets, the grid subset
// and the kind split below are choices; README.md gives the reasoning
// for each. Revisit them once a request log exists.
const (
	// serveBudget is the budget of the named grids the mix requests: small
	// enough that set-up can warm the store nine times within a run.
	serveBudget = 100_000
	// writeBudget is the budget of the inline grids the mix writes: one
	// short traversal each, so a write costs a few milliseconds.
	writeBudget = 20_000
	// mixSize is the number of requests one repetition sends: enough for
	// the repetition's own p99 to have ten requests beyond it.
	mixSize = 1000
	// serveClients is the number of closed-loop clients.
	serveClients = 2
)

// serveGrids are the registered grids the mix names; set-up warms the
// store with every one of their cells. They cover the grid kinds table1,
// fig4, spec (fig6, table2), branchpred and oneshots.
var serveGrids = []string{"table1", "fig4", "fig6", "table2", "baseline/branch", "ablation/oneshots"}

// Request kinds of the mix.
const (
	kindGrid  = "grid"  // POST /v1/grid of a registered grid
	kindCell  = "cell"  // GET /v1/cell of a stored cell key
	kindWrite = "write" // POST /v1/grid of a one-cell inline grid at a fresh seed
)

// mixReq is one request of the serve-mix stream.
type mixReq struct {
	Kind  string
	Name  string // kindGrid: registered grid
	Key   string // kindCell: cell key
	Bench string // kindWrite: benchmark
	Seed  uint64 // kindWrite: fresh input seed
}

// buildMix draws the request stream from seed. Its make-up is fixed, so
// every seed costs about the same: 70% named grids, each grid equally
// often; 20% reads of keys drawn from keys; 10% writes, spread evenly
// over the benchmarks, each at its own seed (none equal to the
// store's). The split is an assumption (see serveBudget). The seed
// draws the keys and the write seeds and shuffles the order.
func buildMix(seed uint64, n int, grids, keys, benches []string) []mixReq {
	r := rand.New(rand.NewPCG(seed, 0x5eed_0f_5e7e))
	writes, cells := n/10, n/5
	out := make([]mixReq, 0, n)
	for i := range n - writes - cells {
		out = append(out, mixReq{Kind: kindGrid, Name: grids[i%len(grids)]})
	}
	for range cells {
		out = append(out, mixReq{Kind: kindCell, Key: keys[r.IntN(len(keys))]})
	}
	base := resolveSeed(seed) + 1000 + r.Uint64N(1<<20)
	for i := range writes {
		out = append(out, mixReq{Kind: kindWrite, Bench: benches[i%len(benches)], Seed: base + uint64(i)})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gridRequest is the wire request of a grid or write mix entry, and the
// config and spec a client rebuilds the result from.
func (m mixReq) gridRequest(seed uint64) (wire.GridRequest, grid.Config, grid.Spec) {
	if m.Kind == kindWrite {
		s := grid.Spec{Kind: "table1", Benchmarks: []string{m.Bench}}
		return wire.GridRequest{Spec: &s, Budget: writeBudget, Seed: m.Seed},
			grid.Config{Budget: writeBudget, Seed: m.Seed}, s
	}
	e, _ := grid.Lookup(m.Name)
	return wire.GridRequest{Name: m.Name, Budget: serveBudget, Seed: seed},
		grid.Config{Budget: serveBudget, Seed: seed}, e.Spec
}

// serveEnv runs the serve-mix workload.
type serveEnv struct {
	seed    uint64
	workers int
	work    string
	golden  string // warm store copied for every repetition
	mix     []mixReq
	want    [][]byte // expected response bytes per mix entry
	keys    []string // every stored cell key
}

// setup warms a store in dir with every cell of serveGrids, then starts
// a daemon on it, checks it is healthy and stops it. It returns the
// warm results.
func (e *serveEnv) setup(ctx context.Context, dir string) (map[string]*grid.Result, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	cfg := grid.Config{Budget: serveBudget, Seed: e.seed,
		Runner: runner.New(runner.Config{Workers: e.workers, Cache: store.NewCache(st)})}
	out := map[string]*grid.Result{}
	for _, name := range serveGrids {
		g, ok := grid.Lookup(name)
		if !ok {
			st.Close()
			return nil, fmt.Errorf("grid %q not registered", name)
		}
		if out[name], err = grid.Run(ctx, cfg, g.Spec); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, e.workers, nil, nil)
	if err != nil {
		return nil, err
	}
	herr := client.New(d.base, nil).Health(ctx)
	if err := d.stop(); err != nil {
		return nil, err
	}
	return out, herr
}

// prepare draws the request stream and computes every expected
// response locally: named grids and cells from the warm results, writes
// with a local grid.Run of the same request.
func (e *serveEnv) prepare(ctx context.Context, warm map[string]*grid.Result) error {
	frames := map[string][]byte{}
	payloads := map[string][]byte{}
	for name, res := range warm {
		p, err := wire.AppendCells(nil, res.Values)
		if err != nil {
			return err
		}
		payloads[name] = p
		for i, c := range res.Cells {
			if frames[c.Key], err = codec.Encode(res.Values[i]); err != nil {
				return err
			}
		}
	}
	e.keys = e.keys[:0]
	for k := range frames {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	e.mix = buildMix(e.seed, mixSize, serveGrids, e.keys, workload.Names())
	e.want = make([][]byte, len(e.mix))
	for i, m := range e.mix {
		switch m.Kind {
		case kindGrid:
			e.want[i] = payloads[m.Name]
		case kindCell:
			e.want[i] = frames[m.Key]
		case kindWrite:
			_, cfg, s := m.gridRequest(e.seed)
			cfg.Parallel = 1
			res, err := grid.Run(ctx, cfg, s)
			if err != nil {
				return err
			}
			if e.want[i], err = wire.AppendCells(nil, res.Values); err != nil {
				return err
			}
		}
	}
	return nil
}

// daemon is one in-process `dynloop serve` on loopback.
type daemon struct {
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	done chan error
	base string
	open time.Duration
}

func startDaemon(dir string, workers int, wrap func(http.Handler) http.Handler, onEvent func(runner.Event)) (*daemon, error) {
	t0 := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	d := &daemon{st: st, open: time.Since(t0), done: make(chan error, 1)}
	d.srv = server.New(server.Config{Workers: workers, Store: st, OnEvent: onEvent})
	h := d.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: h}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down, waits for it and closes its store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveRep is what one repetition measured.
type serveRep struct {
	wall    time.Duration
	lat     []time.Duration // every completed request
	failed  int
	errs    []string
	frames  int
	alloc   uint64
	disk    int64
	open    time.Duration
	delta   counters
	rstats  runner.Stats
	sstats  store.Stats
	getEach time.Duration // traced: mean direct Store.Get over the stored keys
	root    int
	srvLog  *serverLog
	jobs    []jobRec
}

// tag identifies a traced request to the daemon-side wrapper.
type tag struct {
	kind, owner string
	span        int
}

type tagKey struct{}

// tagTransport forwards a traced request's tag as headers.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tg, ok := r.Context().Value(tagKey{}).(tag)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set("X-Perfbench-Kind", tg.kind)
	r.Header.Set("X-Perfbench-Req", tg.owner)
	r.Header.Set("X-Perfbench-Span", strconv.Itoa(tg.span))
	return t.base.RoundTrip(r)
}

// serverLog times every request inside the daemon's handler.
type serverLog struct {
	tr    *Tracer
	mu    sync.Mutex
	lat   map[string][]time.Duration // by request kind
	start map[string]time.Time       // by request id
	span  map[string]int             // by request id
}

func newServerLog(tr *Tracer) *serverLog {
	return &serverLog{tr: tr, lat: map[string][]time.Duration{},
		start: map[string]time.Time{}, span: map[string]int{}}
}

func (l *serverLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, owner := r.Header.Get("X-Perfbench-Kind"), r.Header.Get("X-Perfbench-Req")
		parent, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		id := l.tr.Add("server."+kind, parent, owner, t0, t1)
		l.mu.Lock()
		l.lat[kind] = append(l.lat[kind], t1.Sub(t0))
		l.start[owner], l.span[owner] = t0, id
		l.mu.Unlock()
	})
}

// rep restarts the daemon on a fresh copy of the warm store and sends
// the whole request stream from serveClients closed-loop clients.
func (e *serveEnv) rep(ctx context.Context, tr *Tracer) (serveRep, error) {
	var r serveRep
	dir := filepath.Join(e.work, "rep")
	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	if err := copyDir(e.golden, dir); err != nil {
		return r, err
	}
	var wrap func(http.Handler) http.Handler
	var onEvent func(runner.Event)
	var log *jobLog
	transport := http.RoundTripper(&http.Transport{MaxIdleConnsPerHost: serveClients})
	if tr != nil {
		r.srvLog = newServerLog(tr)
		wrap = r.srvLog.wrap
		log = newJobLog()
		onEvent = log.onEvent
		transport = tagTransport{base: transport}
	}
	d, err := startDaemon(dir, e.workers, wrap, onEvent)
	if err != nil {
		return r, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	r.open = d.open
	hc := &http.Client{Transport: transport}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := snapshot()
	start := time.Now()
	r.root = tr.Begin("rep", 0, "")
	outs := make([]clientOut, serveClients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = e.runClient(ctx, c, hc, d.base, tr, r.root)
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	tr.End(r.root)
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.delta = snapshot().sub(before)
	for _, o := range outs {
		r.lat = append(r.lat, o.lat...)
		r.failed += o.failed
		r.errs = append(r.errs, o.errs...)
		r.frames += o.frames
	}
	r.rstats = d.srv.Runner().Stats()
	r.sstats = d.st.Stats()
	if tr != nil {
		t0 := time.Now()
		for _, k := range e.keys {
			if _, _, err := d.st.Get(k); err != nil {
				return r, err
			}
		}
		r.getEach = time.Since(t0) / time.Duration(len(e.keys))
		r.jobs = log.all()
	}
	hc.CloseIdleConnections()
	stopped = true
	if err := d.stop(); err != nil {
		return r, err
	}
	r.disk = dirSize(dir)
	return r, nil
}

// clientOut is what one client saw.
type clientOut struct {
	lat    []time.Duration
	failed int
	frames int
	errs   []string
}

// runClient sends mix entries c, c+serveClients, ... one at a time.
func (e *serveEnv) runClient(ctx context.Context, c int, hc *http.Client, base string, tr *Tracer, root int) clientOut {
	var out clientOut
	cl := client.New(base, hc)
	for i := c; i < len(e.mix); i += serveClients {
		m := e.mix[i]
		owner := strconv.Itoa(i)
		sid := tr.Begin("client."+m.Kind, root, owner)
		rctx := ctx
		if tr != nil {
			rctx = context.WithValue(ctx, tagKey{}, tag{kind: m.Kind, owner: owner, span: sid})
		}
		t0 := time.Now()
		values, err := e.do(rctx, cl, m, tr, sid, owner)
		lat := time.Since(t0)
		tr.End(sid)
		if err == nil {
			err = e.verify(i, m, values, tr, owner)
		}
		if err != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, fmt.Sprintf("request %d (%s): %v", i, m.Kind, err))
			}
			continue
		}
		out.lat = append(out.lat, lat)
		out.frames += len(values)
	}
	return out
}

// do sends one request through the client and decodes the response as a
// daemon user would; for a grid it also rebuilds the result from the
// values with grid.ResultFrom. It returns the decoded values.
func (e *serveEnv) do(ctx context.Context, cl *client.Client, m mixReq, tr *Tracer, parent int, owner string) ([]any, error) {
	if m.Kind == kindCell {
		v, err := cl.Cell(ctx, m.Key)
		if err != nil {
			return nil, err
		}
		return []any{v}, nil
	}
	req, cfg, s := m.gridRequest(e.seed)
	values, err := cl.Grid(ctx, req)
	if err != nil {
		return nil, err
	}
	id := tr.Begin("grid.compile", parent, owner)
	_, err = grid.ResultFrom(cfg, s, values)
	tr.End(id)
	return values, err
}

// verify compares the values of mix entry i, encoded again, with the
// expected response bytes. It runs after the request's latency is
// taken. When traced, it also times the client's wire.DecodeCells of the
// grid payload again, as a span of its own outside the request, because
// client.Grid decodes inside the request where it cannot be timed.
func (e *serveEnv) verify(i int, m mixReq, values []any, tr *Tracer, owner string) error {
	var got []byte
	var err error
	if m.Kind == kindCell {
		got, err = codec.Encode(values[0])
	} else {
		got, err = wire.AppendCells(nil, values)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(got, e.want[i]) {
		return fmt.Errorf("response differs from the local grid.Run")
	}
	if tr != nil && m.Kind != kindCell {
		id := tr.Begin("wire.decode", 0, owner)
		_, err = wire.DecodeCells(got)
		tr.End(id)
	}
	return err
}

// attribute splits the write requests' runner jobs into layers and
// records each job as a span under its request's server span.
func (e *serveEnv) attribute(a *attributor, r serveRep, tr *Tracer) (*attribution, error) {
	bySeed := map[uint64]string{}
	for i, m := range e.mix {
		if m.Kind == kindWrite {
			bySeed[m.Seed] = strconv.Itoa(i)
		}
	}
	at := newAttribution()
	for _, j := range r.jobs {
		s, ok := parseGroupKey(j.key)
		if !ok {
			return nil, fmt.Errorf("job %q is not a fused group", j.key)
		}
		owner, ok := bySeed[s.seed]
		if !ok {
			return nil, fmt.Errorf("job %q matches no write request", j.key)
		}
		tr.Add("runner.job", r.srvLog.span[owner], owner, j.start, j.end)
		if err := at.add(a, j, s, "table1", 1, r.srvLog.start[owner]); err != nil {
			return nil, err
		}
	}
	return at, nil
}

// copyDir copies the regular files of src (not recursive) into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
