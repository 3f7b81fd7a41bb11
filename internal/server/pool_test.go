package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"dynloop/internal/codec"
	"dynloop/internal/grid"
	"dynloop/internal/store"
	"dynloop/internal/wire"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a measured request allocates nothing on the writer's side.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.status = code }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// warmServedGridSlack bounds how many more bytes the handler around a
// warm fig6 run (72 cells) may allocate than around a warm table1 run
// (18 cells). fig6's payload is about 1 KB larger; encoding it into a
// fresh buffer would show as at least that.
const warmServedGridSlack = 256

// TestWarmServedGridAllocs pins what a served named-grid request costs
// beyond its grid.Run once every cell is in the runner's memory. The
// handler encodes into a pooled buffer sized once, so what a warm fig6
// request allocates more than a warm table1 request is what grid.Run
// allocates more (the runner's per-cell result and cache-entry slices,
// see TestWarmGridAllocs), within warmServedGridSlack bytes, whatever
// the payload size.
func TestWarmServedGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	s := New(Config{Workers: 2})
	h := s.Handler()
	cfg := grid.Config{Budget: 20_000, Seed: 1, Runner: s.Runner()}
	// perRun returns the bytes one call of f allocates, on average.
	perRun := func(f func()) uint64 {
		const runs = 20
		f() // warms the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	warm := func(name string) (served, run uint64) {
		body, err := json.Marshal(wire.GridRequest{Name: name, Budget: cfg.Budget, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		e, _ := grid.Lookup(name)
		gridRun := func() {
			if _, err := grid.Run(context.Background(), cfg, e.Spec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		gridRun() // computes every cell
		served = perRun(func() {
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body)))
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("%s: status %d, %d body bytes", name, w.status, w.n)
			}
		})
		return served, perRun(gridRun)
	}
	smallServed, smallRun := warm("table1")
	largeServed, largeRun := warm("fig6")
	t.Logf("warm bytes per request: table1 %d served, %d in grid.Run; fig6 %d served, %d in grid.Run",
		smallServed, smallRun, largeServed, largeRun)
	if int64(largeServed-smallServed)-int64(largeRun-smallRun) > warmServedGridSlack {
		t.Errorf("a warm served fig6 allocates %d bytes and table1 %d, but their grid.Runs differ by %d; want the handler's difference within %d bytes of that",
			largeServed, smallServed, largeRun-smallRun, warmServedGridSlack)
	}
}

// TestConcurrentServedPayloads has several clients send interleaved
// named-grid, cell and write requests to one daemon. The daemon encodes
// into pooled buffers and the clients read into pooled buffers, so a
// buffer handed back while a handler or a decode still reads it would
// corrupt some other response: every response must equal the local
// grid.Run, encoded by wire.AppendCells (codec.Encode for a cell).
// Under -race it also shows such a buffer as a race.
func TestConcurrentServedPayloads(t *testing.T) {
	ctx := context.Background()
	cfg := grid.Config{Budget: 10_000, Seed: 3, Benchmarks: []string{"swim", "li"}}
	names := []string{"table1", "fig4", "fig6", "baseline/branch"}
	wantGrid := map[string][]byte{}
	wantCell := map[string][]byte{}
	for _, name := range names {
		e, _ := grid.Lookup(name)
		res, err := grid.Run(ctx, cfg, e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if wantGrid[name], err = wire.AppendCells(nil, res.Values); err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Cells {
			if wantCell[c.Key], err = codec.Encode(res.Values[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, c := newTestDaemon(t, Config{Workers: 2, Store: st})
	for _, name := range names { // persists every cell the cell reads ask for
		if _, err := c.Grid(ctx, wire.GridRequest{Name: name, Budget: cfg.Budget, Seed: cfg.Seed, Benchmarks: cfg.Benchmarks}); err != nil {
			t.Fatal(err)
		}
	}
	keys := st.Keys()
	if len(keys) == 0 {
		t.Fatal("the warm-up stored no cells")
	}

	const clients, perClient = 4, 24
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				if err := func() error {
					switch (i + w) % 3 {
					case 0:
						name := names[(i/3+w)%len(names)]
						values, err := c.Grid(ctx, wire.GridRequest{Name: name, Budget: cfg.Budget, Seed: cfg.Seed, Benchmarks: cfg.Benchmarks})
						if err != nil {
							return err
						}
						return sameGrid(values, wantGrid[name], name)
					case 1:
						key := keys[(i*clients+w)%len(keys)]
						v, err := c.Cell(ctx, key)
						if err != nil {
							return err
						}
						got, err := codec.Encode(v)
						if err != nil {
							return err
						}
						if !bytes.Equal(got, wantCell[key]) {
							return fmt.Errorf("cell %q differs from the local grid.Run", key)
						}
						return nil
					default:
						bench := cfg.Benchmarks[i%len(cfg.Benchmarks)]
						s := grid.Spec{Kind: "table1", Benchmarks: []string{bench}}
						seed := uint64(1000 + w*perClient + i)
						values, err := c.Grid(ctx, wire.GridRequest{Spec: &s, Budget: 5_000, Seed: seed})
						if err != nil {
							return err
						}
						local, err := grid.Run(ctx, grid.Config{Budget: 5_000, Seed: seed, Parallel: 1}, s)
						if err != nil {
							return err
						}
						want, err := wire.AppendCells(nil, local.Values)
						if err != nil {
							return err
						}
						return sameGrid(values, want, fmt.Sprintf("write %s@%d", bench, seed))
					}
				}(); err != nil {
					t.Errorf("client %d request %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sameGrid reports whether values encode to want.
func sameGrid(values []any, want []byte, what string) error {
	got, err := wire.AppendCells(nil, values)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s differs from the local grid.Run", what)
	}
	return nil
}
