package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"dynloop/internal/client"
	"dynloop/internal/expt"
	"dynloop/internal/grid"
	"dynloop/internal/server"
	"dynloop/internal/spec"
	"dynloop/internal/wire"
)

// ExampleClient runs a small remote sweep against an in-process daemon
// and renders it as `dynloop sweep -remote` does. Against a real
// deployment, replace the httptest server with the daemon's address:
// client.New("http://127.0.0.1:9090", nil).
func ExampleClient() {
	srv := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := client.New(hs.URL, hs.Client())
	cfg := expt.Config{Benchmarks: []string{"swim"}, Budget: 100_000}
	gs := expt.SweepSpec{Policies: []spec.Policy{spec.STRn(3)}, TUs: []int{4}}.GridSpec()
	values, err := c.Grid(context.Background(), wire.GridRequest{
		Spec:       &gs,
		Benchmarks: cfg.Benchmarks,
		Budget:     cfg.Budget,
	})
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	res, err := grid.ResultFrom(cfg, gs, values)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	out, err := grid.RenderResult(res)
	if err != nil {
		fmt.Println("render:", err)
		return
	}
	fmt.Print(out)
	// Output:
	// Sweep: benchmark × policy × TUs
	// bench  policy  TUs   TPC  hit %  #spec.  threads/spec
	// -----------------------------------------------------
	// swim   STR(3)    4  3.50  84.75     991          3.00
}
