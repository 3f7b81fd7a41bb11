package server

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"dynloop/internal/client"
	"dynloop/internal/grid"
	"dynloop/internal/interp"
	"dynloop/internal/program"
	"dynloop/internal/wire"
	"dynloop/internal/workload"
)

// serveShortTimeouts runs a daemon on a loopback port with the
// connection timeouts shortened to d, and returns its address. The
// daemon stops when the test ends.
func serveShortTimeouts(t *testing.T, d time.Duration) string {
	t.Helper()
	s := New(Config{Workers: 1})
	s.readHeaderTimeout, s.idleTimeout = d, d
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, "127.0.0.1:0", ready, time.Second) }()
	addr := <-ready
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("ListenAndServe: %v", err)
		}
	})
	return addr
}

// TestSlowHeaderClientDisconnected: a client that dribbles its request
// headers, one line at a time and never finishing, is disconnected once
// the read-header timeout expires instead of holding the connection.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	const timeout = 200 * time.Millisecond
	addr := serveShortTimeouts(t, timeout)
	// The server's timeout starts once it reads the accepted connection,
	// which can precede Dial's return here, never its start.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: dynloop\r\n")); err != nil {
			return
		}
		for {
			select {
			case <-stop:
				return
			case <-time.After(timeout / 4):
			}
			if _, err := conn.Write([]byte("X-Slow: 1\r\n")); err != nil {
				return
			}
		}
	}()
	// The server may answer 408 before closing; either way the
	// connection must end while the client is still dribbling.
	conn.SetReadDeadline(time.Now().Add(10 * timeout))
	r := bufio.NewReader(conn)
	for {
		if _, err = r.ReadByte(); err != nil {
			break
		}
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the client started dribbling headers", time.Since(start))
	}
	if el := time.Since(start); el < timeout {
		t.Fatalf("connection closed after %v, before the %v read-header timeout", el, timeout)
	}
}

// TestEventStreamOutlivesTimeouts: the connection timeouts must not cut
// a long-lived SSE stream, which is why the daemon sets no write timeout.
func TestEventStreamOutlivesTimeouts(t *testing.T) {
	const timeout = 100 * time.Millisecond
	addr := serveShortTimeouts(t, timeout)
	ctx, cancel := context.WithCancel(context.Background())
	ended := make(chan error, 1)
	go func() { ended <- client.New("http://"+addr, nil).Events(ctx, func(wire.Event) {}) }()
	select {
	case err := <-ended:
		t.Fatalf("event stream ended after less than %v: %v", 5*timeout, err)
	case <-time.After(5 * timeout):
	}
	cancel()
	<-ended
}

// TestDaemonWritesHoldBoundedUnits: a daemon serving writes at ever new
// seeds builds no program per seed: after writes at 40 distinct seeds
// spread over every registered benchmark, the process holds exactly one
// Prog and one predecoded Code per benchmark, shared by the units at
// every written seed.
func TestDaemonWritesHoldBoundedUnits(t *testing.T) {
	ctx := context.Background()
	_, c := newTestDaemon(t, Config{Workers: 2})
	all := workload.All()
	for i := range 40 {
		s := grid.Spec{Kind: "table1", Benchmarks: []string{all[i%len(all)].Name}}
		if _, err := c.Grid(ctx, wire.GridRequest{Spec: &s, Budget: 2_000, Seed: 7_000 + uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	progs := map[*program.Program]bool{}
	codes := map[*interp.Code]bool{}
	for i := range 40 {
		u, err := all[i%len(all)].Build(7_000 + uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		progs[u.Prog] = true
		codes[u.Code()] = true
	}
	if len(progs) != len(all) || len(codes) != len(all) {
		t.Fatalf("after 40 writes the process holds %d programs and %d predecoded codes for %d benchmarks",
			len(progs), len(codes), len(all))
	}
}
