package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"dynloop/internal/client"
	_ "dynloop/internal/grid" // registers the cell codecs
	"dynloop/internal/spec"
	"dynloop/internal/wire"
)

// gridValues is the payload the fake daemons below serve.
func gridValues() []any {
	values := make([]any, 40)
	for i := range values {
		values[i] = spec.Metrics{Instrs: uint64(10_000 + i), Cycles: uint64(4_000 + i), SpecEvents: uint64(i)}
	}
	return values
}

// fakeDaemon serves every POST /v1/grid with respond and returns a
// client for it.
func fakeDaemon(t *testing.T, respond func(w http.ResponseWriter, payload []byte)) *client.Client {
	t.Helper()
	payload, err := wire.AppendCells(nil, gridValues())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		respond(w, payload)
	}))
	t.Cleanup(hs.Close)
	return client.New(hs.URL, hs.Client())
}

// TestGridChunkedResponse: a grid payload streamed in chunks, with no
// Content-Length to presize from, decodes to the served values.
func TestGridChunkedResponse(t *testing.T) {
	c := fakeDaemon(t, func(w http.ResponseWriter, payload []byte) {
		for len(payload) > 0 {
			n := min(len(payload), 100)
			w.Write(payload[:n])
			w.(http.Flusher).Flush()
			payload = payload[n:]
		}
	})
	for range 3 { // later requests reuse the pooled read buffer
		values, err := c.Grid(context.Background(), wire.GridRequest{Name: "fig6"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(values, gridValues()) {
			t.Fatalf("chunked payload decoded to %+v, want %+v", values, gridValues())
		}
	}
}

// TestGridShortBody: a body shorter than its declared Content-Length is
// an error, not a decode of the bytes that did arrive.
func TestGridShortBody(t *testing.T) {
	c := fakeDaemon(t, func(w http.ResponseWriter, payload []byte) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)+64))
		w.Write(payload)
	})
	if values, err := c.Grid(context.Background(), wire.GridRequest{Name: "fig6"}); err == nil {
		t.Fatalf("a body 64 bytes short of its Content-Length decoded to %d values", len(values))
	}
}

// maxHugeLengthBytes bounds what a request may allocate when its
// response declares a terabyte: the presize cap, plus the HTTP round
// trip's own allocations.
const maxHugeLengthBytes = 16 << 20

// TestGridHugeContentLength: a declared Content-Length presizes the read
// buffer only up to a cap, so a hostile header cannot make the client
// allocate what it declares.
func TestGridHugeContentLength(t *testing.T) {
	c := fakeDaemon(t, func(w http.ResponseWriter, payload []byte) {
		w.Header().Set("Content-Length", "1099511627776")
		w.Write(payload)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Grid(context.Background(), wire.GridRequest{Name: "fig6"})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body a terabyte short of its Content-Length decoded cleanly")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > maxHugeLengthBytes {
		t.Fatalf("a response declaring 1 TiB made the client allocate %d bytes, want at most %d", n, maxHugeLengthBytes)
	}
}
