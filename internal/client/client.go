// Package client is the Go client for the `dynloop serve` daemon
// (internal/server). It speaks the internal/wire protocol: grid cells
// come back as the same codec frames the daemon's store persists, so a
// remote grid decodes to exactly the values a local run computes —
// `dynloop grid -remote URL` and `dynloop sweep -remote URL` render
// byte-identical output.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"dynloop/internal/codec"
	"dynloop/internal/obs"
	"dynloop/internal/wire"
)

// ErrNotFound reports a cell query for a key the daemon has no result
// for.
var ErrNotFound = errors.New("client: no such cell")

// ErrShed reports a request the daemon refused under load-shedding
// (HTTP 422): the grid was too large or the inflight queue wait
// expired. RetryAfter carries the daemon's jittered Retry-After hint;
// honor it before resubmitting.
type ErrShed struct {
	RetryAfter time.Duration
	Message    string
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("client: shed by daemon (retry after %v): %s", e.RetryAfter, e.Message)
}

// Client talks to one daemon. Create one with New; the zero value is
// not usable.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:9090"). httpClient nil selects
// http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// apiError extracts the daemon's JSON error envelope. Shed responses
// (422) become typed *ErrShed carrying the Retry-After hint so callers
// can back off instead of pattern-matching status text.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if resp.StatusCode == http.StatusUnprocessableEntity {
		retry := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return &ErrShed{RetryAfter: retry, Message: msg}
	}
	if msg != resp.Status {
		return fmt.Errorf("client: %s: %s", resp.Status, msg)
	}
	return fmt.Errorf("client: %s", resp.Status)
}

// Grid submits a declarative grid request (a registered name or an
// inline spec) and decodes the resulting cell values, one per cell in
// the grid's canonical cell order — pair them with the deterministic
// spec expansion via grid.ResultFrom to render exactly what a local
// run renders.
func (c *Client) Grid(ctx context.Context, req wire.GridRequest) ([]any, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	bp, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuffer(bp)
	return wire.DecodeCells(*bp)
}

// Grids lists the daemon's registered grids with their canonical specs.
func (c *Client) Grids(ctx context.Context) ([]wire.GridInfo, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/grids", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var out []wire.GridInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cell fetches one persisted cell result by its full configuration key
// and decodes it through the codec registry. The returned value's
// concrete type is whatever the key's cell produces (e.g.
// spec.Metrics). ErrNotFound reports an absent key.
func (c *Client) Cell(ctx context.Context, key string) (any, error) {
	u := c.base + "/v1/cell?key=" + url.QueryEscape(key)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	bp, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuffer(bp)
	return codec.Decode(*bp)
}

// maxPresize bounds how far a declared Content-Length presizes a read
// buffer, so a hostile or broken header cannot make the client allocate
// what it declares; the rest of a larger body grows the buffer as it
// arrives.
const maxPresize = 1 << 20

// readBody reads resp's whole body into a buffer from wire.GetBuffer,
// presized from its Content-Length. A body shorter than its declared
// length fails with the transport's io.ErrUnexpectedEOF rather than
// reading short. The caller hands the buffer back with wire.PutBuffer
// once the payload is decoded: decoded values copy their strings and
// slices out of it (see codec.Dec.Decode).
func readBody(resp *http.Response) (*[]byte, error) {
	bp := wire.GetBuffer()
	b := *bp
	if n := resp.ContentLength; n > int64(cap(b)) {
		b = slices.Grow(b, int(min(n, maxPresize)))
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*bp = b
		if err == io.EOF {
			return bp, nil
		}
		if err != nil {
			wire.PutBuffer(bp)
			return nil, err
		}
	}
}

// Stats fetches the daemon's runner/store counters.
func (c *Client) Stats(ctx context.Context) (wire.Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return wire.Stats{}, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return wire.Stats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return wire.Stats{}, apiError(resp)
	}
	var st wire.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return wire.Stats{}, err
	}
	return st, nil
}

// Metrics scrapes the daemon's GET /metrics endpoint and returns the
// parsed series: full series name (labels included, as rendered) →
// value. Histograms arrive as their cumulative _bucket/_sum/_count
// series; derive quantiles with obs.BucketsOf and obs.Quantile.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(body)
}

// Health probes the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return nil
}

// Events subscribes to the daemon's progress stream and calls fn for
// every event until ctx is cancelled, the daemon shuts down (returns
// nil), or the stream errors. Slow consumers see gaps, not stalls: the
// daemon drops events a subscriber cannot keep up with. To know when
// the stream has attached, use Subscribe.
func (c *Client) Events(ctx context.Context, fn func(wire.Event)) error {
	s, err := c.Subscribe(ctx)
	if err != nil {
		return err
	}
	return s.Recv(fn)
}

// EventStream is an attached subscription to the daemon's progress
// stream; see Subscribe.
type EventStream struct {
	ctx  context.Context
	body io.ReadCloser
}

// Subscribe attaches to the daemon's progress stream and returns once
// the daemon has subscribed it, so every event the daemon publishes
// after Subscribe returns reaches the stream (a slow reader still sees
// gaps). A caller that must not miss the events of a request it is
// about to send subscribes first, then sends it. The stream lives until
// ctx is cancelled, the daemon shuts down or Recv returns; read it with
// Recv, or Close it unread.
func (c *Client) Subscribe(ctx context.Context) (*EventStream, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return &EventStream{ctx: ctx, body: resp.Body}, nil
}

// Recv calls fn for every event until the stream ends, then closes it.
// It returns nil when the stream's ctx is cancelled or the daemon shuts
// down, and the error otherwise.
func (s *EventStream) Recv(fn func(wire.Event)) error {
	defer s.body.Close()
	sc := bufio.NewScanner(s.body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("client: bad event %q: %w", data, err)
		}
		fn(ev)
	}
	err := sc.Err()
	if err == nil || errors.Is(err, io.EOF) || s.ctx.Err() != nil {
		return nil
	}
	return err
}

// Close ends the stream without reading it.
func (s *EventStream) Close() error { return s.body.Close() }
