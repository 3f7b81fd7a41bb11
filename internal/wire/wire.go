// Package wire is the grid-serving protocol shared by the HTTP daemon
// (internal/server) and its Go client (internal/client): JSON request
// envelopes, and one binary response format whose cell payloads are the
// exact codec frames the on-disk store persists — a cell crosses the
// network in the same bytes it lives on disk in, so remote and local
// results cannot drift.
//
// Cells format (the POST /v1/grid response — one codec frame per cell
// of a declarative grid, in the spec's canonical cell order; the
// coordinates never cross the wire because the spec expansion is
// deterministic on both ends; little-endian, varint-based, after
// tracefile/store):
//
//	magic "DLCELL1\n"
//	uvarint cell count
//	cells:  uvarint frameLen, frame
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"dynloop/internal/codec"
	"dynloop/internal/grid"
)

const cellsMagic = "DLCELL1\n"

// maxCells bounds the cell count of one decoded payload.
const maxCells = 1 << 22

// ErrCorrupt reports a malformed grid payload.
var ErrCorrupt = errors.New("wire: corrupt grid payload")

// GridRequest asks the daemon to execute one declarative grid: either a
// registered spec by name ("table1", "fig7", "ablation/cls", ...) or an
// inline ad-hoc grid.Spec. Budget, Seed, Benchmarks and BatchSize are
// the config-level defaults the spec's zero-valued axes resolve to —
// the same knobs the local CLI passes — so a remote grid reproduces
// `dynloop grid` byte for byte.
type GridRequest struct {
	Name       string     `json:"name,omitempty"`
	Spec       *grid.Spec `json:"spec,omitempty"`
	Benchmarks []string   `json:"benchmarks,omitempty"`
	Budget     uint64     `json:"budget,omitempty"`
	Seed       uint64     `json:"seed,omitempty"`
	BatchSize  int        `json:"batch_size,omitempty"`
}

// GridInfo is one registry entry in the daemon's GET /v1/grids listing.
// The full canonical Spec rides along so a client can fetch it, modify
// an axis, and POST it back as an ad-hoc grid.
type GridInfo struct {
	Name  string    `json:"name"`
	Title string    `json:"title,omitempty"`
	Kind  string    `json:"kind"`
	Cells int       `json:"cells"`
	Spec  grid.Spec `json:"spec"`
}

// maxPooled bounds the buffers this package's pools keep. A daemon may
// serve payloads of about 10 MB (server.DefaultMaxCells); a buffer grown
// that large for one grid is left to the collector, not pinned.
const maxPooled = 1 << 20

var buffers = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer takes an empty payload buffer from the package's pool. The
// daemon reads a grid request into one and encodes the response into
// the same one, and the client reads a response into one; each hands it
// back with PutBuffer once nothing reads it any more.
func GetBuffer() *[]byte {
	bp := buffers.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuffer hands a buffer from GetBuffer back to the pool, unless it
// grew past maxPooled. The caller must not use it afterwards.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		buffers.Put(bp)
	}
}

// ReadBuffer reads r to EOF into a buffer from GetBuffer, presized for
// the size bytes r declares (an HTTP Content-Length; -1 if unknown).
// The presize stops at maxPooled, so a hostile or broken header cannot
// make the reader allocate what it declares; the rest of a larger body
// grows the buffer as it arrives. The caller hands the buffer back with
// PutBuffer; on an error it is already back.
func ReadBuffer(r io.Reader, size int64) (*[]byte, error) {
	bp := GetBuffer()
	b := *bp
	if size > int64(cap(b)) {
		b = slices.Grow(b, int(min(size, maxPooled)))
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*bp = b
		if err == io.EOF {
			return bp, nil
		}
		if err != nil {
			PutBuffer(bp)
			return nil, err
		}
	}
}

// cellsEnc is AppendCells' frame storage: the payload's frames back to
// back in one Enc, and where each ends.
type cellsEnc struct {
	enc  codec.Enc
	ends []int
}

var cellsEncs = sync.Pool{New: func() any { return new(cellsEnc) }}

// AppendCells encodes grid cell values onto b in the cells format:
// magic, a count, then one codec frame per cell in the grid's canonical
// cell order. The spec itself does not cross the wire — its expansion
// is deterministic, so the receiver rebuilds the cells locally
// (grid.ResultFrom) and pairs them with these values.
//
// The frames are encoded first, into storage taken from a pool and
// given back before AppendCells returns, so the payload's size is known
// before b grows: b grows at most once, to exactly the payload, and
// AppendCells(nil, values) allocates one slice. The returned bytes are
// the caller's, like append's; nothing else holds them.
func AppendCells(b []byte, values []any) ([]byte, error) {
	ce := cellsEncs.Get().(*cellsEnc)
	defer func() {
		if cap(ce.enc.Bytes()) <= maxPooled {
			ce.enc.Reset()
			ce.ends = ce.ends[:0]
			cellsEncs.Put(ce)
		}
	}()
	n := len(cellsMagic) + uvarintLen(uint64(len(values)))
	start := 0
	for i, v := range values {
		if err := ce.enc.Append(v); err != nil {
			return nil, fmt.Errorf("wire: cell %d: %w", i, err)
		}
		end := len(ce.enc.Bytes())
		ce.ends = append(ce.ends, end)
		n += uvarintLen(uint64(end-start)) + end - start
		start = end
	}
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), len(b)+n)
		copy(nb, b)
		b = nb
	}
	b = append(b, cellsMagic...)
	b = binary.AppendUvarint(b, uint64(len(values)))
	frames, start := ce.enc.Bytes(), 0
	for _, end := range ce.ends {
		b = binary.AppendUvarint(b, uint64(end-start))
		b = append(b, frames[start:end]...)
		start = end
	}
	return b, nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// DecodeCells parses a cells payload occupying all of b. The values
// share no bytes with b (codec.Dec copies strings and slices out), so
// the caller may reuse b once DecodeCells returns.
func DecodeCells(b []byte) ([]any, error) {
	if len(b) < len(cellsMagic) || string(b[:len(cellsMagic)]) != cellsMagic {
		return nil, fmt.Errorf("%w: bad cells magic", ErrCorrupt)
	}
	pos := len(cellsMagic)
	count, n := uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad cell count", ErrCorrupt)
	}
	pos += n
	// Every cell takes at least its one-byte frame length, so a count
	// larger than the bytes left is corrupt: reject it before it sizes
	// an allocation.
	if count > maxCells || count > uint64(len(b)-pos) {
		return nil, fmt.Errorf("%w: cell count %d for %d payload bytes", ErrCorrupt, count, len(b)-pos)
	}
	values := make([]any, 0, count)
	var d codec.Dec
	for i := uint64(0); i < count; i++ {
		flen, n := uvarint(b[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad frame length at cell %d", ErrCorrupt, i)
		}
		pos += n
		if flen > uint64(len(b)-pos) {
			return nil, fmt.Errorf("%w: frame length %d exceeds payload at cell %d", ErrCorrupt, flen, i)
		}
		v, err := d.Decode(b[pos : pos+int(flen)])
		if err != nil {
			return nil, fmt.Errorf("wire: cell %d: %w", i, err)
		}
		pos += int(flen)
		values = append(values, v)
	}
	if pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-pos)
	}
	return values, nil
}

// Event mirrors runner.Event for the SSE progress stream.
type Event struct {
	Kind      string `json:"kind"`
	Key       string `json:"key,omitempty"`
	Label     string `json:"label,omitempty"`
	Err       string `json:"err,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Completed uint64 `json:"completed"`
}

// RunnerStats mirrors runner.Stats for the stats endpoint.
type RunnerStats struct {
	Submitted  uint64 `json:"submitted"`
	Executed   uint64 `json:"executed"`
	CacheHits  uint64 `json:"cache_hits"`
	Coalesced  uint64 `json:"coalesced"`
	Failures   uint64 `json:"failures"`
	GroupRuns  uint64 `json:"group_runs"`
	DiskHits   uint64 `json:"disk_hits"`
	DiskPuts   uint64 `json:"disk_puts"`
	TierErrors uint64 `json:"tier_errors"`
	ReplayRuns uint64 `json:"replay_runs"`
	RecordRuns uint64 `json:"record_runs"`
}

// StoreStats mirrors store.Stats for the stats endpoint.
type StoreStats struct {
	Records       int    `json:"records"`
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	Puts          uint64 `json:"puts"`
	Gets          uint64 `json:"gets"`
	Hits          uint64 `json:"hits"`
	TruncatedTail int64  `json:"truncated_tail"`
}

// PlaneStats counts interpreter runs and archive replays by the event
// facet the run negotiated with its sink: control-plane-only delivery,
// control-plane delivery with the data tap (interpreter only) or full
// events (see trace.PlanesOf).
type PlaneStats struct {
	InterpCtl  uint64 `json:"interp_ctl"`
	InterpTap  uint64 `json:"interp_tap"`
	InterpFull uint64 `json:"interp_full"`
	ReplayCtl  uint64 `json:"replay_ctl"`
	ReplayFull uint64 `json:"replay_full"`
}

// TraceStats mirrors harness.TracesStats for the stats endpoint.
type TraceStats struct {
	Replays   uint64 `json:"replays"`
	Records   uint64 `json:"records"`
	Fallbacks uint64 `json:"fallbacks"`
}

// ArchiveStats mirrors tracefile.ArchiveStats for the stats endpoint.
type ArchiveStats struct {
	Recordings    int    `json:"recordings"`
	Records       uint64 `json:"records"`
	Invalidated   uint64 `json:"invalidated"`
	SchemaSkips   uint64 `json:"schema_skips"`
	TruncatedTail uint64 `json:"truncated_tail"`
}

// ServerStats reports the daemon's own HTTP-layer counters: totals
// across endpoints (the per-endpoint breakdown and latency histograms
// live on GET /metrics).
type ServerStats struct {
	Requests uint64 `json:"requests"`
	Shed     uint64 `json:"shed"`
	InFlight int64  `json:"in_flight"`
}

// Stats is the daemon's stats response.
type Stats struct {
	Workers    uint64        `json:"workers"`
	Traversals uint64        `json:"traversals"`
	Replays    uint64        `json:"replays"`
	Runner     RunnerStats   `json:"runner"`
	Planes     PlaneStats    `json:"planes"`
	Server     ServerStats   `json:"server"`
	Store      *StoreStats   `json:"store,omitempty"`
	Traces     *TraceStats   `json:"traces,omitempty"`
	Archive    *ArchiveStats `json:"archive,omitempty"`
}

// uvarint reads a varint in its shortest form, the only one AppendCells
// writes: a padded encoding reports n = 0 like any other bad varint, so
// no two payloads decode to the same cells.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}
