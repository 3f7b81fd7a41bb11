// Package store is the persistent tier of the experiment-result cache:
// a content-addressed, crash-safe on-disk key/value store for encoded
// cell results. The address of a result is its complete cell
// configuration — the versioned runner cache key — so a store can be
// shared by every process (and, through `dynloop serve`, every client)
// that agrees on the key schema, and the millionth identical query
// costs one index lookup instead of one interpreter traversal.
//
// Layout: a directory of append-only segment files (seg-000001.dlstore,
// seg-000002.dlstore, ...), each
//
//	header:  magic "DLSTORE1\n"
//	records: uvarint bodyLen, 4-byte little-endian CRC32 (IEEE) of the
//	         body, body = uvarint recVersion, uvarint keyLen, key,
//	         uvarint valLen, val
//
// following the tracefile encoding discipline (varint framing, explicit
// magic, integrity checks, ErrCorrupt). Writes append whole records in
// a single write; the in-memory index (key → segment/offset, last write
// wins) is rebuilt on Open by scanning every segment. Crash safety
// falls out of the framing: a torn final record in the newest segment
// is truncated away on Open, while corruption anywhere earlier — bytes
// that were once durable — surfaces as ErrCorrupt rather than being
// silently skipped. Every Get re-verifies its record's CRC and key, so
// bytes that change on disk after Open turn a read into an error, never
// into silently wrong bytes.
//
// Keys are content-addressed and the runner Puts a key only after a
// miss, so records are almost never superseded; the store keeps no
// index files and never rewrites a segment.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynloop/internal/obs"
)

const (
	magic = "DLSTORE1\n"
	// recVersion is the record-body schema version; readers reject
	// records from a future schema instead of misparsing them.
	recVersion = 1
	// DefaultMaxSegmentBytes is the segment size at which Put rotates to
	// a fresh segment file.
	DefaultMaxSegmentBytes = 64 << 20
	// maxRecordBytes bounds a single record allocation when scanning
	// untrusted files.
	maxRecordBytes = 64 << 20
)

// ErrCorrupt reports a malformed store segment (outside the torn tail
// of the newest segment, which Open repairs by truncation).
var ErrCorrupt = errors.New("store: corrupt segment")

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("store: closed")

// Options tune a Store.
type Options struct {
	// MaxSegmentBytes rotates the active segment past this size;
	// 0 selects DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
}

// Stats are store-lifetime and on-disk counters.
type Stats struct {
	// Records is the number of live keys in the index.
	Records int
	// Segments is the number of segment files.
	Segments int
	// Bytes is the total on-disk size of all segments.
	Bytes int64
	// Puts and Gets count operations since Open; Hits counts Gets that
	// found their key.
	Puts, Gets, Hits uint64
	// TruncatedTail is the number of torn-tail bytes Open discarded
	// while recovering the newest segment.
	TruncatedTail int64
}

// ref locates one record inside a segment.
type ref struct {
	seg  int   // index into Store.segs
	off  int64 // byte offset of the record's frame start
	rlen int   // full framed record length
}

// segment is one open segment file. The file handle is shared by
// readers that have released the store lock, so its lifetime is
// refcounted: the store holds one reference, each in-flight Get holds
// one more, and the file closes when the last reference drops (after
// Close, once in-flight reads drain).
type segment struct {
	path string
	f    *os.File
	size int64
	refs atomic.Int64
	// written says the session wrote to the file since it was opened
	// or last synced; Sync and Close sync only such segments. It is
	// guarded by Store.mu.
	written bool
}

func newSegment(path string, f *os.File, size int64) *segment {
	seg := &segment{path: path, f: f, size: size}
	seg.refs.Store(1)
	return seg
}

func (g *segment) acquire() { g.refs.Add(1) }

func (g *segment) release() {
	if g.refs.Add(-1) == 0 {
		g.f.Close()
	}
}

// Store is the on-disk result store. It is safe for concurrent use.
type Store struct {
	dir    string
	maxSeg int64

	mu      sync.RWMutex
	idx     map[string]ref
	segs    []*segment
	nextSeq int // next segment file number
	closed  bool

	// Children of the package's series (see metrics.go): each bump
	// also moves the process-wide scrape.
	puts, gets, hits, truncated *obs.Counter
}

// Open opens (creating if needed) the store in dir and rebuilds the
// index by scanning every segment, oldest first. A torn tail in the
// newest segment is recovered by truncating it at the last intact
// record; any other malformed byte is ErrCorrupt. Files other than
// segments are ignored.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	maxSeg := opts.MaxSegmentBytes
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegmentBytes
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.dlstore"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	s := &Store{dir: dir, maxSeg: maxSeg, idx: make(map[string]ref), nextSeq: 1,
		puts: mPuts.Child(), gets: mGets.Child(), hits: mHits.Child(), truncated: mTruncatedBytes.Child()}
	for i, name := range names {
		if n, ok := segSeq(name); ok && n >= s.nextSeq {
			s.nextSeq = n + 1
		}
		if err := s.openSegment(name, i == len(names)-1); err != nil {
			s.closeOnError()
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if err := s.addSegment(); err != nil {
			return nil, err
		}
	}
	mOpenSeconds.Observe(time.Since(start).Seconds())
	return s, nil
}

// segSeq parses the sequence number out of a segment file name.
func segSeq(path string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.dlstore", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// openSegment scans one segment file and indexes its records, a later
// record superseding an earlier one of the same key. last marks the
// newest segment, whose torn tail (an interrupted final write) is
// repaired by truncation; earlier segments must be fully intact.
func (s *Store) openSegment(path string, last bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mSegScans.Inc()
	si := len(s.segs)
	good, err := scanSegment(data, func(key []byte, off int64, rlen int, _ int64) {
		s.idx[string(key)] = ref{seg: si, off: off, rlen: rlen}
	})
	if err != nil {
		if !last || !errors.Is(err, errTorn) {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	seg := newSegment(path, f, good)
	if good < int64(len(data)) {
		seg.written = true
		// Torn tail in the newest segment: drop the partial record so
		// the next Put appends a clean one.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return err
		}
		s.truncated.Add(uint64(int64(len(data)) - good))
	}
	if good < int64(len(magic)) {
		// The tear was inside the header itself; restore the magic so
		// the segment stays well-formed.
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return err
		}
		seg.size, seg.written = int64(len(magic)), true
	}
	s.segs = append(s.segs, seg)
	return nil
}

// closeOnError abandons a partially-opened store, releasing the
// segment handles opened so far.
func (s *Store) closeOnError() {
	s.closed = true
	for _, seg := range s.segs {
		seg.release()
	}
}

// addSegment creates and opens the next empty segment file.
func (s *Store) addSegment() error {
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.dlstore", s.nextSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return err
	}
	s.nextSeq++
	seg := newSegment(path, f, int64(len(magic)))
	seg.written = true
	s.segs = append(s.segs, seg)
	return nil
}

// encodeRecord frames one key/value record.
func encodeRecord(key string, val []byte) []byte {
	body := make([]byte, 0, 2+10+len(key)+10+len(val))
	body = binary.AppendUvarint(body, recVersion)
	body = binary.AppendUvarint(body, uint64(len(key)))
	body = append(body, key...)
	body = binary.AppendUvarint(body, uint64(len(val)))
	body = append(body, val...)

	rec := make([]byte, 0, binary.MaxVarintLen64+4+len(body))
	rec = binary.AppendUvarint(rec, uint64(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// Put appends one key/value record and updates the index (last write
// wins). The record is written in a single write call so a crash leaves
// at worst one torn tail, never an half-indexed state.
func (s *Store) Put(key string, val []byte) error {
	rec := encodeRecord(key, val)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	active := s.segs[len(s.segs)-1]
	if active.size > int64(len(magic)) && active.size+int64(len(rec)) > s.maxSeg {
		if err := s.addSegment(); err != nil {
			return err
		}
		mRotations.Inc()
		active = s.segs[len(s.segs)-1]
	}
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		return err
	}
	s.idx[key] = ref{seg: len(s.segs) - 1, off: active.size, rlen: len(rec)}
	active.size += int64(len(rec))
	active.written = true
	s.puts.Inc()
	mPutBytes.Add(uint64(len(rec)))
	return nil
}

// Get returns the stored value for key, or ok=false when absent. The
// returned slice is freshly read and owned by the caller. The read
// happens outside the store lock (the segment handle is pinned by a
// reference count), so Gets overlap Puts and each other; the record's
// CRC and key are re-verified on the way out, so bytes that changed on
// disk — or a bad index entry, however it arose — surface as
// ErrCorrupt, never as wrong bytes.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, ErrClosed
	}
	s.gets.Inc()
	r, ok := s.idx[key]
	if !ok {
		s.mu.RUnlock()
		return nil, false, nil
	}
	seg := s.segs[r.seg]
	seg.acquire()
	s.mu.RUnlock()
	defer seg.release()
	s.hits.Inc()
	buf := make([]byte, r.rlen)
	if _, err := seg.f.ReadAt(buf, r.off); err != nil {
		return nil, false, fmt.Errorf("%w: reading %q: %v", ErrCorrupt, key, err)
	}
	val, err := recordValue(buf, key)
	if err != nil {
		return nil, false, fmt.Errorf("%w: reading %q: %v", ErrCorrupt, key, err)
	}
	return val, true, nil
}

// recordValue checks one framed record's CRC and key and extracts its
// value without materializing a Record (the Get fast path: no
// key-string allocation).
func recordValue(buf []byte, key string) ([]byte, error) {
	bodyLen, n := binary.Uvarint(buf)
	if n <= 0 || bodyLen > maxRecordBytes || uint64(len(buf)) != uint64(n)+4+bodyLen {
		return nil, errors.New("bad record framing")
	}
	body := buf[uint64(n)+4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[n:n+4]) {
		return nil, errors.New("CRC mismatch")
	}
	ver, n := binary.Uvarint(body)
	if n <= 0 || ver != recVersion {
		return nil, fmt.Errorf("record version %d", ver)
	}
	pos := n
	keyLen, n := binary.Uvarint(body[pos:])
	if n <= 0 || keyLen > uint64(len(body)-pos-n) {
		return nil, errors.New("bad key length")
	}
	pos += n
	if string(body[pos:pos+int(keyLen)]) != key {
		return nil, fmt.Errorf("record holds key %q", body[pos:pos+int(keyLen)])
	}
	pos += int(keyLen)
	valLen, n := binary.Uvarint(body[pos:])
	if n <= 0 || uint64(pos+n)+valLen != uint64(len(body)) {
		return nil, errors.New("bad value length")
	}
	pos += n
	return body[pos : pos+int(valLen)], nil
}

// Has reports whether key is present, without reading the value.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.idx[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// Keys returns the live keys, sorted (for diagnostics and tests).
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.idx))
	for k := range s.idx {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// SegmentInfo describes one segment for diagnostics (`dynloop store ls`).
type SegmentInfo struct {
	Path    string
	Records int   // live keys resolving into this segment
	Bytes   int64 // on-disk size
}

// Segments returns a per-segment snapshot, oldest first.
func (s *Store) Segments() []SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SegmentInfo, len(s.segs))
	for i, seg := range s.segs {
		out[i] = SegmentInfo{Path: seg.path, Bytes: seg.size}
	}
	for _, r := range s.idx {
		out[r.seg].Records++
	}
	return out
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Records:       len(s.idx),
		Segments:      len(s.segs),
		Puts:          s.puts.Value(),
		Gets:          s.gets.Value(),
		Hits:          s.hits.Value(),
		TruncatedTail: int64(s.truncated.Value()),
	}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	return st
}

// syncFile flushes one segment file; tests count the calls.
var syncFile = (*os.File).Sync

// sync flushes seg if the session wrote to it since it was opened or
// last synced.
func (seg *segment) sync() error {
	if !seg.written {
		return nil
	}
	if err := syncFile(seg.f); err != nil {
		return err
	}
	seg.written = false
	return nil
}

// Sync flushes every segment this session wrote to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, seg := range s.segs {
		if err := seg.sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs every segment this session wrote and drops the store's
// segment references; each segment file closes once its last in-flight
// read drains. A read-only session syncs nothing. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.sync(); err != nil && first == nil {
			first = err
		}
		seg.release()
	}
	return first
}

// errTorn distinguishes a cleanly-truncated tail (recoverable in the
// newest segment) from outright corruption (wrong magic, CRC mismatch,
// garbage framing mid-file).
var errTorn = errors.New("torn tail")

// scanSegment walks a whole segment image, checking every record's
// framing and CRC, and calls fn with each intact record's key, which
// aliases data, the offset and length of its frame and the offset of its
// value, which runs to the frame's end. It returns the byte offset of
// the last intact record's end. A segment that simply stops mid-record
// (a torn append) returns errTorn with good marking the intact prefix;
// anything else malformed — bad magic, CRC mismatch, oversized framing,
// a record-version from the future — returns a hard error wrapping
// ErrCorrupt. It never panics and never reports a record it did not
// fully verify. It copies nothing, so an Open that only indexes the
// records allocates no more than their keys.
func scanSegment(data []byte, fn func(key []byte, off int64, rlen int, valOff int64)) (good int64, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		// A short file can only be a torn header write if it is a strict
		// magic prefix.
		if len(data) < len(magic) && string(data) == magic[:len(data)] {
			return 0, errTorn
		}
		return 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	pos := int64(len(magic))
	for int(pos) < len(data) {
		rest := data[pos:]
		bodyLen, n := binary.Uvarint(rest)
		if n <= 0 {
			if len(rest) < binary.MaxVarintLen64 {
				return pos, errTorn
			}
			return pos, fmt.Errorf("%w: bad record length at %d", ErrCorrupt, pos)
		}
		if bodyLen > maxRecordBytes {
			return pos, fmt.Errorf("%w: record length %d at %d", ErrCorrupt, bodyLen, pos)
		}
		if uint64(len(rest)) < uint64(n)+4+bodyLen {
			return pos, errTorn
		}
		crc := binary.LittleEndian.Uint32(rest[n : n+4])
		body := rest[uint64(n)+4 : uint64(n)+4+bodyLen]
		if crc32.ChecksumIEEE(body) != crc {
			return pos, fmt.Errorf("%w: CRC mismatch at %d", ErrCorrupt, pos)
		}
		key, valOff, derr := parseBody(body)
		if derr != nil {
			return pos, fmt.Errorf("%w: record at %d: %v", ErrCorrupt, pos, derr)
		}
		rlen := n + 4 + int(bodyLen)
		fn(key, pos, rlen, pos+int64(n)+4+int64(valOff))
		pos += int64(rlen)
	}
	return pos, nil
}

// parseBody parses one CRC-verified record body, returning its key and
// the offset of its value, which runs to the body's end; both alias
// body.
func parseBody(body []byte) (key []byte, valOff int, err error) {
	pos := 0
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("bad %s", what)
		}
		pos += n
		return v, nil
	}
	ver, err := uv("record version")
	if err != nil {
		return nil, 0, err
	}
	if ver != recVersion {
		return nil, 0, fmt.Errorf("record version %d (this build reads %d)", ver, recVersion)
	}
	keyLen, err := uv("key length")
	if err != nil {
		return nil, 0, err
	}
	if keyLen > uint64(len(body)-pos) {
		return nil, 0, fmt.Errorf("key length %d exceeds body", keyLen)
	}
	key = body[pos : pos+int(keyLen)]
	pos += int(keyLen)
	valLen, err := uv("value length")
	if err != nil {
		return nil, 0, err
	}
	if valLen != uint64(len(body)-pos) {
		return nil, 0, fmt.Errorf("value length %d does not fill body (%d left)", valLen, len(body)-pos)
	}
	return key, pos, nil
}
