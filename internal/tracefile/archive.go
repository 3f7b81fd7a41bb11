package tracefile

// The replay archive: a directory of immutable, CRC-framed recordings,
// one per (benchmark, seed), that serves as the runner's third result
// tier (memory cache → disk store → trace archive → execute). A
// recording made at budget B is budget-prefix truncatable: replay can
// stop after any B' ≤ B events, so one long recording serves every
// shorter budget, and a halted recording serves every budget.
//
// File format (magic "DLTARCH1\n", little-endian, varint-based):
//
//	magic    "DLTARCH1\n"
//	uvarint  archive schema version
//	uvarint  benchmark name length, then that many bytes
//	uvarint  seed
//	program  image (same encoding as the v2 trace file)
//	blocks:  tag 0xFE, uvarint event count, uvarint payload length,
//	         uvarint start pc (the pc of the block's first event),
//	         4-byte little-endian CRC32 (IEEE) of the payload, then
//	         the payload: the template-driven packed event records
//	         (see codec.go) as two planes — one header byte per event,
//	         then the field bytes in event order — sealed with 8 zero
//	         pad bytes so the decoder's unconditional 8-byte field
//	         loads stay in bounds
//	trailer: tag 0xFF, uvarint total event count,
//	         1 byte halted flag (1 = the program halted at that count)
//
// Open-time recovery mirrors internal/store's segment scanner: a torn
// tail (crash mid-append) on the NEWEST file is repaired in place — the
// intact block prefix is kept and a fresh trailer written; torn frames
// on older files and structural damage (bad magic, unparseable header,
// trailer mismatch) surface as ErrCorrupt. Block-level damage (a CRC
// mismatch or an undecodable record inside a CRC-framed block) makes
// that one recording invalid: the file is skipped and counted, the
// lookup misses, and the caller falls back to interpretation and
// re-records over it.
//
// Recordings are held in memory fully validated, so Replay is a pure
// decode of pre-verified bytes: it cannot fail on corruption and runs
// allocation-free with a warmed Decoder.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dynloop/internal/obs"
	"dynloop/internal/program"
	"dynloop/internal/trace"
)

const magicArch = "DLTARCH1\n"

// ArchiveSchemaVersion is the archive's logical schema version,
// embedded in every file header. A reader skips files written under any
// other version (a clean miss, never a stale replay). It is a var so
// tests can prove the bump-misses-archive property.
// Version 2 switched block payloads to the template-driven record
// format (see codec.go): version-1 files are skipped at Open and
// re-recorded on the next miss.
var ArchiveSchemaVersion uint64 = 2

// errInvalid marks a recording whose framing parsed but whose block
// contents are damaged (CRC mismatch or undecodable records). The file
// is skipped at Open so the runner falls back to interpretation and
// re-records it.
var errInvalid = errors.New("tracefile: invalid recording")

// errSchemaSkew marks a recording written under a different archive
// schema version; it is skipped cleanly at Open.
var errSchemaSkew = errors.New("tracefile: archive schema version skew")

type archKey struct {
	bench string
	seed  uint64
}

// blockRef is one CRC-verified block of a loaded recording: the event
// count, the pc of the block's first event (the decoder's pc-chain
// seed) and the payload bytes (a subslice of the recording's file
// image).
type blockRef struct {
	count   uint64
	startPC uint64
	payload []byte
}

// Recording is one fully validated (benchmark, seed) trace held in
// memory, ready for repeated replay.
type Recording struct {
	bench  string
	seed   uint64
	prog   *program.Program
	blocks []blockRef
	events uint64
	halted bool
	// version is the archive schema version the file was written under.
	// Open only loads files matching ArchiveSchemaVersion, so for a live
	// Recording it always equals that — kept per recording so listings
	// state it explicitly rather than inferring it.
	version uint64
	// maxBlock is the largest block event count, the decode buffer size
	// a Decoder needs.
	maxBlock int
	size     int64
	// tmpls is the per-pc decode-template table (see buildTmpls), built
	// once at parse.
	tmpls []evTmpl
}

// Bench returns the benchmark name the recording was made from.
func (r *Recording) Bench() string { return r.bench }

// Seed returns the workload seed the recording was made with.
func (r *Recording) Seed() uint64 { return r.seed }

// Events returns the number of recorded events.
func (r *Recording) Events() uint64 { return r.events }

// Halted reports whether the program halted at Events (in which case
// the recording is complete and serves any budget).
func (r *Recording) Halted() bool { return r.halted }

// Program returns the embedded program image.
func (r *Recording) Program() *program.Program { return r.prog }

// Size returns the recording's file size in bytes.
func (r *Recording) Size() int64 { return r.size }

// Blocks returns the number of CRC-framed blocks.
func (r *Recording) Blocks() int { return len(r.blocks) }

// SchemaVersion returns the archive schema version the recording's file
// was written under.
func (r *Recording) SchemaVersion() uint64 { return r.version }

// Planes returns the event facets replaying the recording can deliver.
// The packed v2 block format carries the header and field planes
// separately, so every loaded recording serves both control-plane-only
// and full-event sinks.
func (r *Recording) Planes() trace.Planes { return trace.PlaneCtl | trace.PlaneData }

// CanServe reports whether replaying the recording reproduces an
// interpreted run at the given budget exactly: either the program
// halted (the stream is complete), or the budget is a non-zero prefix
// of what was recorded. Budget 0 means run-to-halt and needs a halted
// recording.
func (r *Recording) CanServe(budget uint64) bool {
	return r.halted || (budget > 0 && budget <= r.events)
}

// decodeBatch is the replay sub-batch size: blocks decode and deliver
// in chunks of this many events so the decoded batch (~64 KiB) plus the
// consumer's working set stay cache-resident — a whole block decodes to
// several hundred KiB. It matches the interpreter's DefaultBatchSize.
const decodeBatch = 1024

// Decoder holds the reusable event buffers for Replay. The zero value
// is ready to use; the first Replay warms it and subsequent replays do
// not allocate. Full-plane and control-plane replays use separate event
// buffers, so a decoder serving only control-plane sinks never
// allocates the larger full-event buffer.
type Decoder struct {
	evs    []trace.Event
	ctlEvs []trace.CtlEvent
}

// Replay streams the first min(budget, Events) recorded events to sink
// in one batch per block (the final block possibly partial, when the
// budget cuts it). Budget 0 replays everything. It returns the events
// delivered and whether that count is a halt point, mirroring an
// interpreted run's result. The batch buffer is reused between blocks;
// consumers must copy what they keep. Blocks were CRC- and
// decode-verified at load, so decoding cannot fail; any residual decode
// error reports a software bug via ErrCorrupt.
//
// Replay negotiates event planes exactly as the interpreter's Run does:
// a sink that accepts control-plane batches and needs only the control
// facet is served by the header-plane-only decoder (decodeEventsCtl),
// which emits only the transfer events, cut into the same batches as
// the interpreter's, and never materializes value fields at all.
func (r *Recording) Replay(budget uint64, d *Decoder, sink trace.BatchConsumer) (uint64, bool, error) {
	if d == nil {
		d = &Decoder{}
	}
	start := time.Now()
	if sink != nil {
		if cc, ok := sink.(trace.CtlBatchConsumer); ok && trace.PlanesOf(sink) == trace.PlaneCtl {
			n, halted, err := r.replayCtl(budget, d, cc)
			finishReplay(start, n, true)
			return n, halted, err
		}
	}
	n, halted, err := r.replayFull(budget, d, sink)
	finishReplay(start, n, false)
	return n, halted, err
}

// replayFull is the full-event replay loop behind Replay.
func (r *Recording) replayFull(budget uint64, d *Decoder, sink trace.BatchConsumer) (uint64, bool, error) {
	limit := r.events
	if budget != 0 && budget < limit {
		limit = budget
	}
	if d.evs == nil {
		d.evs = make([]trace.Event, decodeBatch)
	}
	var n uint64
	for i := range r.blocks {
		b := &r.blocks[i]
		take := b.count
		if n+take > limit {
			take = limit - n
		}
		if take == 0 {
			break
		}
		// Decode the block in cache-sized sub-batches: a whole block is
		// several hundred KiB of decoded events, which would stream the
		// consumer's working set out of cache between decode and
		// consumption.
		wholeBlock := take == b.count
		hlim := int(b.count)
		hpos, vpos, pc := 0, hlim, b.startPC
		for take > 0 {
			chunk := take
			if chunk > decodeBatch {
				chunk = decodeBatch
			}
			evs := d.evs[:chunk]
			last := wholeBlock && chunk == take
			var err error
			hpos, vpos, pc, err = decodeEventsPacked(b.payload, hpos, hlim, vpos, pc, evs, n, r.tmpls, last)
			if err != nil {
				return n, false, fmt.Errorf("verified block %d failed to decode: %w", i, err)
			}
			if sink != nil {
				sink.ConsumeBatch(evs)
			}
			n += uint64(chunk)
			take -= uint64(chunk)
		}
		if n == limit {
			break
		}
	}
	return n, r.halted && n == r.events, nil
}

// replayCtl is the control-plane replay loop: the same blocks as
// replayFull, decoded header-plane-only into transfer-only batches. A
// batch fills with up to decodeBatch transfer events, crossing block
// boundaries as needed, and covers every record decoded since the last
// one — the batches the interpreter's runCtl delivers at the default
// batch size. Blocks were full-decode-verified at load, so this path
// skips the end-of-block revalidation.
func (r *Recording) replayCtl(budget uint64, d *Decoder, sink trace.CtlBatchConsumer) (uint64, bool, error) {
	limit := r.events
	if budget != 0 && budget < limit {
		limit = budget
	}
	if d.ctlEvs == nil {
		d.ctlEvs = make([]trace.CtlEvent, decodeBatch)
	}
	evs := d.ctlEvs[:0]
	// n counts the records decoded; first is the first record the
	// pending batch covers.
	var n, first uint64
	for i := range r.blocks {
		b := &r.blocks[i]
		take := min(b.count, limit-n)
		if take == 0 {
			break
		}
		hlim := int(b.count)
		hpos, vpos, pc := 0, hlim, b.startPC
		for take > 0 {
			var got int
			var err error
			hpos, vpos, pc, got, evs, err = decodeEventsCtl(b.payload, hpos, hlim, vpos, pc, int(take), evs, n, r.tmpls)
			if err != nil {
				return n, false, fmt.Errorf("verified block %d failed to decode: %w", i, err)
			}
			n += uint64(got)
			take -= uint64(got)
			if len(evs) == cap(evs) {
				sink.ConsumeCtlBatch(evs, first, n-first)
				evs, first = evs[:0], n
			}
		}
	}
	if n > first {
		sink.ConsumeCtlBatch(evs, first, n-first)
	}
	return n, r.halted && n == r.events, nil
}

// ArchiveStats reports the archive's load-time recovery actions and
// lifetime record activity.
type ArchiveStats struct {
	// Recordings is the number of recordings currently loaded.
	Recordings int
	// Records counts successful Recorder commits in this process.
	Records uint64
	// Invalidated counts files skipped at Open for block-level damage
	// (the runner falls back to interpretation and re-records them).
	Invalidated uint64
	// SchemaSkips counts files skipped at Open for schema version skew.
	SchemaSkips uint64
	// TruncatedTail counts bytes discarded repairing a torn newest file.
	TruncatedTail uint64
}

// Archive is a directory of recordings plus the in-memory index over
// them. All methods are safe for concurrent use.
type Archive struct {
	dir string

	mu    sync.Mutex
	recs  map[archKey]*Recording
	locks map[archKey]chan struct{}

	// Children of the package's series (see metrics.go): each bump
	// also moves the process-wide scrape.
	records, invalidated, schemaSkips, truncated *obs.Counter
}

// OpenArchive opens (creating if needed) the archive directory, loading
// and validating every recording in it. A torn tail on the newest file
// is repaired in place; block-level damage invalidates just that
// recording; structural damage elsewhere returns an error wrapping
// ErrCorrupt.
func OpenArchive(dir string) (*Archive, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a := &Archive{
		dir:   dir,
		recs:  make(map[archKey]*Recording),
		locks: make(map[archKey]chan struct{}),

		records:     mArchRecords.Child(),
		invalidated: mArchInvalidated.Child(),
		schemaSkips: mArchSchemaSkips.Child(),
		truncated:   mArchTruncatedBytes.Child(),
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.dltrace"))
	if err != nil {
		return nil, err
	}
	type fileInfo struct {
		path string
		mod  int64
	}
	files := make([]fileInfo, 0, len(names))
	for _, p := range names {
		fi, err := os.Stat(p)
		if err != nil || fi.IsDir() {
			continue
		}
		files = append(files, fileInfo{p, fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path
	})
	for i, f := range files {
		newest := i == len(files)-1
		data, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		rec, tornAt, err := parseArchive(data)
		switch {
		case errors.Is(err, errSchemaSkew):
			a.schemaSkips.Inc()
			continue
		case errors.Is(err, errInvalid):
			a.invalidated.Inc()
			continue
		case err != nil:
			return nil, fmt.Errorf("%s: %w", f.path, err)
		}
		if tornAt >= 0 {
			if !newest {
				return nil, fmt.Errorf("%s: %w: torn frame at byte %d in non-newest file", f.path, ErrCorrupt, tornAt)
			}
			a.truncated.Add(uint64(len(data) - tornAt))
			if rec == nil {
				// Torn inside the header: nothing salvageable.
				if err := os.Remove(f.path); err != nil {
					return nil, err
				}
				continue
			}
			if err := repairTornTail(f.path, int64(tornAt), rec.events); err != nil {
				return nil, err
			}
			rec.size = int64(tornAt) + trailerLen(rec.events)
		}
		a.recs[archKey{rec.bench, rec.seed}] = rec
	}
	return a, nil
}

// trailerLen returns the encoded trailer size for an event count.
func trailerLen(events uint64) int64 {
	var buf [binary.MaxVarintLen64]byte
	return int64(1 + binary.PutUvarint(buf[:], events) + 1)
}

// repairTornTail truncates the file to the last intact block and writes
// a fresh non-halted trailer, mirroring the result store's torn-tail
// recovery.
func repairTornTail(path string, tornAt int64, events uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(tornAt); err != nil {
		return err
	}
	var frame [2 + binary.MaxVarintLen64]byte
	frame[0] = tagTrailer
	n := 1 + binary.PutUvarint(frame[1:], events)
	frame[n] = 0 // not halted: the tail beyond the tear is gone
	n++
	if _, err := f.WriteAt(frame[:n], tornAt); err != nil {
		return err
	}
	return f.Sync()
}

// parseArchive parses and fully validates one archive file image.
//
// Returns (rec, -1, nil) for a clean file. A torn tail — the data ends
// mid-frame with everything before it intact — returns tornAt ≥ 0 and a
// nil error; rec then holds the intact block prefix (not halted), or is
// nil when the tear is inside the header. Block-level damage returns
// errInvalid, version skew errSchemaSkew, and structural damage an
// error wrapping ErrCorrupt.
func parseArchive(data []byte) (*Recording, int, error) {
	if len(data) < len(magicArch) {
		if string(data) == magicArch[:len(data)] {
			return nil, 0, nil // torn inside the magic
		}
		return nil, -1, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if string(data[:len(magicArch)]) != magicArch {
		return nil, -1, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	br := bytes.NewReader(data[len(magicArch):])
	pos := func() int { return len(data) - br.Len() }

	version, err := binary.ReadUvarint(br)
	if err != nil {
		return headerErr(err, "schema version")
	}
	if version != ArchiveSchemaVersion {
		return nil, -1, fmt.Errorf("%w: file version %d, want %d", errSchemaSkew, version, ArchiveSchemaVersion)
	}
	benchLen, err := binary.ReadUvarint(br)
	if err != nil {
		return headerErr(err, "benchmark name")
	}
	if benchLen > maxBlockBytes {
		return nil, -1, fmt.Errorf("%w: benchmark name length %d", ErrCorrupt, benchLen)
	}
	bench := make([]byte, benchLen)
	if _, err := io.ReadFull(br, bench); err != nil {
		return headerErr(err, "benchmark name bytes")
	}
	seed, err := binary.ReadUvarint(br)
	if err != nil {
		return headerErr(err, "seed")
	}
	prog, err := readProgram(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, nil // torn inside the program image
		}
		return nil, -1, err
	}

	rec := &Recording{
		bench:   string(bench),
		seed:    seed,
		prog:    prog,
		version: version,
		size:    int64(len(data)),
		tmpls:   buildTmpls(prog.Code),
	}
	var scratch Decoder
	for {
		frameStart := pos()
		if frameStart >= len(data) {
			return rec, frameStart, nil // missing trailer: torn right after a block
		}
		tag := data[frameStart]
		br.Seek(1, io.SeekCurrent)
		switch tag {
		case tagTrailer:
			count, err := binary.ReadUvarint(br)
			if err != nil {
				return rec, frameStart, nil // torn inside the trailer
			}
			haltedByte, err := br.ReadByte()
			if err != nil {
				return rec, frameStart, nil
			}
			if count != rec.events {
				return nil, -1, fmt.Errorf("%w: trailer count %d != %d", ErrCorrupt, count, rec.events)
			}
			if br.Len() != 0 {
				return nil, -1, fmt.Errorf("%w: %d bytes after trailer", ErrCorrupt, br.Len())
			}
			rec.halted = haltedByte != 0
			return rec, -1, nil
		case tagBlock:
			count, err := binary.ReadUvarint(br)
			if err != nil {
				return rec, frameStart, nil
			}
			size, err := binary.ReadUvarint(br)
			if err != nil {
				return rec, frameStart, nil
			}
			startPC, err := binary.ReadUvarint(br)
			if err != nil {
				return rec, frameStart, nil
			}
			// Every event owns one header-plane byte and the field plane
			// ends with blockPad padding, so size >= count+blockPad; the
			// decoder's header reads rely on this frame check.
			if size > maxBlockBytes || count == 0 || size < blockPad || count > size-blockPad {
				return nil, -1, fmt.Errorf("%w: block header (%d events, %d bytes)", ErrCorrupt, count, size)
			}
			if uint64(br.Len()) < 4+size {
				return rec, frameStart, nil // torn inside the block body
			}
			p := pos()
			crc := binary.LittleEndian.Uint32(data[p : p+4])
			payload := data[p+4 : p+4+int(size)]
			br.Seek(int64(4+size), io.SeekCurrent)
			if crc32.ChecksumIEEE(payload) != crc {
				return nil, -1, fmt.Errorf("%w: block CRC mismatch at byte %d", errInvalid, frameStart)
			}
			if scratch.evs == nil {
				scratch.evs = make([]trace.Event, decodeBatch)
			}
			hpos, vpos, vpc, left := 0, int(count), startPC, count
			for left > 0 {
				chunk := left
				if chunk > decodeBatch {
					chunk = decodeBatch
				}
				var verr error
				hpos, vpos, vpc, verr = decodeEventsPacked(payload, hpos, int(count), vpos, vpc, scratch.evs[:chunk], rec.events+count-left, rec.tmpls, chunk == left)
				if verr != nil {
					return nil, -1, fmt.Errorf("%w: %v", errInvalid, verr)
				}
				left -= chunk
			}
			rec.blocks = append(rec.blocks, blockRef{count: count, startPC: startPC, payload: payload})
			rec.events += count
			if int(count) > rec.maxBlock {
				rec.maxBlock = int(count)
			}
		default:
			return nil, -1, fmt.Errorf("%w: unexpected tag %#x at byte %d", ErrCorrupt, tag, frameStart)
		}
	}
}

// headerErr classifies a failed header-field read: a truncated source is
// a torn tail (recoverable on the newest file), anything else is
// structural corruption.
func headerErr(err error, what string) (*Recording, int, error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, 0, nil
	}
	return nil, -1, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
}

// Lookup returns the loaded recording for (bench, seed), if any.
func (a *Archive) Lookup(bench string, seed uint64) (*Recording, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.recs[archKey{bench, seed}]
	return rec, ok
}

// Invalidate drops the in-memory recording for (bench, seed), forcing
// the next lookup to miss (and the caller to re-record).
func (a *Archive) Invalidate(bench string, seed uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.recs, archKey{bench, seed})
}

// Lock acquires the single-flight record lock for (bench, seed),
// returning the unlock function. Concurrent missers of the same key
// serialize here so exactly one records; the waiters re-check the
// archive once they acquire it and replay the fresh recording instead.
func (a *Archive) Lock(ctx context.Context, bench string, seed uint64) (func(), error) {
	k := archKey{bench, seed}
	a.mu.Lock()
	ch, ok := a.locks[k]
	if !ok {
		ch = make(chan struct{}, 1)
		a.locks[k] = ch
	}
	a.mu.Unlock()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case ch <- struct{}{}:
		return func() { <-ch }, nil
	case <-done:
		return nil, ctx.Err()
	}
}

// Stats returns a snapshot of the archive's counters.
func (a *Archive) Stats() ArchiveStats {
	a.mu.Lock()
	n := len(a.recs)
	a.mu.Unlock()
	return ArchiveStats{
		Recordings:    n,
		Records:       a.records.Value(),
		Invalidated:   a.invalidated.Value(),
		SchemaSkips:   a.schemaSkips.Value(),
		TruncatedTail: a.truncated.Value(),
	}
}

// Recordings returns the loaded recordings sorted by (bench, seed), for
// listings.
func (a *Archive) Recordings() []*Recording {
	a.mu.Lock()
	out := make([]*Recording, 0, len(a.recs))
	for _, r := range a.recs {
		out = append(out, r)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].bench != out[j].bench {
			return out[i].bench < out[j].bench
		}
		return out[i].seed < out[j].seed
	})
	return out
}

// recPath is the canonical file name for a key; the benchmark name is
// hex-escaped so arbitrary names stay filesystem-safe, and re-recording
// a key atomically replaces the same file.
func (a *Archive) recPath(bench string, seed uint64) string {
	return filepath.Join(a.dir, fmt.Sprintf("t-%x-s%d.dltrace", bench, seed))
}

// Recorder streams one run's events into a temporary archive file;
// Commit atomically installs it, Abort discards it. It implements
// trace.BatchConsumer (and trace.Consumer) so it can ride a BatchTee
// next to the live passes.
type Recorder struct {
	a     *Archive
	bench string
	seed  uint64
	path  string

	f *os.File
	w *bufio.Writer
	// hdr and val are the pending block's header and field planes (see
	// the packed-format comment in codec.go); flushBlock writes them
	// back to back under one CRC.
	hdr         []byte
	val         []byte
	blockEvents uint64
	// blockStartPC is the pc of the pending block's first event: the
	// decoder's pc-chain seed, written into the block frame.
	blockStartPC uint64
	events       uint64
	err          error
	closed       bool
}

// BeginRecord opens a temporary file and writes the archive header for
// a (bench, seed) recording of prog. The caller streams events into the
// returned Recorder and must finish with exactly one Commit or Abort.
func BeginRecord(a *Archive, bench string, seed uint64, prog *program.Program) (*Recorder, error) {
	f, err := os.CreateTemp(a.dir, ".rec-*")
	if err != nil {
		return nil, err
	}
	rec := &Recorder{
		a:     a,
		bench: bench,
		seed:  seed,
		path:  f.Name(),
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<16),
	}
	head := make([]byte, 0, 64+len(bench)+16*len(prog.Code))
	head = append(head, magicArch...)
	head = binary.AppendUvarint(head, ArchiveSchemaVersion)
	head = binary.AppendUvarint(head, uint64(len(bench)))
	head = append(head, bench...)
	head = binary.AppendUvarint(head, seed)
	head = appendProgram(head, prog)
	if _, err := rec.w.Write(head); err != nil {
		rec.discard()
		return nil, err
	}
	return rec, nil
}

// BeginRecord is the method form of the package-level BeginRecord.
func (a *Archive) BeginRecord(bench string, seed uint64, prog *program.Program) (*Recorder, error) {
	return BeginRecord(a, bench, seed, prog)
}

// Consume implements trace.Consumer.
func (rec *Recorder) Consume(ev *trace.Event) {
	if rec.err != nil {
		return
	}
	if rec.blockEvents == 0 {
		rec.blockStartPC = uint64(ev.PC)
	}
	rec.hdr, rec.val = appendEventPacked(rec.hdr, rec.val, ev)
	rec.blockEvents++
	rec.events++
	if len(rec.hdr)+len(rec.val) >= blockTarget {
		rec.flushBlock()
	}
}

// ConsumeBatch implements trace.BatchConsumer.
func (rec *Recorder) ConsumeBatch(evs []trace.Event) {
	if rec.err != nil {
		return
	}
	for i := range evs {
		if rec.blockEvents == 0 {
			rec.blockStartPC = uint64(evs[i].PC)
		}
		rec.hdr, rec.val = appendEventPacked(rec.hdr, rec.val, &evs[i])
		rec.blockEvents++
		if len(rec.hdr)+len(rec.val) >= blockTarget {
			rec.flushBlock()
			if rec.err != nil {
				return
			}
		}
	}
	rec.events += uint64(len(evs))
}

// flushBlock seals the pending block — header plane, field plane, pad —
// behind its CRC frame.
func (rec *Recorder) flushBlock() {
	if rec.err != nil || rec.blockEvents == 0 {
		return
	}
	// Pad inside the CRC so replay's 8-byte field loads never run off
	// the payload; the decoder verifies the padding is intact.
	rec.val = append(rec.val, 0, 0, 0, 0, 0, 0, 0, 0)
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, rec.hdr), crc32.IEEETable, rec.val)
	var frame [1 + 3*binary.MaxVarintLen64 + 4]byte
	frame[0] = tagBlock
	n := 1
	n += binary.PutUvarint(frame[n:], rec.blockEvents)
	n += binary.PutUvarint(frame[n:], uint64(len(rec.hdr)+len(rec.val)))
	n += binary.PutUvarint(frame[n:], rec.blockStartPC)
	binary.LittleEndian.PutUint32(frame[n:], crc)
	n += 4
	if _, err := rec.w.Write(frame[:n]); err != nil {
		rec.err = err
		return
	}
	if _, err := rec.w.Write(rec.hdr); err != nil {
		rec.err = err
		return
	}
	if _, err := rec.w.Write(rec.val); err != nil {
		rec.err = err
		return
	}
	rec.hdr, rec.val = rec.hdr[:0], rec.val[:0]
	rec.blockEvents = 0
}

// Events returns the number of events recorded so far.
func (rec *Recorder) Events() uint64 { return rec.events }

func (rec *Recorder) discard() {
	if rec.closed {
		return
	}
	rec.closed = true
	rec.f.Close()
	os.Remove(rec.path)
}

// Abort discards the partial recording.
func (rec *Recorder) Abort() { rec.discard() }

// Commit seals the recording (trailer, fsync), atomically renames it
// into place, and installs the validated recording in the archive
// index. The committed file is re-parsed through the same validator
// Open uses, so a writer bug can never install an unreplayable stream.
func (rec *Recorder) Commit(halted bool) error {
	if rec.closed {
		return errors.New("tracefile: recorder already closed")
	}
	rec.flushBlock()
	if rec.err != nil {
		rec.discard()
		return rec.err
	}
	var frame [2 + binary.MaxVarintLen64]byte
	frame[0] = tagTrailer
	n := 1 + binary.PutUvarint(frame[1:], rec.events)
	if halted {
		frame[n] = 1
	}
	n++
	if _, err := rec.w.Write(frame[:n]); err != nil {
		rec.discard()
		return err
	}
	if err := rec.w.Flush(); err != nil {
		rec.discard()
		return err
	}
	if err := rec.f.Sync(); err != nil {
		rec.discard()
		return err
	}
	if err := rec.f.Close(); err != nil {
		rec.closed = true
		os.Remove(rec.path)
		return err
	}
	rec.closed = true
	data, err := os.ReadFile(rec.path)
	if err != nil {
		os.Remove(rec.path)
		return err
	}
	loaded, tornAt, err := parseArchive(data)
	if err != nil || tornAt >= 0 {
		os.Remove(rec.path)
		return fmt.Errorf("tracefile: fresh recording failed validation (torn at %d): %w", tornAt, err)
	}
	final := rec.a.recPath(rec.bench, rec.seed)
	if err := os.Rename(rec.path, final); err != nil {
		os.Remove(rec.path)
		return err
	}
	rec.a.mu.Lock()
	rec.a.recs[archKey{rec.bench, rec.seed}] = loaded
	rec.a.mu.Unlock()
	rec.a.records.Inc()
	return nil
}
