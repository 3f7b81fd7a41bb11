package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k1")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get k1 = %q, %v, %v", v, ok, err)
	}
	v, ok, err = s.Get("k2")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("Get k2 = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Fatal("Get(absent) = ok")
	}
	st := s.Stats()
	if st.Records != 2 || st.Puts != 2 || st.Gets != 3 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLastWriteWinsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store) {
		t.Helper()
		v, ok, err := s.Get("k")
		if err != nil || !ok || string(v) != "v2" {
			t.Fatalf("Get k = %q, %v, %v (want v2)", v, ok, err)
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d", s.Len())
		}
	}
	check(s)
	s.Close()
	check(openT(t, dir, Options{}))
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{MaxSegmentBytes: 256})
	val := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	s.Close()

	// Every key survives a reopen across segments.
	s2 := openT(t, dir, Options{MaxSegmentBytes: 256})
	for i := 0; i < 10; i++ {
		v, ok, err := s2.Get(fmt.Sprintf("k%02d", i))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("k%02d after reopen: %v %v", i, ok, err)
		}
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.dlstore"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return names[len(names)-1]
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put("good", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", []byte("this record will be cut")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final record mid-way: a crash between write and rename of
	// the torn tail.
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	if _, ok, _ := s2.Get("torn"); ok {
		t.Fatal("torn record survived recovery")
	}
	v, ok, err := s2.Get("good")
	if err != nil || !ok || string(v) != "intact" {
		t.Fatalf("good record lost in recovery: %q %v %v", v, ok, err)
	}
	if st := s2.Stats(); st.TruncatedTail == 0 {
		t.Fatalf("TruncatedTail not reported: %+v", st)
	}
	// The store stays writable after recovery, and the recovered state
	// survives another reopen cleanly.
	if err := s2.Put("after", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, dir, Options{})
	if st := s3.Stats(); st.TruncatedTail != 0 {
		t.Fatalf("second open still truncating: %+v", st)
	}
	if v, ok, _ := s3.Get("after"); !ok || string(v) != "ok" {
		t.Fatal("post-recovery write lost")
	}
}

func TestCorruptionMidFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.Put("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's body: durable bytes changed
	// under us — that is corruption, not a torn tail, and must not be
	// silently repaired.
	data[len(magic)+7] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.dlstore"), []byte("NOTASTORE\nxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// TestVersionSkewedRecordIsAnError: a record written by a future store
// schema must fail the scan, never misparse.
func TestVersionSkewedRecordIsAnError(t *testing.T) {
	body := binary.AppendUvarint(nil, recVersion+1)
	body = binary.AppendUvarint(body, 1)
	body = append(body, 'k')
	body = binary.AppendUvarint(body, 1)
	body = append(body, 'v')
	rec := binary.AppendUvarint([]byte(magic), uint64(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	rec = append(rec, body...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.dlstore"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

// flipValueByte flips one byte of key's value in the newest segment
// file, behind the back of any Store that has it open.
func flipValueByte(t *testing.T, dir, key string) {
	t.Helper()
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	valOff := int64(-1)
	if _, err := scanSegment(data, func(k []byte, _ int64, _ int, off int64) {
		if string(k) == key {
			valOff = off
		}
	}); err != nil {
		t.Fatal(err)
	}
	if valOff >= 0 {
		f, err := os.OpenFile(seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{data[valOff] ^ 0x01}, valOff); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("key %q not in %s", key, seg)
}

// TestGetVerifiesCRC: a value byte that changes on disk after Open must
// make Get fail with ErrCorrupt, never return the changed bytes — both
// for a segment this process wrote and for one it scanned at Open.
func TestGetVerifiesCRC(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		dir := t.TempDir()
		s := openT(t, dir, Options{})
		for _, k := range []string{"a", "b"} {
			if err := s.Put(k, []byte("value-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if reopen {
			s.Close()
			s = openT(t, dir, Options{})
		}
		flipValueByte(t, dir, "a")
		if v, _, err := s.Get("a"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("reopen=%v: Get a = %q, %v; want ErrCorrupt", reopen, v, err)
		}
		if v, ok, err := s.Get("b"); err != nil || !ok || string(v) != "value-b" {
			t.Fatalf("reopen=%v: intact neighbour: Get b = %q, %v, %v", reopen, v, ok, err)
		}
	}
}

// copySidecarEraFixture copies testdata/sidecar-era into dir and
// returns the fixture's file paths and the key/value pairs it holds.
func copySidecarEraFixture(t *testing.T, dir string) ([]string, map[string]string) {
	t.Helper()
	fixture, err := filepath.Glob(filepath.Join("testdata", "sidecar-era", "*"))
	if err != nil || len(fixture) != 5 {
		t.Fatalf("fixture files %v, %v", fixture, err)
	}
	for _, src := range fixture {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string]string)
	for i := 0; i < 6; i++ {
		want[fmt.Sprintf("cell|%d", i)] = fmt.Sprintf("value %d of the fixture", i)
	}
	return fixture, want
}

// TestOpenSidecarEraStore: a store directory as earlier builds left it —
// two rotated segments, an index sidecar (.dlidx) beside each and an
// abandoned compaction output (seg-000009.tmp) — opens and verifies
// unchanged: every key reads back byte-identical, and the extra files
// are neither read, counted nor removed.
func TestOpenSidecarEraStore(t *testing.T) {
	dir := t.TempDir()
	fixture, want := copySidecarEraFixture(t, dir)

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 2 || rep.LiveRecords != len(want) || rep.TornTailBytes != 0 {
		t.Fatalf("Verify = %+v", rep)
	}
	s := openT(t, dir, Options{})
	if st := s.Stats(); st.Segments != 2 || st.Records != len(want) || st.TruncatedTail != 0 {
		t.Fatalf("Stats = %+v", st)
	}
	for k, v := range want {
		got, ok, err := s.Get(k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get %q = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	if err := s.Put("after", []byte("upgrade")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, src := range fixture {
		if filepath.Ext(src) == ".dlstore" {
			continue
		}
		orig, _ := os.ReadFile(src)
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(src)))
		if err != nil || !bytes.Equal(got, orig) {
			t.Fatalf("%s changed or removed: %v", filepath.Base(src), err)
		}
	}
	s = openT(t, dir, Options{})
	if v, ok, err := s.Get("after"); err != nil || !ok || string(v) != "upgrade" {
		t.Fatalf("Get after = %q, %v, %v", v, ok, err)
	}
}

// TestSidecarStaleAfterTornTailTruncation: a sidecar-era store whose
// newest segment gained a torn tail after its .dlidx was written (the
// sidecar describes the pre-crash size) opens by scanning, truncates the
// tear, serves every key and leaves the stale sidecar untouched; the
// repaired store reopens with nothing left to truncate.
func TestSidecarStaleAfterTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	_, want := copySidecarEraFixture(t, dir)
	seg := lastSegment(t, dir)
	idx := seg[:len(seg)-len(filepath.Ext(seg))] + ".dlidx"
	sidecar, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := openT(t, dir, Options{})
	if st := s.Stats(); st.TruncatedTail == 0 || st.Records != len(want) {
		t.Fatalf("torn tail not repaired: %+v", st)
	}
	for k, v := range want {
		got, ok, err := s.Get(k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get %q = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	s.Close()
	if got, err := os.ReadFile(idx); err != nil || !bytes.Equal(got, sidecar) {
		t.Fatalf("stale sidecar changed or removed: %v", err)
	}

	s = openT(t, dir, Options{})
	if st := s.Stats(); st.TruncatedTail != 0 || st.Records != len(want) {
		t.Fatalf("post-repair reopen: %+v", st)
	}
}

// TestSidecarDoesNotMaskMidFileCorruption: a sidecar-era store whose
// oldest segment has a flipped byte inside its first record fails Open
// with ErrCorrupt, although a .dlidx still lists that segment's records.
func TestSidecarDoesNotMaskMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	copySidecarEraFixture(t, dir)
	seg := filepath.Join(dir, "seg-000001.dlstore")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+7] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openT(t, t.TempDir(), Options{MaxSegmentBytes: 1 << 12})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				v, ok, err := s.Get(key)
				if err != nil || !ok || string(v) != key {
					t.Errorf("Get %s = %q %v %v", key, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

func TestClosedStore(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// FuzzScanSegment: the record decoder must classify ANY byte stream as
// (records, torn tail) or ErrCorrupt — never panic, never return a
// record it did not fully verify, and always report a consistent good
// offset so recovery can truncate.
func FuzzScanSegment(f *testing.F) {
	mk := func(puts ...string) []byte {
		dir := f.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i, v := range puts {
			if err := s.Put(fmt.Sprintf("key%d", i), []byte(v)); err != nil {
				f.Fatal(err)
			}
		}
		s.Close()
		names, _ := filepath.Glob(filepath.Join(dir, "seg-*.dlstore"))
		data, err := os.ReadFile(names[0])
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(mk())
	f.Add(mk("hello", "world"))
	f.Add([]byte(magic))
	f.Add([]byte("DLSTORE1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		type frame struct{ off, end, valOff int64 }
		var recs []frame
		good, err := scanSegment(data, func(_ []byte, off int64, rlen int, valOff int64) {
			recs = append(recs, frame{off, off + int64(rlen), valOff})
		})
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		if err == nil && good != int64(len(data)) {
			t.Fatalf("nil error but only %d of %d bytes consumed", good, len(data))
		}
		for _, r := range recs {
			if r.off < 0 || r.valOff < r.off || r.valOff > r.end || r.end > good {
				t.Fatalf("record [%d,%d) value at %d outside verified prefix %d",
					r.off, r.end, r.valOff, good)
			}
		}
	})
}

// countSyncs counts segment syncs for the rest of the test.
func countSyncs(t *testing.T) *int {
	t.Helper()
	n := new(int)
	orig := syncFile
	syncFile = func(f *os.File) error { *n++; return orig(f) }
	t.Cleanup(func() { syncFile = orig })
	return n
}

// TestCloseSyncsOnlyWrittenSegments: Close syncs exactly the segments the
// session wrote. A read-only session (Open, Gets, Close) issues no sync;
// a session that appends to the newest of two segments syncs that one
// only; a Sync leaves Close nothing to flush.
func TestCloseSyncsOnlyWrittenSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("v"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	syncs := countSyncs(t)

	s, err = Open(dir, Options{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Segments()); n < 2 {
		t.Fatalf("%d segments, want at least 2", n)
	}
	for i := range 4 {
		if _, ok, err := s.Get(fmt.Sprintf("k%d", i)); err != nil || !ok {
			t.Fatalf("Get k%d: %v, %v", i, ok, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if *syncs != 0 {
		t.Fatalf("a read-only session synced %d times, want 0", *syncs)
	}

	s, err = Open(dir, Options{MaxSegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("new", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if *syncs != 1 {
		t.Fatalf("Sync after one Put synced %d segments, want 1", *syncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if *syncs != 1 {
		t.Fatalf("Close after Sync synced %d more segments, want 0", *syncs-1)
	}
	s = openT(t, dir, Options{})
	if v, ok, err := s.Get("new"); err != nil || !ok || string(v) != "x" {
		t.Fatalf("Get new = %q, %v, %v", v, ok, err)
	}
}
