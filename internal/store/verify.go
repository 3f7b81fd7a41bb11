package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// VerifyReport summarizes an offline store audit.
type VerifyReport struct {
	Segments     int
	TotalRecords int   // records on disk, superseded ones included
	LiveRecords  int   // keys after last-write-wins
	Bytes        int64 // segment bytes (intact prefix)
	// TornTailBytes is a partial final write on the newest segment —
	// normal after a crash; Open repairs it by truncation.
	TornTailBytes int64
}

// Verify audits the store directory at dir without opening it as a
// Store: every segment is scanned byte-for-byte under the same rules as
// Open (a torn tail is tolerated on the newest segment only, and
// reported), so Verify passes exactly when Open would succeed without
// finding corruption. Files other than segments are ignored, as Open
// ignores them. Run Verify on a quiescent store.
func Verify(dir string) (VerifyReport, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.dlstore"))
	if err != nil {
		return VerifyReport{}, err
	}
	sort.Strings(names)
	var rep VerifyReport
	rep.Segments = len(names)
	live := make(map[string]struct{})
	for i, name := range names {
		last := i == len(names)-1
		data, err := os.ReadFile(name)
		if err != nil {
			return rep, err
		}
		good, err := scanSegment(data, func(key []byte, _ int64, _ int, _ int64) {
			rep.TotalRecords++
			live[string(key)] = struct{}{}
		})
		if err != nil {
			if !last || !errors.Is(err, errTorn) {
				return rep, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(name), err)
			}
			rep.TornTailBytes += int64(len(data)) - good
		}
		rep.Bytes += good
	}
	rep.LiveRecords = len(live)
	return rep, nil
}
