// The `dynloop store` subcommand family: offline administration of an
// on-disk result store, mirroring `dynloop trace`'s shape. `ls` and
// `stats` open a store (exactly as serve would) and snapshot it;
// `verify` audits every segment byte-for-byte without opening the
// store.
package main

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"

	"dynloop/internal/report"
	"dynloop/internal/store"
)

// cmdStore dispatches the store subcommands.
func cmdStore(_ context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "ls":
			return cmdStoreLs(args[1:])
		case "verify":
			return cmdStoreVerify(args[1:])
		case "stats":
			return cmdStoreStats(args[1:])
		}
	}
	return fmt.Errorf("usage: dynloop store ls|verify|stats -store DIR")
}

// storeDirArg parses a subcommand's -store flag.
func storeDirArg(name string, args []string) (string, error) {
	fs := flag.NewFlagSet("store "+name, flag.ExitOnError)
	dir := fs.String("store", "", "result-store directory")
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if *dir == "" {
		return "", fmt.Errorf("missing -store DIR")
	}
	return *dir, nil
}

// openStoreArg parses a subcommand's flags and opens its store.
func openStoreArg(name string, args []string) (*store.Store, error) {
	dir, err := storeDirArg(name, args)
	if err != nil {
		return nil, err
	}
	return store.Open(dir, store.Options{})
}

// cmdStoreLs opens a store and lists the segments.
func cmdStoreLs(args []string) error {
	st, err := openStoreArg("ls", args)
	if err != nil {
		return err
	}
	defer st.Close()
	ss := st.Stats()
	t := report.NewTable(fmt.Sprintf("store %s (%d records, %d segments)", st.Dir(), ss.Records, ss.Segments),
		"segment", "records", "bytes")
	for _, seg := range st.Segments() {
		t.AddRow(filepath.Base(seg.Path), seg.Records, seg.Bytes)
	}
	fmt.Print(t.String())
	fmt.Printf("open: %d torn-tail bytes truncated\n", ss.TruncatedTail)
	return nil
}

// cmdStoreVerify audits a store directory byte-for-byte without
// opening it: every record's CRC and the last-write-wins live set.
func cmdStoreVerify(args []string) error {
	dir, err := storeDirArg("verify", args)
	if err != nil {
		return err
	}
	rep, err := store.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Printf("store %s: OK\n", dir)
	fmt.Printf("  segments:       %d (%d bytes)\n", rep.Segments, rep.Bytes)
	fmt.Printf("  records:        %d on disk, %d live\n", rep.TotalRecords, rep.LiveRecords)
	if rep.TornTailBytes > 0 {
		fmt.Printf("  torn tail:      %d bytes (newest segment; Open repairs by truncation)\n", rep.TornTailBytes)
	}
	return nil
}

// cmdStoreStats prints the store's counters in the same shape
// /v1/stats serves them.
func cmdStoreStats(args []string) error {
	st, err := openStoreArg("stats", args)
	if err != nil {
		return err
	}
	defer st.Close()
	ss := st.Stats()
	fmt.Printf("store %s:\n", st.Dir())
	fmt.Printf("  records:        %d\n", ss.Records)
	fmt.Printf("  segments:       %d\n", ss.Segments)
	fmt.Printf("  bytes:          %d\n", ss.Bytes)
	fmt.Printf("  truncated_tail: %d\n", ss.TruncatedTail)
	return nil
}
