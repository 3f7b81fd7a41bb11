package store

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

// benchVal approximates a codec-encoded result row (a few hundred
// bytes of varint-packed metrics).
var benchVal = bytes.Repeat([]byte("v"), 256)

// buildBenchStore creates a store with n live keys written rounds
// times over (so Open also resolves superseded records), default
// segment size, closed cleanly.
func buildBenchStore(b *testing.B, dir string, n, rounds int) {
	b.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			if err := s.Put(fmt.Sprintf("bench|key|%08d", i), benchVal); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpen100k measures Open: every segment scanned byte-for-byte
// to rebuild the index of 100k keys written five times over.
func BenchmarkOpen100k(b *testing.B) {
	const n = 100_000
	dir := b.TempDir()
	buildBenchStore(b, dir, n, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatalf("index has %d keys, want %d", s.Len(), n)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkGet measures warm single-threaded read latency, the CRC
// check of each record included.
func BenchmarkGet(b *testing.B) {
	dir := b.TempDir()
	buildBenchStore(b, dir, 10_000, 2)
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("bench|key|%08d", i%10_000)
		if _, ok, err := s.Get(k); !ok || err != nil {
			b.Fatalf("Get(%q) = %v, %v", k, ok, err)
		}
	}
}

// BenchmarkConcurrentGetPut measures parallel Get throughput while a
// writer Puts continuously — the case the lock-split serves: reads no
// longer hold the store lock across their disk read, so they neither
// queue behind Put's exclusive lock nor make it starve.
func BenchmarkConcurrentGetPut(b *testing.B) {
	dir := b.TempDir()
	buildBenchStore(b, dir, 10_000, 2)
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	val := bytes.Repeat([]byte("w"), 100)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put(fmt.Sprintf("bench|key|%08d", i%10_000), val); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			k := fmt.Sprintf("bench|key|%08d", i%10_000)
			if _, ok, err := s.Get(k); !ok || err != nil {
				b.Fatalf("Get(%q) = %v, %v", k, ok, err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
