package dmt

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/kvstore"
)

// BenchmarkStripedCommitters measures the full concurrent metadata stack:
// 4 goroutines insert mappings of disjoint files into a persisted striped
// table, whose commits feed the store's group committer over a backend
// charging 20µs per sync. ns/op is wall time over all inserts.
func BenchmarkStripedCommitters(b *testing.B) {
	const committers = 4
	st, err := kvstore.Open(kvstore.NewDelayBackend(kvstore.NewMemBackend(), 20*time.Microsecond),
		"dmt", kvstore.Options{Sync: kvstore.SyncEvery})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := OpenStriped(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		share := b.N / committers
		if g < b.N%committers {
			share++
		}
		file := fmt.Sprintf("/bench/w%02d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < share; i++ {
				off := int64(i%1024) << 12
				if err := tbl.Insert(file, off, 4096, off, true); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
