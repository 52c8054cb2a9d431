package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// newEpochTestbed is newConcTestbed with the epoch knobs exposed: a cache
// capacity small enough to force eviction churn when asked, and the
// stripe-locked reference read path. locked builds the engine Faulty over
// backends that never fail: degraded-mode checks stay on but never fire,
// and every read takes readLocked instead of the epoch fast path.
func newEpochTestbed(t *testing.T, shards int, capacity int64, locked bool) *concTestbed {
	t.Helper()
	clock := sim.NewWallClock()
	mkWall := func(label string, servers int) *pfs.WallFS {
		w, err := pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: servers, StripeSize: 16 << 10},
			Clock:       clock,
			Functional:  true,
			PerOp:       time.Microsecond,
			BytesPerSec: 1 << 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	opfs := mkWall("OPFS", 8)
	cpfs := mkWall("CPFS", 4)
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 4
	model.Stripe = 16 << 10
	eng, err := NewConcurrent(ConcurrentConfig{
		Clock:         clock,
		OPFS:          opfs,
		CPFS:          cpfs,
		Model:         model,
		CacheCapacity: capacity,
		Concurrency:   shards,
		Policy:        PolicyAll,
		Faulty:        locked,
		// A running Rebuilder keeps flushing dirty extents clean, so
		// undersized caches actually evict (dirty space is never reclaimed)
		// — the churn test's precondition.
		RebuildPeriod: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return &concTestbed{clock: clock, opfs: opfs, cpfs: cpfs, eng: eng}
}

// TestConcurrentEpochVsLockedReads runs one seeded write-then-read
// workload on two engines — epoch fast path and the stripe-locked path —
// and requires byte-identical read-backs plus identical hit accounting.
// The fast path is an implementation of the same routing, not a different
// policy; any divergence in what got served from cache is a bug.
func TestConcurrentEpochVsLockedReads(t *testing.T) {
	const (
		fileSize = int64(1 << 20)
		files    = 4
		reads    = 200
	)
	run := func(locked bool) (map[string][]byte, Stats) {
		tb := newEpochTestbed(t, 4, 64<<20, locked)
		images := make(map[string][]byte)
		for f := 0; f < files; f++ {
			file := eqFile(f)
			img := make([]byte, fileSize)
			rand.New(rand.NewSource(int64(42 + f))).Read(img)
			images[file] = img
			await(t, func(done func(error)) error {
				return tb.eng.Write(f, file, 0, fileSize, img, done)
			})
		}
		rng := rand.New(rand.NewSource(99))
		out := make(map[string][]byte)
		for f := 0; f < files; f++ {
			out[eqFile(f)] = make([]byte, fileSize)
		}
		for i := 0; i < reads; i++ {
			f := rng.Intn(files)
			off := rng.Int63n(fileSize - 32<<10)
			size := int64(4<<10) + rng.Int63n(28<<10)
			buf := make([]byte, size)
			await(t, func(done func(error)) error {
				return tb.eng.Read(f, eqFile(f), off, size, buf, done)
			})
			copy(out[eqFile(f)][off:], buf)
		}
		for f := 0; f < files; f++ {
			img := images[eqFile(f)]
			got := out[eqFile(f)]
			for i := range got {
				if got[i] != 0 && got[i] != img[i] {
					t.Fatalf("locked=%v %s[%d]: read %d want %d", locked, eqFile(f), i, got[i], img[i])
				}
			}
		}
		return images, tb.eng.Stats()
	}
	_, fastStats := run(false)
	_, lockedStats := run(true)
	if fastStats.SegReadsCache != lockedStats.SegReadsCache ||
		fastStats.SegReadsDisk != lockedStats.SegReadsDisk ||
		fastStats.BytesReadCache != lockedStats.BytesReadCache {
		t.Fatalf("hit accounting diverged: fast cache=%d/disk=%d, locked cache=%d/disk=%d",
			fastStats.SegReadsCache, fastStats.SegReadsDisk,
			lockedStats.SegReadsCache, lockedStats.SegReadsDisk)
	}
	if fastStats.SegReadsCache == 0 {
		t.Fatal("workload never hit the cache; test exercises nothing")
	}
}

// TestConcurrentEpochEvictionChurn hammers the epoch fast path while the
// cache is too small for the working set, so allocations continuously
// evict mappings out from under in-flight view lookups. Run under -race
// this is the pin-then-revalidate oracle: every read must return either
// bytes the owner wrote or zeroes (never another file's recycled bytes),
// with evictions provably occurring.
func TestConcurrentEpochEvictionChurn(t *testing.T) {
	const (
		clients  = 4
		fileSize = int64(256 << 10)
		ops      = 120
	)
	// Capacity holds about half the combined working set, per-shard regions.
	tb := newEpochTestbed(t, clients, clients*fileSize/2, false)
	images := make([][]byte, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		img := make([]byte, fileSize)
		rand.New(rand.NewSource(int64(500 + cl))).Read(img)
		images[cl] = img
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			file := eqFile(cl)
			rng := rand.New(rand.NewSource(int64(600 + cl)))
			await(t, func(done func(error)) error {
				return tb.eng.Write(cl, file, 0, fileSize, images[cl], done)
			})
			for i := 0; i < ops; i++ {
				off := rng.Int63n(fileSize - 16<<10)
				size := int64(1<<10) + rng.Int63n(15<<10)
				if rng.Intn(4) == 0 {
					// Rewrite to keep allocation (and thus eviction) pressure up.
					await(t, func(done func(error)) error {
						return tb.eng.Write(cl, file, off, size, images[cl][off:off+size], done)
					})
					continue
				}
				buf := make([]byte, size)
				await(t, func(done func(error)) error {
					return tb.eng.Read(cl, file, off, size, buf, done)
				})
				img := images[cl]
				for j := range buf {
					if buf[j] != img[off+int64(j)] && buf[j] != 0 {
						t.Errorf("client %d off %d+%d: read byte %d, want %d or 0 — foreign bytes served",
							cl, off, j, buf[j], img[off+int64(j)])
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	if tb.eng.Space().Evictions() == 0 {
		t.Fatal("no evictions occurred; churn test exercises nothing")
	}
}
