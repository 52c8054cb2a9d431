package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/core"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// serveBed sizes the wall-clock deployment of the serve throughput gates:
// 8 HDD DServers and 8 SSD CServers in performance mode (no payload
// bytes), a 512 MB cache, and no Rebuilder, so no background cycle
// competes with the measured window.
type serveBed struct {
	shards             int
	policy             core.AdmissionPolicy
	perOpSSD, perOpHDD time.Duration
	bytesPerSec        int64
}

// engine builds a fresh deployment; the caller closes it.
func (b serveBed) engine(t *testing.T) *core.Concurrent {
	t.Helper()
	clock := sim.NewWallClock()
	mkWall := func(label string, perOp time.Duration) *pfs.WallFS {
		w, err := pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: 8, StripeSize: 16 << 10},
			Clock:       clock,
			PerOp:       perOp,
			BytesPerSec: b.bytesPerSec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 8
	model.Stripe = 16 << 10
	eng, err := core.NewConcurrent(core.ConcurrentConfig{
		Clock:         clock,
		OPFS:          mkWall("OPFS", b.perOpHDD),
		CPFS:          mkWall("CPFS", b.perOpSSD),
		Model:         model,
		CacheCapacity: 512 << 20,
		Concurrency:   b.shards,
		Policy:        b.policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// serveThroughput runs clients goroutines, each keeping one op
// outstanding, and returns the aggregate ops/s completed in the measured
// window that follows warmup. op issues one request for client c.
func serveThroughput(t *testing.T, clients int, warmup, window time.Duration,
	op func(c int, rng *rand.Rand, done func(error)) error) float64 {
	t.Helper()
	var (
		stop, measuring atomic.Bool
		ops             atomic.Uint64
		wg              sync.WaitGroup
	)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			ch := make(chan error, 1)
			done := func(err error) { ch <- err }
			for !stop.Load() {
				err := op(c, rng, done)
				if err == nil {
					err = <-ch
				}
				if err != nil {
					errs <- err
					return
				}
				if measuring.Load() {
					ops.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(warmup)
	start := time.Now()
	measuring.Store(true)
	time.Sleep(window)
	measuring.Store(false)
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := ops.Load()
	if n == 0 {
		t.Fatalf("no operations completed in the %v window", window)
	}
	return float64(n) / elapsed.Seconds()
}

// TestServeBenchScales is the CI gate for multi-client serving: with a
// 2ms modeled service time (far above scheduler jitter, so the model, not
// the machine, dominates), 8 clients over 8 servers must clear at least
// 2x the single-client throughput even on one CPU. The scaling is latency
// hiding, not parallel compute. Each client writes (2/3) and reads (1/3)
// 16 KB at random offsets of its own file.
func TestServeBenchScales(t *testing.T) {
	const (
		reqSize  = 16 << 10
		fileSpan = 4 << 20
	)
	bed := serveBed{shards: 8, perOpSSD: 2 * time.Millisecond, perOpHDD: 2 * time.Millisecond, bytesPerSec: 1 << 33}
	opsPerSec := func(clients int) float64 {
		eng := bed.engine(t)
		defer eng.Close()
		return serveThroughput(t, clients, 20*time.Millisecond, 80*time.Millisecond,
			func(c int, rng *rand.Rand, done func(error)) error {
				file := fmt.Sprintf("serve%02d", c)
				off := rng.Int63n(fileSpan - reqSize)
				if rng.Intn(3) > 0 {
					return eng.Write(c, file, off, reqSize, nil, done)
				}
				return eng.Read(c, file, off, reqSize, nil, done)
			})
	}
	one, eight := opsPerSec(1), opsPerSec(8)
	if eight < 2*one {
		t.Fatalf("8 clients served %.0f ops/s, want >= 2x the %.0f ops/s of 1 client", eight, one)
	}
}

// TestServeScaleSmoke is the multicore regression gate: on a multi-core
// host, read-heavy throughput at GOMAXPROCS=4 must not fall below
// GOMAXPROCS=1. Service time is ~zero and the working set (16 shared
// 4 MB files) is preloaded, so every read is a cache hit on the lock-free
// read path and any throughput difference is the engine's own
// serialization: if the path ever reintroduces a serialization point,
// adding cores makes aggregate ops/s collapse. Single-core hosts skip:
// with one CPU the sweep measures scheduler interleaving, not
// parallelism.
//
// The gate needs the host's cores to itself, which is why it lives in
// this package's last test file: `go test ./...` runs packages in
// parallel, and by the time this long package reaches its tail every
// other package has finished. Placed in a short package, it overlaps
// this package's CPU-bound experiment tests and GOMAXPROCS=4 loses to
// GOMAXPROCS=1 on a 2-CPU host.
func TestServeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throughput gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU(s); multicore scaling is unmeasurable", runtime.NumCPU())
	}
	const (
		clients  = 8
		files    = 16
		fileSpan = int64(4 << 20)
		reqSize  = int64(16 << 10)
		readPct  = 95
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bed := serveBed{shards: 16, policy: core.PolicyAll, perOpSSD: time.Microsecond, perOpHDD: time.Microsecond, bytesPerSec: 1 << 40}
	hot := func(f int) string { return fmt.Sprintf("hot%02d", f) }
	opsPerSec := func(procs int) float64 {
		runtime.GOMAXPROCS(procs)
		eng := bed.engine(t)
		defer eng.Close()
		preload := make(chan error, 1)
		for f := 0; f < files; f++ {
			err := eng.Write(0, hot(f), 0, fileSpan, nil, func(err error) { preload <- err })
			if err == nil {
				err = <-preload
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return serveThroughput(t, clients, 30*time.Millisecond, 150*time.Millisecond,
			func(c int, rng *rand.Rand, done func(error)) error {
				file := hot(rng.Intn(files))
				off := rng.Int63n(fileSpan - reqSize)
				if rng.Intn(100) < readPct {
					return eng.Read(c, file, off, reqSize, nil, done)
				}
				return eng.Write(c, file, off, reqSize, nil, done)
			})
	}
	p1, p4 := opsPerSec(1), opsPerSec(4)
	if p4 < p1 {
		t.Fatalf("multi-core regression: %d clients at GOMAXPROCS=4 served %.0f ops/s < %.0f ops/s at GOMAXPROCS=1", clients, p4, p1)
	}
}
