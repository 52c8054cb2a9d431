package netserve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/bench"
	"s4dcache/internal/cluster"
	"s4dcache/internal/netclient"
)

// netCell is one measured (conns, depth) cell of the loopback smoke.
type netCell struct {
	ops, busy      uint64
	opsPerSec      float64
	p50, p99, p999 time.Duration
}

// runNetCell serves a fresh wall-clock deployment behind a loopback
// listener and drives it from conns connections, each shared by depth
// workers that keep one synchronous op in flight apiece, so the client
// pipelines depth requests onto the connection. Each worker writes (2/3)
// and reads (1/3) 16 KB at random offsets of its connection's file. BUSY
// answers back off briefly and retry; only completed ops are counted and
// timed.
func runNetCell(t *testing.T, conns, depth, maxInFlight int) netCell {
	t.Helper()
	const (
		reqSize  = int64(16 << 10)
		fileSpan = int64(4 << 20)
		warmup   = 20 * time.Millisecond
		window   = 120 * time.Millisecond
	)
	tb, err := cluster.NewWallS4D(cluster.WallParams{Shards: 8, MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	var (
		stop, measuring atomic.Bool
		busy            atomic.Uint64
		hist            bench.LatencyHist
		wg              sync.WaitGroup
	)
	errs := make(chan error, conns*depth)
	for i := 0; i < conns; i++ {
		cl, err := netclient.Dial(tb.Addr(), netclient.Options{Tenant: "bench"})
		if err != nil {
			t.Fatalf("dial conn %d: %v", i, err)
		}
		defer cl.Close()
		file := fmt.Sprintf("net%03d", i)
		for d := 0; d < depth; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i*64 + d + 1)))
				for !stop.Load() {
					off := rng.Int63n(fileSpan - reqSize)
					t0 := time.Now()
					var err error
					if rng.Intn(3) > 0 {
						err = cl.Write(file, off, reqSize, nil)
					} else {
						err = cl.Read(file, off, reqSize, nil)
					}
					switch {
					case err == nil:
						if measuring.Load() {
							hist.Record(time.Since(t0))
						}
					case errors.Is(err, netclient.ErrBusy):
						if measuring.Load() {
							busy.Add(1)
						}
						time.Sleep(200 * time.Microsecond)
					default:
						errs <- err
						return
					}
				}
			}()
		}
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
	if st := tb.Server.Stats(); st.BadRequests != 0 || st.IOErrors != 0 {
		t.Fatalf("server errors during the cell: %+v", st)
	}
	ops := hist.Count()
	if ops == 0 {
		t.Fatalf("%d conns × depth %d: no operations completed in the %v window", conns, depth, window)
	}
	return netCell{
		ops: ops, busy: busy.Load(),
		opsPerSec: float64(ops) / elapsed.Seconds(),
		p50:       hist.P50(), p99: hist.P99(), p999: hist.P999(),
	}
}

// TestServeNetSmoke is the CI loopback gate for the network frontend
// over the real engine: a conns {2,8} × depth {1,4} sweep must complete
// work with ordered tail percentiles and no BUSY answers, pipelining
// (depth 4 over depth 1 at 8 connections) must raise throughput, and an
// overload cell capped at MaxInFlight 4 must answer BUSY yet keep making
// progress.
func TestServeNetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock loopback gate")
	}
	opsAt := make(map[[2]int]float64)
	for _, conns := range []int{2, 8} {
		for _, depth := range []int{1, 4} {
			c := runNetCell(t, conns, depth, 0)
			if c.p50 <= 0 || c.p99 < c.p50 || c.p999 < c.p99 {
				t.Fatalf("%d conns × depth %d: bad percentiles: %+v", conns, depth, c)
			}
			if c.busy != 0 {
				t.Fatalf("%d conns × depth %d: uncapped cell saw BUSY: %+v", conns, depth, c)
			}
			opsAt[[2]int{conns, depth}] = c.opsPerSec
		}
	}
	if speedup := opsAt[[2]int{8, 4}] / opsAt[[2]int{8, 1}]; speedup <= 1 {
		t.Fatalf("pipeline speedup %.2fx at 8 conns, want > 1x (ops/s: %v)", speedup, opsAt)
	}
	// runNetCell fails a cell that completes nothing, so the overload cell
	// proves progress under backpressure too.
	over := runNetCell(t, 8, 4, 4)
	if over.busy == 0 {
		t.Fatalf("overload cell saw no backpressure: %+v", over)
	}
}
