package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/core"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netclient"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/netserve"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// The served workloads drive a loopback netserve deployment over two
// client connections: a closed loop that keeps each connection's full
// credit window in flight (ops_per_s), then an open loop at a fixed offered
// rate, each request timed from when it was due (the latency metrics).

const (
	setupRuns = 15
	conns     = 2
	blockLen  = 16 << 10
	seqLen    = 1 << 20
)

// servedWorkload is one deployment configuration and its traffic mix.
type servedWorkload struct {
	// Deployment.
	cache   int64
	rebuild time.Duration // Rebuilder period; 0 leaves it off
	// metaBudget > 0 persists the DMT through kvstore on a MemBackend and
	// bounds its resident bytes; 0 keeps it in memory, unbounded.
	metaBudget int64
	// Traffic.
	files      []string // random-access files, blockLen-aligned blocks
	blocksPer  int64    // blocks per file
	zipfSkew   float64  // > 1: zipfian over all blocks; 0: uniform
	zipfOffset float64  // flattens the zipf head: P(rank k) ∝ (zipfOffset+k)^-zipfSkew
	readFrac   float64
	seqFrac    float64 // share of ops that are 1 MB sequential writes
	preload    bool    // write every block once during set-up
	warmup     time.Duration
	seqWrapLen int64 // sequential stream files wrap at this size
}

// openRate is the open loop's offered rate on both served workloads, all
// connections together: about a twentieth of hot-read's and a sixth of
// churn's closed-loop rate. At this load the processors are idle when most
// requests arrive, so nearly every request waits out the runtime's
// millisecond-granular idle sleep once in the generator and once for its
// service timer, and the latencies spread evenly over a plateau from about
// 1.2 to 2.5 ms. At higher rates the median falls between that regime and
// one where a processor is awake to fire each timer on time, and moves
// 10-30% from run to run with how busy the shared host is (README.md).
const openRate = 3000

var hotRead = &servedWorkload{
	cache:     512 << 20,
	files:     fileNames("hot", 64),
	blocksPer: 50, // 64 × 50 × 16 KB = 50 MB
	zipfSkew:  1.1,
	// With an offset of 20 the hottest block draws about 1% of requests
	// and the hottest 80 about 38%: skewed, but no single block's cache
	// server becomes the bottleneck, which would make throughput depend on
	// where the seed happens to place the head.
	zipfOffset: 20,
	readFrac:   0.9,
	preload:    true,
	warmup:     500 * time.Millisecond,
}

var churnWrite = &servedWorkload{
	cache: 256 << 20,
	// The paper testbed's Rebuilder period (cluster.Default).
	rebuild: 250 * time.Millisecond,
	// About a fifth of the 350 KB of DMT metadata this workload keeps
	// resident when unbounded, so clean files spill and fault back in. No
	// residency snapshots: their compaction holds every DMT stripe lock
	// and stalls all requests for 50-100 ms (README.md).
	metaBudget: 64 << 10,
	files:      fileNames("churn", 20000),
	blocksPer:  4, // 20k × 64 KB = 1.3 GB, five times the cache
	readFrac:   0.25,
	seqFrac:    0.075,
	warmup:     1500 * time.Millisecond,
	seqWrapLen: 256 << 20,
}

func fileNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%05d", prefix, i)
	}
	return out
}

// op is one generated request.
type op struct {
	write     bool
	file      string
	off, size int64
}

// opGen draws a workload's requests from a seeded stream.
type opGen struct {
	wl   *servedWorkload
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int         // popularity rank -> block, shared read-only
	seq  *atomic.Int64 // this connection's sequential-stream cursor
	name string        // this connection's stream file
}

// traffic holds the per-run state shared by every generator of a run.
type traffic struct {
	wl   *servedWorkload
	seed int64
	perm []int
	seq  [conns]atomic.Int64
}

func newTraffic(wl *servedWorkload, seed int64) *traffic {
	t := &traffic{wl: wl, seed: seed}
	if wl.zipfSkew > 1 {
		// Popular blocks are scattered over the files, so popularity and
		// placement are independent.
		t.perm = rand.New(rand.NewSource(seed)).Perm(len(wl.files) * int(wl.blocksPer))
	}
	return t
}

// gen returns the generator of one (phase, connection, worker) stream.
func (t *traffic) gen(phase, conn, worker int) *opGen {
	src := t.seed*1_000_003 + int64(phase)*7919 + int64(conn)*104729 + int64(worker)*31 + 1
	g := &opGen{wl: t.wl, rng: rand.New(rand.NewSource(src)), perm: t.perm, seq: &t.seq[conn],
		name: fmt.Sprintf("seq-%d", conn)}
	if t.perm != nil {
		g.zipf = rand.NewZipf(g.rng, t.wl.zipfSkew, t.wl.zipfOffset, uint64(len(t.perm)-1))
	}
	return g
}

func (g *opGen) next() op {
	wl := g.wl
	r := g.rng.Float64()
	if r < wl.seqFrac {
		off := g.seq.Add(seqLen) - seqLen
		return op{write: true, file: g.name, off: off % wl.seqWrapLen, size: seqLen}
	}
	var block int64
	if g.zipf != nil {
		block = int64(g.perm[g.zipf.Uint64()])
	} else {
		block = g.rng.Int63n(int64(len(wl.files)) * wl.blocksPer)
	}
	return op{
		write: r >= wl.seqFrac+wl.readFrac,
		file:  wl.files[block/wl.blocksPer],
		off:   (block % wl.blocksPer) * blockLen,
		size:  blockLen,
	}
}

// deployment is one assembled stack: WallFS backends, the concurrent
// engine, an optional kvstore metadata store, the netserve frontend and
// the client connections.
type deployment struct {
	wl      *servedWorkload
	eng     *core.Concurrent
	store   *kvstore.Store
	srv     *netserve.Server
	clients []*netclient.Client
	tr      *tracer
}

// buildDeployment assembles a deployment from the library constructors.
// With a tracer, every layer boundary is wrapped.
func buildDeployment(wl *servedWorkload, payload bool, tr *tracer) (*deployment, error) {
	d := &deployment{wl: wl, tr: tr}
	clock := sim.NewWallClock()
	mkWall := func(label string, fs uint8, perOp time.Duration) (*pfs.WallFS, error) {
		var c sim.Clock = clock
		if tr != nil {
			c = &tracedClock{inner: clock, t: tr, fs: fs}
		}
		return pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: 8, StripeSize: blockLen},
			Clock:       c,
			Functional:  payload,
			PerOp:       perOp,
			BytesPerSec: 1 << 33,
		})
	}
	opfs, err := mkWall("OPFS", fsOPFS, 200*time.Microsecond)
	if err != nil {
		return nil, err
	}
	cpfs, err := mkWall("CPFS", fsCPFS, 100*time.Microsecond)
	if err != nil {
		return nil, err
	}
	// Offline calibration of the cost model, as the paper profiles its
	// disks.
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		return nil, err
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M, model.N, model.Stripe = 8, 8, blockLen

	cfg := core.ConcurrentConfig{
		Clock:         clock,
		OPFS:          opfs,
		CPFS:          cpfs,
		Model:         model,
		CacheCapacity: wl.cache,
		Concurrency:   16,
		RebuildPeriod: wl.rebuild,
	}
	if tr != nil {
		cfg.OPFS = &tracedBackend{Backend: opfs, t: tr, fs: fsOPFS}
		cfg.CPFS = &tracedBackend{Backend: cpfs, t: tr, fs: fsCPFS}
	}
	if wl.metaBudget > 0 {
		var backend kvstore.Backend = newBlockBackend()
		if tr != nil {
			backend = &tracedKV{Backend: backend, t: tr}
		}
		if d.store, err = kvstore.Open(backend, "dmt", kvstore.Options{}); err != nil {
			return nil, err
		}
		cfg.MetaStore = d.store
		cfg.MetaBudget = wl.metaBudget
	}
	if d.eng, err = core.NewConcurrent(cfg); err != nil {
		return nil, err
	}
	var eng netserve.Engine = d.eng
	if tr != nil {
		eng = &tracedEngine{inner: d.eng, t: tr}
	}
	if d.srv, err = netserve.Serve(netserve.Config{Engine: eng, Payload: payload}); err != nil {
		d.eng.Close()
		return nil, err
	}
	// Dial one connection at a time: the server numbers connections in
	// accept order, and that number is the rank the engine sees.
	for i := 0; i < conns; i++ {
		cl, err := netclient.Dial(d.srv.Addr(), netclient.Options{Tenant: "bench"})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// blockBackend is an in-memory kvstore.Backend that keeps each file as a
// list of fixed-size blocks. kvstore.MemBackend keeps a file in a
// bytes.Buffer, which doubles its capacity as the write-ahead log grows, so
// the live heap jumped by the log's whole size at a point that varied from
// run to run and heap_mb split between two values 12% apart. Here the heap
// grows with the bytes kept, one block at a time.
type blockBackend struct {
	mu    sync.Mutex
	files map[string][][]byte
}

const backendBlock = 64 << 10

func newBlockBackend() *blockBackend { return &blockBackend{files: make(map[string][][]byte)} }

func (b *blockBackend) ReadAll(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blocks, ok := b.files[name]
	if !ok {
		return nil, nil
	}
	out := []byte{}
	for _, blk := range blocks {
		out = append(out, blk...)
	}
	return out, nil
}

func (b *blockBackend) Append(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	blocks := b.files[name]
	for len(data) > 0 {
		if len(blocks) == 0 || len(blocks[len(blocks)-1]) == cap(blocks[len(blocks)-1]) {
			blocks = append(blocks, make([]byte, 0, backendBlock))
		}
		last := &blocks[len(blocks)-1]
		n := min(len(data), cap(*last)-len(*last))
		*last = append(*last, data[:n]...)
		data = data[n:]
	}
	b.files[name] = blocks
	return nil
}

func (b *blockBackend) Replace(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.files[name] = [][]byte{append([]byte(nil), data...)}
	return nil
}

func (b *blockBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.files, name)
	return nil
}

func (d *deployment) close() {
	for _, cl := range d.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		d.srv.Close()
	}
	d.eng.Close()
}

// call issues one synchronous request on client ci, retrying BUSY refusals
// until the request is admitted. It returns how many refusals it saw.
func (d *deployment) call(ci int, o op) (busy int, err error) {
	cl := d.clients[ci]
	for {
		if o.write {
			err = cl.Write(o.file, o.off, o.size, nil)
		} else {
			err = cl.Read(o.file, o.off, o.size, nil)
		}
		if !errors.Is(err, netclient.ErrBusy) {
			return busy, err
		}
		busy++
		time.Sleep(100 * time.Microsecond)
	}
}

// preload writes every block once, in a seeded random order so the cost
// model sees random small writes.
func (d *deployment) preload(seed int64) error {
	wl := d.wl
	blocks := rand.New(rand.NewSource(seed + 17)).Perm(len(wl.files) * int(wl.blocksPer))
	reqs := make([]pipeReq, len(blocks))
	for i, b := range blocks {
		reqs[i].op = op{write: true, file: wl.files[int64(b)/wl.blocksPer], off: int64(b) % wl.blocksPer * blockLen, size: blockLen}
	}
	if err := d.pipelined(reqs); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// pipeReq is one request of a pipelined batch, with its payload or read
// buffer in payload mode.
type pipeReq struct {
	op
	data, buf []byte
}

// pipelined issues every request, alternating connections and keeping each
// connection's window full, and waits for all of them. Requests refused
// with BUSY are issued again until admitted.
func (d *deployment) pipelined(reqs []pipeReq) error {
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		calls := make([]*netclient.Call, len(pending))
		for j, i := range pending {
			r := reqs[i]
			cl := d.clients[j%conns]
			if r.write {
				calls[j] = cl.Go(netserve.OpWrite, r.file, r.off, r.size, r.data, nil)
			} else {
				calls[j] = cl.Go(netserve.OpRead, r.file, r.off, r.size, nil, r.buf)
			}
		}
		var retry []int
		for j, c := range calls {
			<-c.Done
			switch {
			case errors.Is(c.Err, netclient.ErrBusy):
				retry = append(retry, pending[j])
			case c.Err != nil:
				return fmt.Errorf("%s %s@%d: %w", opName(c.Op), c.File, c.Off, c.Err)
			}
		}
		pending = retry
	}
	return nil
}

func opName(op uint8) string {
	if op == netserve.OpWrite {
		return "write"
	}
	return "read"
}

// loadCount tallies one load phase. An op is one generated request; it is
// attempted once and retried after each BUSY refusal until admitted.
type loadCount struct {
	attempted, completed, failed, busy atomic.Int64
	firstErr                           atomic.Value
}

func (c *loadCount) fail(err error) {
	c.failed.Add(1)
	c.firstErr.CompareAndSwap(nil, err)
}

// closedLoop keeps every connection's full credit window busy for dur and
// returns the completed ops per second of each closedSlice of it.
func (d *deployment) closedLoop(tf *traffic, phase int, dur time.Duration, n *loadCount) []float64 {
	window := d.clients[0].Window()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for ci := range d.clients {
		for w := 0; w < window; w++ {
			g := tf.gen(phase, ci, w)
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for !stop.Load() {
					o := g.next()
					n.attempted.Add(1)
					busy, err := d.call(ci, o)
					n.busy.Add(int64(busy))
					if err != nil {
						n.fail(err)
						return
					}
					n.completed.Add(1)
				}
			}(ci)
		}
	}
	var rates []float64
	last, at := n.completed.Load(), time.Now()
	for end := at.Add(dur); time.Until(end) > 0; {
		time.Sleep(min(closedSlice, time.Until(end)))
		c, now := n.completed.Load(), time.Now()
		rates = append(rates, float64(c-last)/now.Sub(at).Seconds())
		last, at = c, now
	}
	stop.Store(true)
	wg.Wait()
	return rates
}

// closedSlice is the interval closed-loop throughput is sampled at; the
// reported rate is the median slice, so a short stall of the shared host
// moves one slice rather than the whole figure.
const closedSlice = 250 * time.Millisecond

// openResult is what the open loop measured.
type openResult struct {
	reads, writes []float64 // ms from due to done; +Inf for refused ops
	// The same latencies by openWindow slice of the schedule they were
	// due in.
	readWin, writeWin [][]float64
	genLate           []float64 // ms the generator ran behind the schedule
	backlog           int64     // ops due but not completed when the schedule ended
}

// openLoop offers openRate ops/s, split evenly over the connections,
// for dur. Each op runs on its own goroutine from the moment it is due,
// so a slow response never delays the schedule.
func (d *deployment) openLoop(tf *traffic, phase int, dur time.Duration, n *loadCount) openResult {
	var (
		mu       sync.Mutex
		res      openResult
		inflight atomic.Int64
		wg       sync.WaitGroup
		gens     sync.WaitGroup
	)
	interval := time.Second * conns / openRate
	start := time.Now().Add(time.Millisecond)
	end := start.Add(dur)
	nwin := int((dur + openWindow - 1) / openWindow)
	res.readWin, res.writeWin = make([][]float64, nwin), make([][]float64, nwin)
	for ci := range d.clients {
		g := tf.gen(phase, ci, 0)
		gens.Add(1)
		go func(ci int) {
			defer gens.Done()
			// Connections are offset by half an interval.
			first := start.Add(time.Duration(ci) * interval / conns)
			var late []float64
			for i := 0; ; i++ {
				due := first.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					break
				}
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				late = append(late, float64(time.Since(due).Nanoseconds())/1e6)
				o := g.next()
				n.attempted.Add(1)
				inflight.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					var issue int64
					if d.tr != nil {
						issue = d.tr.now()
					}
					busy, err := d.call(ci, o)
					lat := float64(time.Since(due).Nanoseconds()) / 1e6
					inflight.Add(-1)
					n.busy.Add(int64(busy))
					if err != nil {
						n.fail(err)
						return
					}
					n.completed.Add(1)
					if busy > 0 {
						lat = math.Inf(1)
					}
					if d.tr != nil {
						d.tr.client.add(clientSpan{conn: int32(ci), op: opOf(o), busy: busy > 0, file: o.file, off: o.off,
							due: int64(due.Sub(d.tr.origin)), issue: issue, done: d.tr.now()})
					}
					w := int(due.Sub(start) / openWindow)
					mu.Lock()
					if o.write {
						res.writes = append(res.writes, lat)
						res.writeWin[w] = append(res.writeWin[w], lat)
					} else {
						res.reads = append(res.reads, lat)
						res.readWin[w] = append(res.readWin[w], lat)
					}
					mu.Unlock()
				}()
			}
			mu.Lock()
			res.genLate = append(res.genLate, late...)
			mu.Unlock()
		}(ci)
	}
	gens.Wait()
	time.Sleep(time.Until(end))
	res.backlog = inflight.Load()
	wg.Wait()
	return res
}

// openWindow is the slice of the open-loop schedule each latency quantile
// is taken over; the gated figure is the median slice's quantile, so a
// few seconds in which the shared 2-CPU host stalls move one slice, not
// the run's figure.
const openWindow = 2 * time.Second

// setOpenLatencies sets the gated latency metrics, the median of each op
// type, and prints the whole-phase p90 and p99 beside them. The tails are
// not gated: on a 2-CPU host they sit where few requests fall, just past
// the requests that waited out one millisecond-granular runtime idle
// sleep, so a few percent more requests waiting out two such sleeps moves
// the p90 by half its value from run to run (README.md, "Why only the
// median is gated").
func setOpenLatencies(res *result, or openResult) {
	for _, m := range []struct {
		name string
		all  []float64
		wins [][]float64
	}{
		{"read_p50_ms", or.reads, or.readWin},
		{"write_p50_ms", or.writes, or.writeWin},
	} {
		var qs []float64
		for _, w := range m.wins {
			if len(w) > 0 {
				qs = append(qs, quantile(w, 0.5))
			}
		}
		res.setN(m.name, "ms", median(qs), int64(len(m.all)))
	}
	res.setN("read_p90_ms", "ms", quantile(or.reads, 0.9), int64(len(or.reads)))
	res.setN("read_p99_ms", "ms", quantile(or.reads, 0.99), int64(len(or.reads)))
	res.setN("write_p90_ms", "ms", quantile(or.writes, 0.9), int64(len(or.writes)))
	res.setN("write_p99_ms", "ms", quantile(or.writes, 0.99), int64(len(or.writes)))
}

func opOf(o op) uint8 {
	if o.write {
		return opWrite
	}
	return opRead
}

// payloadCheck runs a short functional pass on a payload-mode copy of the
// deployment: it writes seeded random data, overwrites half of it, and
// reads everything back through the whole stack.
func payloadCheck(wl *servedWorkload, seed int64) error {
	d, err := buildDeployment(wl, true, nil)
	if err != nil {
		return err
	}
	defer d.close()
	rng := rand.New(rand.NewSource(seed + 99))
	var items []pipeReq
	for i, b := range rng.Perm(len(wl.files) * int(wl.blocksPer))[:192] {
		o := op{write: true, file: wl.files[int64(b)/wl.blocksPer], off: int64(b) % wl.blocksPer * blockLen, size: blockLen}
		if wl.seqFrac > 0 && i < 4 {
			o = op{write: true, file: fmt.Sprintf("seq-%d", i%conns), off: int64(i/conns) * seqLen, size: seqLen}
		}
		items = append(items, pipeReq{op: o})
	}
	// Write everything, overwrite every other item, then read all back.
	for _, overwrite := range []bool{false, true} {
		var batch []pipeReq
		for i := range items {
			if overwrite && i%2 == 1 {
				continue
			}
			items[i].data = make([]byte, items[i].size)
			rng.Read(items[i].data)
			batch = append(batch, items[i])
		}
		if err := d.pipelined(batch); err != nil {
			return err
		}
	}
	reads := make([]pipeReq, len(items))
	for i, it := range items {
		reads[i] = pipeReq{op: it.op, buf: make([]byte, it.size)}
		reads[i].write = false
	}
	if err := d.pipelined(reads); err != nil {
		return err
	}
	for i := range items {
		if !bytes.Equal(reads[i].buf, items[i].data) {
			return fmt.Errorf("read %s@%d returned different bytes than were written", items[i].file, items[i].off)
		}
	}
	if st := d.srv.Stats(); st.BadRequests != 0 || st.IOErrors != 0 {
		return fmt.Errorf("server counted %d bad requests and %d I/O errors", st.BadRequests, st.IOErrors)
	}
	return nil
}

// setUp builds the deployment setupRuns+1 times and keeps the last one.
// setup_s is the median of all builds but the first, which also pays for
// the process's first use of every code path; each build starts after a
// forced GC, so the previous build's garbage is not collected on its
// clock. Set-up covers construction, cost-model calibration,
// connection handshakes and any preload.
func setUp(wl *servedWorkload, seed int64) (*deployment, []float64, error) {
	var times []float64
	var d *deployment
	for i := 0; i <= setupRuns; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = buildDeployment(wl, false, nil); err != nil {
			return nil, nil, err
		}
		if wl.preload {
			if err := d.preload(seed); err != nil {
				d.close()
				return nil, nil, err
			}
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	return d, times, nil
}

// checkDeployment adds the counter invariants of a quiescent deployment.
func checkDeployment(res *result, d *deployment, n *loadCount) {
	st := d.eng.Stats()
	res.check("read_bytes_split", st.BytesReadCache+st.BytesReadDisk == st.BytesRead,
		"cache %d + disk %d vs read %d", st.BytesReadCache, st.BytesReadDisk, st.BytesRead)
	ss := d.srv.Stats()
	res.check("server_errors", ss.BadRequests == 0 && ss.IOErrors == 0,
		"bad requests %d, I/O errors %d", ss.BadRequests, ss.IOErrors)
	a, c, f := n.attempted.Load(), n.completed.Load(), n.failed.Load()
	info := fmt.Sprintf("attempted %d = completed %d + failed %d", a, c, f)
	if e, ok := n.firstErr.Load().(error); ok {
		info += "; first error: " + e.Error()
	}
	res.check("ops_accounted", a == c+f, "%s", info)
}

func runServe(o runOpts, wl *servedWorkload) (*result, error) {
	res := &result{}
	tf := newTraffic(wl, o.seed)
	d, setups, err := setUp(wl, o.seed)
	if err != nil {
		return nil, err
	}
	perr := payloadCheck(wl, o.seed)
	res.check("payload_roundtrip", perr == nil, "%v", errString(perr))

	var n loadCount
	dur := o.duration()
	d.closedLoop(tf, 0, wl.warmup, &n)
	if o.trace {
		err = traceServe(o, wl, tf, d, res, &n)
		res.attempted, res.failed = n.attempted.Load(), n.failed.Load()
		return res, err
	}
	defer d.close()
	rates := d.closedLoop(tf, 1, dur*2/5, &n)
	ops := median(rates)
	busyClosed := n.busy.Load()
	or := d.openLoop(tf, 2, dur*3/5, &n)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	checkDeployment(res, d, &n)
	res.attempted, res.failed = n.attempted.Load(), n.failed.Load()

	res.setN("ops_per_s", "1/s", ops, int64(len(rates)))
	res.set("ops_per_s_min_slice", "1/s", quantile(rates, 0))
	res.set("ops_per_s_max_slice", "1/s", quantile(rates, 1))
	res.set("mb_per_s", "MB/s", ops*meanOpBytes(wl)/1e6)
	setOpenLatencies(res, or)
	res.set("heap_mb", "MB", float64(ms.HeapAlloc)/1e6)
	res.setN("setup_s", "s", median(setups), int64(len(setups)))
	res.set("error_frac", "ratio", ratio(float64(n.busy.Load()+n.failed.Load()), float64(n.attempted.Load()+n.busy.Load())))
	res.set("busy_closed_loop", "count", float64(busyClosed))
	res.set("gen_late_p99_ms", "ms", quantile(or.genLate, 0.99))
	res.set("gen_backlog_end", "count", float64(or.backlog))
	return res, nil
}

// meanOpBytes is the expected payload of one generated op.
func meanOpBytes(wl *servedWorkload) float64 {
	return wl.seqFrac*seqLen + (1-wl.seqFrac)*blockLen
}

func errString(err error) string {
	if err == nil {
		return "write, overwrite and read-back matched"
	}
	return err.Error()
}
