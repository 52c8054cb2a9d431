package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/workload"
)

// paper-sim runs the paper's workloads on virtual-time cluster.NewS4D
// testbeds at quick scale (4 ranks, about 1/250 of the published data
// volume), one cell at a time, on the sequential engine. Each cell writes
// its data, lets the Rebuilder drain, reads it once so the Data Identifier
// can mark and fetch, drains again, and reads a second time; the write and
// the second read are measured (the paper's §V.A read protocol).

// paperCell is one testbed plus workload.
type paperCell struct {
	name  string
	ranks int
	data  int64 // application bytes; the cache gets 20% (§V.A)
	run   func(comm *mpiio.Comm, write bool, done func(workload.Result)) error
}

func paperCells(seed int64) []paperCell {
	iorRand := workload.IORConfig{Ranks: 4, FileSize: 32 << 20, RequestSize: 16 << 10, Random: true, Seed: seed, File: "ior-rand.dat"}
	iorSeq := workload.IORConfig{Ranks: 4, FileSize: 64 << 20, RequestSize: 4 << 20, Seed: seed, File: "ior-seq.dat"}
	hpio := workload.HPIOConfig{Ranks: 4, RegionCount: 512, RegionSize: 8 << 10, RegionSpacing: 1 << 10}
	tile := workload.TileIOConfig{Ranks: 16, ElementsX: 10, ElementsY: 10, ElementSize: 16 << 10}
	zipf := workload.ZipfConfig{Ranks: 4, FileSize: (8 << 30) / 250, RequestSize: 16 << 10,
		Requests: 2048, Skew: 1.05, ScanEvery: 3, Seed: 42, DrawSeed: 43, File: "zipf.dat"}
	// The seed moves IOR's random offsets. The zipf cell replays the
	// hit-rate lab's first read epoch exactly: its hit share sits near one
	// half, so with a seeded sample its read median and its simulated work
	// per request would jump from seed to seed.
	return []paperCell{
		{"ior-rand-16k", 4, iorRand.FileSize, func(c *mpiio.Comm, w bool, d func(workload.Result)) error {
			return workload.RunIOR(c, iorRand, w, d)
		}},
		{"ior-seq-4m", 4, iorSeq.FileSize, func(c *mpiio.Comm, w bool, d func(workload.Result)) error {
			return workload.RunIOR(c, iorSeq, w, d)
		}},
		{"hpio", 4, int64(hpio.Ranks) * int64(hpio.RegionCount) * hpio.RegionSize, func(c *mpiio.Comm, w bool, d func(workload.Result)) error {
			return workload.RunHPIO(c, hpio, w, d)
		}},
		{"tileio", 16, int64(tile.Ranks) * 100 * tile.ElementSize, func(c *mpiio.Comm, w bool, d func(workload.Result)) error {
			return workload.RunTileIO(c, tile, w, d)
		}},
		{"zipf", 4, zipf.FileSize, func(c *mpiio.Comm, w bool, d func(workload.Result)) error {
			return workload.RunZipf(c, zipf, w, d)
		}},
	}
}

// timedTransport sits between mpiio and the S4D engine. It records each
// measured request's virtual latency and, when timing is on, the wall time
// spent inside the engine call before it returns.
type timedTransport struct {
	inner   mpiio.Transport
	now     func() time.Duration
	measure bool
	timing  bool
	reads   []float64 // virtual ms
	writes  []float64
	calls   []float64 // wall µs inside Read/Write
	issued  int64
}

func (t *timedTransport) do(write bool, rank int, file string, off, size int64, b []byte, done func(error)) error {
	t.issued++
	start := t.now()
	cb := done
	if t.measure {
		cb = func(err error) {
			ms := float64(t.now()-start) / 1e6
			if write {
				t.writes = append(t.writes, ms)
			} else {
				t.reads = append(t.reads, ms)
			}
			done(err)
		}
	}
	var w0 time.Time
	if t.timing {
		w0 = time.Now()
	}
	var err error
	if write {
		err = t.inner.Write(rank, file, off, size, b, cb)
	} else {
		err = t.inner.Read(rank, file, off, size, b, cb)
	}
	if t.timing {
		t.calls = append(t.calls, float64(time.Since(w0).Nanoseconds())/1e3)
	}
	return err
}

func (t *timedTransport) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	return t.do(false, rank, file, off, size, buf, done)
}

func (t *timedTransport) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	return t.do(true, rank, file, off, size, data, done)
}

// cellOut is one cell execution's outcome. Everything but the wall-clock
// fields is a function of the seed alone.
type cellOut struct {
	writeMBps, readMBps float64
	reads, writes       []float64
	calls               []float64
	requests            int64
	errors              int
	events              uint64
	virtual             time.Duration
	stats               core.Stats
	dirtyFrac           float64
	opfsCalls, cpfsCall uint64
	setup, wall         time.Duration
	heap                uint64
}

// runCell builds a fresh testbed and runs one cell on it.
func runCell(c paperCell, timing, measureHeap bool) (cellOut, error) {
	var out cellOut
	t0 := time.Now()
	params := cluster.Default()
	params.CacheCapacity = c.data / 5
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return out, err
	}
	defer tb.Close()
	tt := &timedTransport{inner: tb.S4D, now: tb.Eng.Now, timing: timing}
	comm, err := mpiio.NewComm(tb.Eng, c.ranks, tt)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)
	t1 := time.Now()
	phase := func(write, measure bool) (workload.Result, error) {
		tt.measure = measure
		finished := false
		var res workload.Result
		if err := c.run(comm, write, func(r workload.Result) { res = r; finished = true }); err != nil {
			return res, err
		}
		tb.Eng.RunWhile(func() bool { return !finished })
		if !finished {
			return res, fmt.Errorf("%s: phase did not complete", c.name)
		}
		drained := false
		tb.S4D.DrainRebuild(func() { drained = true })
		tb.Eng.RunWhile(func() bool { return !drained })
		out.errors += res.Errors
		return res, nil
	}
	w, err := phase(true, true)
	if err != nil {
		return out, err
	}
	if _, err := phase(false, false); err != nil {
		return out, err
	}
	r, err := phase(false, true)
	if err != nil {
		return out, err
	}
	out.wall = time.Since(t1)
	out.writeMBps, out.readMBps = w.ThroughputMBps(), r.ThroughputMBps()
	out.reads, out.writes, out.calls = tt.reads, tt.writes, tt.calls
	out.requests = tt.issued
	out.events = tb.Eng.Processed()
	out.virtual = tb.Eng.Now()
	out.stats = tb.S4D.Stats()
	if space := tb.S4D.Space(); space.Capacity() > 0 {
		out.dirtyFrac = float64(space.DirtyBytes()) / float64(space.Capacity())
	}
	out.opfsCalls, out.cpfsCall = tb.OPFS.Stats().Requests, tb.CPFS.Stats().Requests
	if measureHeap {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.heap = ms.HeapAlloc
		runtime.KeepAlive(tb)
	}
	return out, nil
}

// sameOutcome reports whether two executions of a cell with the same seed
// produced the same virtual-time results.
func sameOutcome(a, b cellOut) bool {
	if a.writeMBps != b.writeMBps || a.readMBps != b.readMBps || a.requests != b.requests ||
		a.events != b.events || a.virtual != b.virtual || len(a.reads) != len(b.reads) || len(a.writes) != len(b.writes) {
		return false
	}
	for i := range a.reads {
		if a.reads[i] != b.reads[i] {
			return false
		}
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] {
			return false
		}
	}
	return true
}

func runPaperSim(o runOpts) (*result, error) {
	res := &result{}
	cells := paperCells(o.seed)
	var (
		first      []cellOut
		setups     []float64
		passRate   []float64 // simulated requests per wall second, per pass
		profRate   []float64
		eventRate  []float64
		calls      []float64
		mismatches []string
		prof       *cpuProfile
		mallocs0   uint64
		profReqs   int64
	)
	var ms runtime.MemStats
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < o.duration() || (o.trace && len(profRate) < 2); pass++ {
		// In a traced run the second half of the passes (at least two) is
		// profiled and call-timed; the untraced first half is the overhead
		// baseline.
		profiled := o.trace && pass >= 2 && time.Since(start) >= o.duration()/2
		if profiled && prof == nil {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms)
			mallocs0 = ms.Mallocs
		}
		var reqs int64
		var events uint64
		var wall time.Duration
		for i, c := range cells {
			out, err := runCell(c, profiled, pass == 0)
			if err != nil {
				return nil, err
			}
			setups = append(setups, out.setup.Seconds())
			reqs += out.requests
			events += out.events
			wall += out.wall
			res.attempted += out.requests
			res.failed += int64(out.errors)
			if profiled {
				calls = append(calls, out.calls...)
				profReqs += out.requests
			}
			if pass == 0 {
				first = append(first, out)
			} else if !sameOutcome(first[i], out) {
				mismatches = append(mismatches, fmt.Sprintf("%s pass %d", c.name, pass))
			}
		}
		rate := float64(reqs) / wall.Seconds()
		if profiled {
			profRate = append(profRate, rate)
		} else {
			passRate = append(passRate, rate)
		}
		eventRate = append(eventRate, float64(events)/wall.Seconds())
	}
	var cpu map[string]float64
	var allocsPerOp float64
	if prof != nil {
		runtime.ReadMemStats(&ms)
		allocsPerOp = ratio(float64(ms.Mallocs-mallocs0), float64(profReqs))
		var err error
		if cpu, err = prof.stop(); err != nil {
			return nil, err
		}
	}

	var reads, writes []float64
	logSum, heap := 0.0, uint64(0)
	var st core.Stats
	var events uint64
	var virtual time.Duration
	var dirty float64
	var opfsCalls, cpfsCalls uint64
	for i, out := range first {
		reads = append(reads, out.reads...)
		writes = append(writes, out.writes...)
		logSum += math.Log(out.writeMBps) + math.Log(out.readMBps)
		if out.heap > heap {
			heap = out.heap
		}
		addStats(&st, out.stats)
		events += out.events
		virtual += out.virtual
		dirty += out.dirtyFrac / float64(len(first))
		opfsCalls += out.opfsCalls
		cpfsCalls += out.cpfsCall
		res.note("cell %-13s write %8.2f MB/s  read %8.2f MB/s (virtual)  %d requests %d events %.0f ms wall  read p50 %.3f", cells[i].name, out.writeMBps, out.readMBps, out.requests, out.events, out.wall.Seconds()*1000, quantile(out.reads, 0.5))
	}
	res.note("pass rates (simulated requests per wall second): %.0f", passRate)
	res.check("virt_deterministic", len(mismatches) == 0, "%d passes of %d cells, same seed; mismatches: %v", len(passRate)+len(profRate), len(cells), mismatches)
	res.check("read_bytes_split", st.BytesReadCache+st.BytesReadDisk == st.BytesRead,
		"cache %d + disk %d vs read %d", st.BytesReadCache, st.BytesReadDisk, st.BytesRead)
	res.check("no_failed_requests", res.failed == 0, "%d of %d simulated requests failed", res.failed, res.attempted)

	if !o.trace {
		res.set("ops_per_s", "1/s", median(passRate))
		// Each cell's latencies form their own cluster (HPIO regions, 4 MB
		// IOR, ...); a pooled median falls between clusters and jumps with
		// the seed, so latency is each cell's quantile, geometric mean
		// over the cells. The p90s are info lines, as on the served
		// workloads.
		for _, m := range []struct {
			name  string
			write bool
			q     float64
		}{{"read_p50_ms", false, 0.5}, {"read_p90_ms", false, 0.9}, {"write_p50_ms", true, 0.5}, {"write_p90_ms", true, 0.9}} {
			var logs float64
			for _, out := range first {
				xs := out.reads
				if m.write {
					xs = out.writes
				}
				logs += math.Log(quantile(xs, m.q))
			}
			n := len(reads)
			if m.write {
				n = len(writes)
			}
			res.setN(m.name, "ms", math.Exp(logs/float64(len(first))), int64(n))
		}
		res.setN("read_p99_ms", "ms", quantile(reads, 0.99), int64(len(reads)))
		res.setN("write_p99_ms", "ms", quantile(writes, 0.99), int64(len(writes)))
		res.set("mb_per_s", "MB/s", math.Exp(logSum/float64(2*len(first))))
		res.set("heap_mb", "MB", float64(heap)/1e6)
		res.setN("setup_s", "s", median(setups), int64(len(setups)))
		return res, nil
	}

	setStatsLayers(res, st)
	res.setN("core.read_p50_ms", "ms", orZero(quantile(reads, 0.5)), int64(len(reads)))
	res.setN("core.read_p99_ms", "ms", orZero(quantile(reads, 0.99)), int64(len(reads)))
	res.setN("core.write_p50_ms", "ms", orZero(quantile(writes, 0.5)), int64(len(writes)))
	res.setN("core.write_p99_ms", "ms", orZero(quantile(writes, 0.99)), int64(len(writes)))
	res.setN("core.call_p50_us", "us", orZero(quantile(calls, 0.5)), int64(len(calls)))
	res.setN("core.call_p99_us", "us", orZero(quantile(calls, 0.99)), int64(len(calls)))
	res.set("core.allocs_per_op", "count", allocsPerOp)
	res.set("cachespace.dirty_frac", "ratio", dirty)
	res.set("sim.events", "count", float64(events))
	res.set("sim.events_per_s", "1/s", median(eventRate))
	res.set("sim.virtual_s", "s", virtual.Seconds())
	res.set("pfs.opfs.calls", "count", float64(opfsCalls))
	res.set("pfs.cpfs.calls", "count", float64(cpfsCalls))
	setCPULayers(res, cpu)
	res.set("trace.overhead_frac", "ratio", 1-ratio(median(profRate), median(passRate)))
	res.note("traced passes %d, untraced passes %d", len(profRate), len(passRate))
	return res, nil
}

// addStats accumulates the counters the per-layer metrics use.
func addStats(dst *core.Stats, s core.Stats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.BytesRead += s.BytesRead
	dst.BytesWritten += s.BytesWritten
	dst.BytesReadCache += s.BytesReadCache
	dst.BytesReadDisk += s.BytesReadDisk
	dst.Identified += s.Identified
	dst.Critical += s.Critical
	dst.Admissions += s.Admissions
	dst.AdmitFailures += s.AdmitFailures
	dst.Flushes += s.Flushes
	dst.Fetches += s.Fetches
	dst.RebuildCycles += s.RebuildCycles
	dst.MetaSpills += s.MetaSpills
	dst.MetaFaultInsTable += s.MetaFaultInsTable
	dst.CacheEvictions += s.CacheEvictions
	if s.MetaResidentBytes > dst.MetaResidentBytes {
		dst.MetaResidentBytes = s.MetaResidentBytes
	}
}

// setStatsLayers sets the per-layer metrics derived from engine counters.
func setStatsLayers(res *result, st core.Stats) {
	res.set("core.read_hit_frac", "ratio", ratio(float64(st.BytesReadCache), float64(st.BytesRead)))
	res.set("core.admit_fail_frac", "ratio", ratio(float64(st.AdmitFailures), float64(st.Admissions+st.AdmitFailures)))
	res.set("core.flushes", "count", float64(st.Flushes))
	res.set("core.fetches", "count", float64(st.Fetches))
	res.set("core.rebuild_cycles", "count", float64(st.RebuildCycles))
	res.set("costmodel.critical_frac", "ratio", ratio(float64(st.Critical), float64(st.Identified)))
	res.set("dmt.spills", "count", float64(st.MetaSpills))
	res.set("dmt.fault_ins_per_read", "ratio", ratio(float64(st.MetaFaultInsTable), float64(st.Reads)))
	res.set("dmt.resident_bytes", "bytes", float64(st.MetaResidentBytes))
	res.set("cachespace.evictions", "count", float64(st.CacheEvictions))
}

// setCPULayers sets cpu.<pkg>_frac from a profile's shares (all 0 when the
// run took no profile).
func setCPULayers(res *result, cpu map[string]float64) {
	for _, k := range append(append([]string(nil), cpuPackages...), "gc", "syscall") {
		res.set("cpu."+k+"_frac", "ratio", cpu[k])
	}
}
