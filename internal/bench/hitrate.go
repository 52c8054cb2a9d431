package bench

import (
	"fmt"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "hitrate",
		Title: "Cache policy hit-rate lab: policy × workload sweep",
		Run:   runHitRate,
	})
	register(Experiment{
		ID:    "hitrate-shift",
		Title: "Adaptive policy engine vs static policies on a shifting workload",
		Run:   runHitRateShift,
	})
}

// hitCell is one policy×workload measurement of the hit-rate lab.
type hitCell struct {
	hitRate    float64 // fraction of read bytes served by the CServers
	evictions  uint64  // cache fragments reclaimed
	writebacks uint64  // Rebuilder dirty flushes
	rejected   uint64  // admissions bounced by the policy gate
	ghostHits  uint64  // S3-FIFO ghost readmissions
	opsPerSec  float64 // application requests per virtual second
}

// hitWorkload is one column of the lab: a write pass and a read pass of
// the same access pattern. Each cell runs write, drains the Rebuilder
// (so dirty absorptions become clean, evictable cache data), then reads
// the pattern twice — the second pass is the re-reference that separates
// the policies.
type hitWorkload struct {
	name     string
	dataSize int64
	write    phase
	reads    [2]phase
}

// hitRateWorkloads builds the lab's workload columns at cfg's scale.
// The zipfian stream is the policy separator: its working set exceeds
// the cache (dataSize/5) while its hot set roughly fits, so clean-LRU
// churns on one-touch tail blocks where S3-FIFO's probationary queue
// and TinyLFU's admission gate keep the hot set resident.
func hitRateWorkloads(cfg Config) []hitWorkload {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	var out []hitWorkload

	zipf := workload.ZipfConfig{
		Ranks:       cfg.Ranks,
		FileSize:    int64(float64(8<<30) * scale),
		RequestSize: 16 << 10,
		Requests:    2048,
		Skew:        1.05,
		ScanEvery:   3,
		Seed:        42,
		File:        "zipf.dat",
	}
	zipfEpoch := func(drawSeed int64) phase {
		cfg := zipf
		cfg.DrawSeed = drawSeed
		return func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunZipf(comm, cfg, false, done)
		}
	}
	out = append(out, hitWorkload{
		name:     "zipf",
		dataSize: zipf.FileSize,
		write: func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunZipf(comm, zipf, true, done)
		},
		// Each read pass is a fresh epoch of the same hot set: the
		// popularity draw changes, the hot blocks do not, so epoch-1
		// tail blocks are true one-hit wonders in epoch 2.
		reads: [2]phase{zipfEpoch(43), zipfEpoch(44)},
	})

	ior := workload.IORConfig{
		Ranks:       cfg.Ranks,
		FileSize:    int64(float64(2<<30) * scale),
		RequestSize: 16 << 10,
		Random:      true,
		Seed:        42,
		File:        "ior.dat",
	}
	out = append(out, hitWorkload{
		name:     "ior-rand",
		dataSize: ior.FileSize,
		write: func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunIOR(comm, ior, true, done)
		},
		reads: twice(func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunIOR(comm, ior, false, done)
		}),
	})

	hp := workload.HPIOConfig{
		Ranks: cfg.Ranks, RegionCount: 512, RegionSize: 8 << 10,
		RegionSpacing: 1 << 10,
	}
	hpData := int64(cfg.Ranks) * int64(hp.RegionCount) * hp.RegionSize
	out = append(out, hitWorkload{
		name:     "hpio",
		dataSize: hpData,
		write: func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunHPIO(comm, hp, true, done)
		},
		reads: twice(func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunHPIO(comm, hp, false, done)
		}),
	})

	tile := workload.TileIOConfig{
		Ranks: cfg.Ranks, ElementsX: 10, ElementsY: 10, ElementSize: 32 << 10,
	}
	tileData := int64(tile.Ranks) * int64(tile.ElementsX) * int64(tile.ElementsY) * tile.ElementSize
	out = append(out, hitWorkload{
		name:     "tileio",
		dataSize: tileData,
		write: func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunTileIO(comm, tile, true, done)
		},
		reads: twice(func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunTileIO(comm, tile, false, done)
		}),
	})

	mix := workload.PaperMixedIOR(cfg.Ranks, 16<<10, scale)
	out = append(out, hitWorkload{
		name:     "mixed",
		dataSize: mix.DataSize(),
		write:    mixedWrite(mix),
		reads:    twice(mixedRead(mix)),
	})
	return out
}

// twice repeats one phase for both read passes (workloads whose pattern
// has no epoch structure).
func twice(p phase) [2]phase { return [2]phase{p, p} }

// hitRatePolicies lists the lab's policy rows (cachespace.PolicyNames
// order: clean-lru first as the baseline).
func hitRatePolicies() []string { return cachespace.PolicyNames() }

// runHitRateCell runs one policy×workload cell: write pass, Rebuilder
// drain, two read passes, on an eager-fetch testbed so read misses
// exercise the policy's admission path in the request path.
func runHitRateCell(cfg Config, policy string, w hitWorkload) (hitCell, core.Stats, error) {
	params := cluster.Default()
	params.CacheCapacity = w.dataSize / 5
	params.CachePolicy = policy
	params.EagerFetch = true
	params.FaultPlan = cfg.FaultPlan
	params.FaultSeed = cfg.FaultSeed
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return hitCell{}, core.Stats{}, err
	}
	res, err := runPhases(tb, cfg.Ranks, w.write, nil, w.reads[0], w.reads[1])
	if err != nil {
		return hitCell{}, core.Stats{}, err
	}
	st := tb.S4D.Stats()
	total := res[0]
	for _, r := range res[1:] {
		total = total.Merge(r)
	}
	cell := hitCell{
		hitRate:    st.CacheReadShare(),
		evictions:  st.CacheEvictions,
		writebacks: st.Flushes,
		rejected:   st.PolicyAdmitRejected,
		ghostHits:  st.PolicyGhostHits,
	}
	if el := total.Elapsed().Seconds(); el > 0 {
		cell.opsPerSec = float64(total.Requests) / el
	}
	return cell, st, nil
}

// hitRow is one labelled lab measurement.
type hitRow struct {
	workload, policy string
	cell             hitCell
}

// collectHitRate runs the full policy × workload sweep and returns the
// labelled cells.
func collectHitRate(cfg Config) ([]hitRow, error) {
	workloads := hitRateWorkloads(cfg)
	policies := hitRatePolicies()
	var cells []Cell[hitCell]
	for _, w := range workloads {
		for _, p := range policies {
			w, p := w, p
			cells = append(cells, Cell[hitCell]{
				Label: fmt.Sprintf("hitrate/%s/%s", w.name, p),
				Run: func() (hitCell, error) {
					c, _, err := runHitRateCell(cfg, p, w)
					return c, err
				},
			})
		}
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]hitRow, 0, len(res))
	i := 0
	for _, w := range workloads {
		for _, p := range policies {
			rows = append(rows, hitRow{workload: w.name, policy: p, cell: res[i]})
			i++
		}
	}
	return rows, nil
}

// runHitRate regenerates the hit-rate lab table: every cache policy
// against every workload family, reporting read hit rate, evictions,
// dirty writebacks, gate rejections, ghost readmissions and request
// throughput. The workloads and the protocol (write, drain, read ×2)
// are identical across policies, so the columns compare directly.
func runHitRate(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "hitrate",
		Title: "Cache policy hit-rate lab (write, drain, read ×2; eager fetch)",
		Columns: []string{"workload", "policy", "hit-rate", "evictions",
			"writebacks", "rejected", "ghost-hits", "ops/s"},
	}
	rows, err := collectHitRate(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		c := r.cell
		t.AddRow(r.workload, r.policy, fmt.Sprintf("%.1f%%", c.hitRate*100),
			fmt.Sprintf("%d", c.evictions), fmt.Sprintf("%d", c.writebacks),
			fmt.Sprintf("%d", c.rejected), fmt.Sprintf("%d", c.ghostHits),
			fmt.Sprintf("%.0f", c.opsPerSec))
	}
	t.AddNote("zipf is the policy separator: working set > cache, hot set ~ cache — S3-FIFO and TinyLFU must beat clean-LRU there")
	t.AddNote("hpio/tileio/mixed cache a smaller fraction (cost-model selectivity dominates); the gated policies still lead by not churning what is resident")
	return t, nil
}

// shiftCell is one policy row of the shifting-workload bench: the cache
// traffic share (read+write bytes served by the CServers over all
// bytes) per phase and overall.
type shiftCell struct {
	phases  []float64
	overall float64
	swaps   uint64
}

// runPhasesStats is runPhases plus a Stats snapshot after every phase,
// so per-phase deltas can be attributed. Only used by the shift bench.
func runPhasesStats(tb *cluster.Testbed, ranks int, phases ...phase) ([]workload.Result, []core.Stats, error) {
	comm, err := tb.Comm(ranks)
	if err != nil {
		return nil, nil, err
	}
	results := make([]workload.Result, 0, len(phases))
	snaps := make([]core.Stats, 0, len(phases))
	for _, ph := range phases {
		finished := false
		var res workload.Result
		if ph == nil {
			tb.S4D.DrainRebuild(func() { finished = true })
		} else {
			if err := ph(comm, func(r workload.Result) { res = r; finished = true }); err != nil {
				return nil, nil, err
			}
		}
		tb.Eng.RunWhile(func() bool { return !finished })
		if !finished {
			return nil, nil, fmt.Errorf("bench: phase did not complete (event queue drained)")
		}
		results = append(results, res)
		snaps = append(snaps, tb.S4D.Stats())
	}
	tb.Close()
	return results, snaps, nil
}

// cacheShare returns the combined cache traffic share of the delta
// between two snapshots: bytes served by the CServers over all bytes
// moved, reads and writes combined.
func cacheShare(prev, cur core.Stats) float64 {
	cache := (cur.BytesReadCache - prev.BytesReadCache) + (cur.BytesWriteCache - prev.BytesWriteCache)
	disk := (cur.BytesReadDisk - prev.BytesReadDisk) + (cur.BytesWriteDisk - prev.BytesWriteDisk)
	if cache+disk == 0 {
		return 0
	}
	return float64(cache) / float64(cache+disk)
}

// runShiftCell drives the shifting workload on one testbed: a zipfian
// write burst to file A (favors clean-LRU's absorb-everything), zipfian
// re-reads of A (favors the gated policies), a uniform random scan over
// a much larger file B (cache-defeating thrash), A again — the phase
// where a policy that protected A's residency through the scan wins —
// and finally a write burst to a fresh file C against the now-full
// cache: every write misses, and an admission gate that protected A's
// residency so well now bounces the cold burst to the DServers while
// pure recency absorbs it. No static policy wins every phase; the
// adaptive engine has to take the gated policies' read phases and
// clean-LRU's write phases in one run.
func runShiftCell(cfg Config, policy string, adaptive bool) (shiftCell, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	zipfA := workload.ZipfConfig{
		Ranks:       cfg.Ranks,
		FileSize:    int64(float64(4<<30) * scale),
		RequestSize: 16 << 10,
		Requests:    1536,
		Skew:        1.1,
		Seed:        42,
		File:        "shift-a.dat",
	}
	scanB := workload.IORConfig{
		Ranks:       cfg.Ranks,
		FileSize:    int64(float64(16<<30) * scale),
		RequestSize: 16 << 10,
		Random:      true,
		Seed:        7,
		File:        "shift-b.dat",
	}
	params := cluster.Default()
	params.CacheCapacity = zipfA.FileSize / 5
	params.CachePolicy = policy
	params.EagerFetch = true
	params.FaultPlan = cfg.FaultPlan
	params.FaultSeed = cfg.FaultSeed
	if adaptive {
		params.AdaptivePeriod = 25 * time.Millisecond
	}
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return shiftCell{}, err
	}
	phaseA := func(drawSeed int64, write bool) phase {
		cfg := zipfA
		cfg.DrawSeed = drawSeed
		return func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunZipf(comm, cfg, write, done)
		}
	}
	readB := func(comm *mpiio.Comm, done func(workload.Result)) error {
		return workload.RunIOR(comm, scanB, false, done)
	}
	zipfC := zipfA
	zipfC.File = "shift-c.dat"
	zipfC.DrawSeed = 45
	writeC := func(comm *mpiio.Comm, done func(workload.Result)) error {
		return workload.RunZipf(comm, zipfC, true, done)
	}
	// Phases: P0 write burst, drain, P1 re-read A, P2 scan B,
	// P3 re-read A, P4 cold write burst against the full cache.
	_, snaps, err := runPhasesStats(tb, cfg.Ranks,
		phaseA(0, true), nil, phaseA(43, false), readB, phaseA(44, false), writeC)
	if err != nil {
		return shiftCell{}, err
	}
	var zero core.Stats
	cell := shiftCell{
		phases: []float64{
			cacheShare(zero, snaps[0]),     // P0: write burst
			cacheShare(snaps[1], snaps[2]), // P1: zipf read A
			cacheShare(snaps[2], snaps[3]), // P2: scan B
			cacheShare(snaps[3], snaps[4]), // P3: zipf read A again
			cacheShare(snaps[4], snaps[5]), // P4: cold write burst to C
		},
		overall: cacheShare(zero, snaps[len(snaps)-1]),
		swaps:   snaps[len(snaps)-1].PolicySwaps,
	}
	return cell, nil
}

// shiftRow is one labelled shift-bench measurement.
type shiftRow struct {
	label string
	cell  shiftCell
}

// collectShift runs every static policy plus the adaptive engine over
// the shifting workload and returns the labelled cells.
func collectShift(cfg Config) ([]shiftRow, error) {
	type row struct {
		label    string
		policy   string
		adaptive bool
	}
	rows := []row{
		{"clean-lru", cachespace.PolicyCleanLRU, false},
		{"s3fifo", cachespace.PolicyS3FIFO, false},
		{"tinylfu", cachespace.PolicyTinyLFU, false},
		{"adaptive", "", true},
	}
	var cells []Cell[shiftCell]
	for _, r := range rows {
		r := r
		cells = append(cells, Cell[shiftCell]{
			Label: "hitrate-shift/" + r.label,
			Run:   func() (shiftCell, error) { return runShiftCell(cfg, r.policy, r.adaptive) },
		})
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	out := make([]shiftRow, len(rows))
	for i, r := range rows {
		out[i] = shiftRow{label: r.label, cell: res[i]}
	}
	return out, nil
}

// runHitRateShift regenerates the adaptive-vs-static table: every static
// policy plus the adaptive engine on the same shifting workload. The
// acceptance bar is the bottom row matching or beating every static row
// overall: adaptation must buy the write-burst absorption of clean-LRU
// and the scan resistance of the gated policies in one run.
func runHitRateShift(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "hitrate-shift",
		Title: "Shifting workload: cache traffic share per phase, static vs adaptive",
		Columns: []string{"policy", "P0 write-burst", "P1 zipf-A", "P2 scan-B",
			"P3 zipf-A", "P4 write-C", "overall", "swaps"},
	}
	rows, err := collectShift(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		c := r.cell
		t.AddRow(r.label,
			fmt.Sprintf("%.1f%%", c.phases[0]*100), fmt.Sprintf("%.1f%%", c.phases[1]*100),
			fmt.Sprintf("%.1f%%", c.phases[2]*100), fmt.Sprintf("%.1f%%", c.phases[3]*100),
			fmt.Sprintf("%.1f%%", c.phases[4]*100),
			fmt.Sprintf("%.1f%%", c.overall*100), fmt.Sprintf("%d", c.swaps))
	}
	t.AddNote("no static policy wins every phase: the gated policies take the read phases (P1/P3), clean-LRU the cold write burst (P4)")
	t.AddNote("P2 is cache-defeating by design; every policy's share collapses there")
	return t, nil
}
