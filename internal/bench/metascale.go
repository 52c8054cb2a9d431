package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"unsafe"

	"s4dcache/internal/cluster"
	"s4dcache/internal/dmt"
	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
)

// The metascale family measures the metadata plane at file counts the
// paper's 24 B/entry argument (§V.E.1) presumes but the original
// map[string]*extent.Map representation could not reach: 100k and 1M
// distinct files, with and without a resident-metadata budget (DESIGN.md
// §16). Three layers of measurement:
//
//   - representation cells build bare DMTs — the legacy string-keyed
//     interval maps vs the packed slab — and report bytes/extent from
//     both the table's own accounting and honest runtime.MemStats heap
//     deltas, plus a seeded random lookup sweep;
//   - budget cells repeat the packed build under MetaBudget fractions of
//     the unbounded resident bytes, adding spill/fault-in counters and
//     the fault-in rate the lookup sweep pays;
//   - engine cells run a small write+read workload through a full S4D
//     testbed (PersistMeta+ChargeMetaIO) budgeted vs unbounded, proving
//     the budget costs virtual-time metadata reads, not hits.
//
// The registered "metascale" experiment renders the deterministic
// accounting subset (no heap columns) as a suite table; the tests check
// the heap deltas and the engine cells. BENCH_pr10.json is the frozen
// record of the heap and lookup-latency sweep at 100k and 1M files.

// MetaScaleConfig sizes the metascale bench.
type MetaScaleConfig struct {
	// Files lists the distinct-file counts to sweep.
	Files []int
	// ExtentsPerFile is the mapped extents built per file.
	ExtentsPerFile int
	// BudgetFracs are the MetaBudget settings as fractions of the
	// unbounded resident bytes measured at the same file count.
	BudgetFracs []float64
	// Lookups is the seeded random lookup sweep length per cell.
	Lookups int
}

// quickMetaScale sizes the registered experiment so the suite stays
// interactive.
func quickMetaScale() MetaScaleConfig {
	return MetaScaleConfig{
		Files:          []int{20_000},
		ExtentsPerFile: 8,
		BudgetFracs:    []float64{0.25},
		Lookups:        20_000,
	}
}

// liveHeap forces a collection and returns the live heap bytes, so a
// measured section's growth is not garbage awaiting collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowth is the live-bytes growth between two liveHeap captures;
// sections that free memory clamp to 0.
func heapGrowth(before, after uint64) int64 {
	if after < before {
		return 0
	}
	return int64(after - before)
}

// metaScale extent geometry: extents sit 4 stripe-aligned KB long at
// 16 KB spacing, so neighbours never coalesce and every insert stays one
// slab segment.
const (
	metaExtLen     = 4 << 10
	metaExtSpacing = 16 << 10
)

// metaFileNames builds the sweep's file-name universe once per file
// count, outside any measured section, so name construction never
// pollutes a heap delta or a timed lookup.
func metaFileNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/meta/d%03d/f%07d", i%512, i)
	}
	return names
}

// legacyMapping mirrors the pre-packed dmt.Mapping payload.
type legacyMapping struct {
	CacheOff int64
	Dirty    bool
}

// legacyMeta is the representation this PR replaced, rebuilt here
// verbatim as the measured baseline. That is more than the Go map of
// per-file pointer-held interval maps plus the duplicate name slice:
// the pre-PR striped table also published a per-file epoch view — an
// immutable []extent.Entry copy behind a slot pointer — for the
// lock-free serve path, so an honest resident comparison carries that
// layer on both sides (the packed rows report theirs as ViewBytes).
type legacyMeta struct {
	files map[string]*extent.Map[legacyMapping]
	names []string
	views map[string]*legacyFileSlot
}

// legacyFileSlot and legacyFileExtents mirror the pre-PR view layer's
// fileSlot/fileExtents allocations one for one.
type legacyFileSlot struct {
	ext *legacyFileExtents
}

type legacyFileExtents struct {
	entries []extent.Entry[legacyMapping]
}

func buildLegacy(names []string, extPerFile int) *legacyMeta {
	lm := &legacyMeta{
		files: make(map[string]*extent.Map[legacyMapping]),
		views: make(map[string]*legacyFileSlot),
	}
	for i, name := range names {
		m := extent.New[legacyMapping](nil)
		for e := 0; e < extPerFile; e++ {
			off := int64(e) * metaExtSpacing
			m.Insert(off, metaExtLen, legacyMapping{CacheOff: int64(i*extPerFile+e) * metaExtSpacing})
		}
		lm.files[name] = m
		lm.names = append(lm.names, name)
		// Publish the file's epoch view exactly as the pre-PR republish
		// did: a fresh exact-capacity entry copy behind a slot pointer.
		ents := m.AppendEntries(make([]extent.Entry[legacyMapping], 0, m.Len()))
		lm.views[name] = &legacyFileSlot{ext: &legacyFileExtents{entries: ents}}
	}
	return lm
}

// accountBytes sums the legacy representation's own accounting: interval
// entry structs — live map and published view copy — plus the duplicated
// name bytes and headers (map bucket and pointer overhead show up only
// in the heap delta, which is why this undercounts relative to it).
func (lm *legacyMeta) accountBytes() int64 {
	const entrySize = int64(unsafe.Sizeof(extent.Entry[legacyMapping]{}))
	const stringHeader = int64(unsafe.Sizeof(""))
	var n int64
	for _, name := range lm.names {
		// Each name is stored three times — map key, names slice, view map
		// key — sharing the byte array but not the headers.
		n += int64(lm.files[name].Len())*entrySize + int64(len(name)) + 3*stringHeader
		n += int64(len(lm.views[name].ext.entries)) * entrySize
	}
	return n
}

// MetaScaleRow is one representation × budget cell.
type MetaScaleRow struct {
	// Repr is "legacy" (string-keyed interval maps) or "packed" (slab +
	// arena).
	Repr  string
	Files int
	// Extents is the mapped extent count (files × extents/file).
	Extents int
	// BudgetFrac is MetaBudget over the unbounded resident bytes; 0
	// means unbounded.
	BudgetFrac  float64
	BudgetBytes int64
	// ResidentBytes/MemoryBytes/ArenaBytes/ViewBytes are the table's
	// accounting (packed rows); legacy rows report their own accounting
	// under MemoryBytes and the heap delta under ResidentBytes
	// (everything is resident there).
	ResidentBytes int64
	MemoryBytes   int64
	ArenaBytes    int64
	// ViewBytes is the published epoch-view layer of packed rows — the
	// lock-free read path's resident price, which the budget shrinks
	// along with the slab (spilled files collapse to a shared sentinel).
	ViewBytes int64
	// ResidentPerExtent is resident RAM per mapped extent:
	// (MemoryBytes+ArenaBytes+ViewBytes)/Extents for packed rows,
	// heap/Extents for legacy (its own accounting undercounts map
	// overheads). HeapPerExtent is the build's live-heap growth per
	// extent, measured via forced-GC MemStats captures; the unbounded
	// packed row's value cross-checks that the packed accounting and the
	// heap agree. Budget cells' heap includes the in-memory spill store
	// (the stand-in for the SSD), so their resident truth is
	// ResidentPerExtent.
	ResidentPerExtent float64
	HeapPerExtent     float64
	SpilledFiles      int
	Spills            uint64
	FaultIns          uint64
	// FaultInRate is fault-ins per lookup over the sweep.
	FaultInRate float64
	// LookupHits sanity-checks the sweep (every lookup must hit).
	LookupHits uint64
}

// MetaEngineRow is one full-testbed hit-rate cell.
type MetaEngineRow struct {
	HitRate float64
	// HitRateDelta is this cell's hit rate minus the unbounded cell's —
	// the budget must cost metadata I/O, not hits, so this stays 0.
	HitRateDelta      float64
	MetaResidentBytes int64
	MetaSpills        uint64
	MetaFaultIns      uint64
}

// metaLookupSweep runs the seeded random lookup sweep and returns the
// number of lookups that found the extent. The seed is fixed so budgeted
// cells see the same fault-in pattern in every run.
func metaLookupSweep(names []string, extPerFile, lookups int, look func(name string, off int64) bool) (hits uint64) {
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < lookups; k++ {
		name := names[rng.Intn(len(names))]
		off := int64(rng.Intn(extPerFile)) * metaExtSpacing
		if look(name, off) {
			hits++
		}
	}
	return hits
}

// legacyCell builds and measures the legacy representation at one file
// count.
func legacyCell(names []string, extPerFile, lookups int) MetaScaleRow {
	before := liveHeap()
	lm := buildLegacy(names, extPerFile)
	heap := heapGrowth(before, liveHeap())
	extents := len(names) * extPerFile
	var scratch []extent.Entry[legacyMapping]
	hits := metaLookupSweep(names, extPerFile, lookups, func(name string, off int64) bool {
		scratch = lm.files[name].AppendOverlaps(scratch[:0], off, metaExtLen)
		return len(scratch) > 0
	})
	row := MetaScaleRow{
		Repr: "legacy", Files: len(names), Extents: extents,
		ResidentBytes: heap, MemoryBytes: lm.accountBytes(),
		ResidentPerExtent: float64(heap) / float64(extents),
		HeapPerExtent:     float64(heap) / float64(extents),
		LookupHits:        hits,
	}
	runtime.KeepAlive(lm)
	return row
}

// packedCell builds a striped packed table at one file count under the
// given budget (0 = unbounded, built without a store so the heap delta
// is pure table). Returns the row; the unbounded row's ResidentBytes is
// the reference the budget fractions scale from.
func packedCell(names []string, extPerFile, lookups int, budgetFrac float64, budgetBytes int64) (MetaScaleRow, error) {
	before := liveHeap()
	var tbl *dmt.Striped
	if budgetBytes > 0 {
		st, err := kvstore.Open(kvstore.NewMemBackend(), "dmt", kvstore.Options{Sync: kvstore.SyncEvery})
		if err != nil {
			return MetaScaleRow{}, err
		}
		tbl, err = dmt.OpenStriped(st, dmt.WithMetaBudget(budgetBytes))
		if err != nil {
			return MetaScaleRow{}, err
		}
	} else {
		tbl = dmt.NewStriped()
	}
	for i, name := range names {
		for e := 0; e < extPerFile; e++ {
			off := int64(e) * metaExtSpacing
			cacheOff := int64(i*extPerFile+e) * metaExtSpacing
			if err := tbl.Insert(name, off, metaExtLen, cacheOff, false); err != nil {
				return MetaScaleRow{}, err
			}
		}
	}
	heap := heapGrowth(before, liveHeap())

	buildStats := tbl.Stats()
	var hitsBuf []dmt.Hit
	var gapsBuf []extent.Gap
	hits := metaLookupSweep(names, extPerFile, lookups, func(name string, off int64) bool {
		hitsBuf, gapsBuf = tbl.AppendLookup(hitsBuf[:0], gapsBuf[:0], name, off, metaExtLen)
		return len(hitsBuf) > 0
	})
	st := tbl.Stats()

	extents := len(names) * extPerFile
	arenaBytes := tbl.Arena().Bytes()
	viewBytes := tbl.ViewBytes()
	resident := st.MemoryBytes + arenaBytes + viewBytes
	row := MetaScaleRow{
		Repr: "packed", Files: len(names), Extents: extents,
		BudgetFrac: budgetFrac, BudgetBytes: budgetBytes,
		ResidentBytes: st.ResidentBytes, MemoryBytes: st.MemoryBytes, ArenaBytes: arenaBytes,
		ViewBytes:         viewBytes,
		ResidentPerExtent: float64(resident) / float64(extents),
		HeapPerExtent:     float64(heap) / float64(extents),
		SpilledFiles:      st.SpilledFiles,
		Spills:            st.Spills,
		FaultIns:          st.FaultIns - buildStats.FaultIns,
		FaultInRate:       float64(st.FaultIns-buildStats.FaultIns) / float64(max(lookups, 1)),
		LookupHits:        hits,
	}
	runtime.KeepAlive(tbl)
	return row, nil
}

// collectMetaScale runs the representation and budget cells sequentially
// (honest MemStats need exclusive heaps) and returns the rows grouped by
// file count: legacy, packed-unbounded, then one row per budget
// fraction.
func collectMetaScale(msc MetaScaleConfig) ([]MetaScaleRow, error) {
	var rows []MetaScaleRow
	for _, n := range msc.Files {
		names := metaFileNames(n)
		rows = append(rows, legacyCell(names, msc.ExtentsPerFile, msc.Lookups))
		unbounded, err := packedCell(names, msc.ExtentsPerFile, msc.Lookups, 0, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, unbounded)
		for _, frac := range msc.BudgetFracs {
			budget := int64(frac * float64(unbounded.ResidentBytes))
			if budget < 1 {
				budget = 1
			}
			row, err := packedCell(names, msc.ExtentsPerFile, msc.Lookups, frac, budget)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// metaEngineCell drives one full-testbed cell: 4 seeded-random 4 KB
// writes per file, a Rebuilder drain, then the same ranges read back.
// budget 0 = unbounded.
func metaEngineCell(files int, budget int64) (MetaEngineRow, error) {
	const (
		ranks     = 4
		fileSpan  = 64 << 10
		writesPer = 4
	)
	params := cluster.Default()
	// The cell drives the Rebuilder explicitly (DrainRebuild below); a
	// periodic ticker would keep Engine.Run from ever draining.
	params.RebuildPeriod = 0
	params.CacheCapacity = int64(files) * writesPer * metaExtLen * 2
	params.PersistMeta = true
	params.ChargeMetaIO = true
	params.MetaBudget = budget
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return MetaEngineRow{}, err
	}
	defer tb.Close()

	// Per-file seeded random offsets: the same access pattern for every
	// budget setting, 4 KB-aligned within the file span.
	rng := rand.New(rand.NewSource(23))
	offs := make([][]int64, files)
	for i := range offs {
		offs[i] = make([]int64, writesPer)
		for j := range offs[i] {
			offs[i][j] = int64(rng.Intn(fileSpan/metaExtLen)) * metaExtLen
		}
	}
	name := func(i int) string { return fmt.Sprintf("/eng/f%06d", i) }

	for i := 0; i < files; i++ {
		for _, off := range offs[i] {
			if err := tb.S4D.Write(i%ranks, name(i), off, metaExtLen, nil, nil); err != nil {
				return MetaEngineRow{}, err
			}
			tb.Eng.Run()
		}
	}
	drained := false
	tb.S4D.DrainRebuild(func() { drained = true })
	tb.Eng.RunWhile(func() bool { return !drained })

	for i := 0; i < files; i++ {
		for _, off := range offs[i] {
			finished := false
			if err := tb.S4D.Read(i%ranks, name(i), off, metaExtLen, nil, func(error) { finished = true }); err != nil {
				return MetaEngineRow{}, err
			}
			tb.Eng.RunWhile(func() bool { return !finished })
		}
	}
	st := tb.S4D.Stats()
	return MetaEngineRow{
		HitRate:           st.CacheReadShare(),
		MetaResidentBytes: st.MetaResidentBytes,
		MetaSpills:        st.MetaSpills,
		MetaFaultIns:      st.MetaFaultIns,
	}, nil
}

// collectMetaEngine runs the unbounded cell, then a 25%-budget cell
// scaled from its measured resident bytes.
func collectMetaEngine(files int) ([]MetaEngineRow, error) {
	base, err := metaEngineCell(files, 0)
	if err != nil {
		return nil, err
	}
	budget := base.MetaResidentBytes / 4
	if budget < 1 {
		budget = 1
	}
	tight, err := metaEngineCell(files, budget)
	if err != nil {
		return nil, err
	}
	tight.HitRateDelta = tight.HitRate - base.HitRate
	return []MetaEngineRow{base, tight}, nil
}

func init() {
	register(Experiment{
		ID:    "metascale",
		Title: "Metadata plane at scale: packed extents + resident budget",
		Run:   runMetaScale,
	})
}

// runMetaScale renders the deterministic accounting subset of the
// metascale sweep as a suite table: representation bytes/extent from the
// tables' own accounting, spill/fault-in counts and rates. Heap deltas
// stay out — this table must come out byte-identical at every -parallel
// setting and under -faults.
func runMetaScale(cfg Config) (*Table, error) {
	msc := quickMetaScale()
	rows, err := collectMetaScale(msc)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "metascale",
		Title: "metadata plane at scale (accounting bytes; heap/latency in BENCH_pr10.json)",
		Columns: []string{"repr", "files", "extents", "budget", "resident-B",
			"accounted-B/ext", "spilled-files", "fault-ins", "fault-rate", "lookup-hits"},
	}
	for _, r := range rows {
		budget := "unbounded"
		if r.BudgetBytes > 0 {
			budget = fmt.Sprintf("%.0f%%", r.BudgetFrac*100)
		}
		perExt := float64(r.MemoryBytes+r.ArenaBytes+r.ViewBytes) / float64(r.Extents)
		resident := r.ResidentBytes
		if r.Repr == "legacy" {
			// The legacy row's accounting resident bytes are its interval
			// slices + names; the heap delta stays out of the
			// deterministic table.
			resident = r.MemoryBytes
			perExt = float64(r.MemoryBytes) / float64(r.Extents)
		}
		t.AddRow(r.Repr, fmt.Sprintf("%d", r.Files), fmt.Sprintf("%d", r.Extents), budget,
			fmt.Sprintf("%d", resident), fmt.Sprintf("%.1f", perExt),
			fmt.Sprintf("%d", r.SpilledFiles), fmt.Sprintf("%d", r.FaultIns),
			fmt.Sprintf("%.3f", r.FaultInRate), fmt.Sprintf("%d", r.LookupHits))
	}
	t.AddNote("budget rows spill cold files into the kvstore; lookups fault them back in")
	t.AddNote("heap-measured bytes/extent is checked by TestMetaScaleSmoke; BENCH_pr10.json keeps the 100k/1M-file heap and lookup p50/p99 record")
	return t, nil
}
