package bench

import (
	"fmt"
	"time"

	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/faults"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "recovery",
		Title: "Warm restart: recovered residency, time-to-warm, hit-rate after restart vs cold",
		Run:   runRecovery,
	})
}

// recoveryMode is one restart scenario: a cold restart (metadata lost), a
// clean warm restart, and warm restarts whose persisted metadata is damaged
// on the way back in (torn WAL tail, bit-rotted store snapshot).
type recoveryMode struct {
	name    string
	warm    bool
	corrupt string // corrupt: clause applied to the metadata read-back
}

func recoveryModes() []recoveryMode {
	return []recoveryMode{
		{name: "cold"},
		{name: "warm", warm: true},
		{name: "warm-torn-wal", warm: true, corrupt: "corrupt:dmt.wal:torntail"},
		{name: "warm-snap-bitflip", warm: true, corrupt: "corrupt:dmt.snap:bitflip:8"},
	}
}

// recoveryCell is one restart scenario's measurement.
type recoveryCell struct {
	recoveredClean  uint64  // clean extents re-admitted from the durable image
	recoveredDirty  uint64  // dirty extents re-installed synchronously
	recoveredBytes  int64   // cache bytes across both
	quarantined     uint64  // records rejected by their seal (served as misses)
	drift           uint64  // replayed extents absent from the residency image
	snapQuarantined bool    // store snapshot rejected wholesale by its frame CRC
	tornWALBytes    int64   // WAL tail bytes dropped at Open
	timeToWarmMs    float64 // virtual time served degraded before warm
	preHitRate      float64 // read-byte cache share of the pre-crash read pass
	postHitRate     float64 // read-byte cache share of the post-restart read pass
}

// readShareDelta is the fraction of read bytes served by the CServers
// between two stats snapshots.
func readShareDelta(prev, cur core.Stats) float64 {
	c := cur.BytesReadCache - prev.BytesReadCache
	d := cur.BytesReadDisk - prev.BytesReadDisk
	if c+d == 0 {
		return 0
	}
	return float64(c) / float64(c+d)
}

// runRecoveryPhase drives one phase to completion on an existing testbed
// and communicator. Unlike runPhases it neither builds a comm nor closes
// the testbed — the recovery bench restarts the S4D mid-run and needs to
// keep both under its own control.
func runRecoveryPhase(tb *cluster.Testbed, comm *mpiio.Comm, ph phase) error {
	finished := false
	if ph == nil {
		tb.S4D.DrainRebuild(func() { finished = true })
	} else {
		if err := ph(comm, func(workload.Result) { finished = true }); err != nil {
			return err
		}
	}
	tb.Eng.RunWhile(func() bool { return !finished })
	if !finished {
		return fmt.Errorf("bench: recovery phase stalled (event queue drained)")
	}
	return nil
}

// runRecoveryCell measures one restart scenario. The protocol, identical
// across modes so the columns compare directly:
//
//  1. random write pass (critical requests, absorbed into the cache)
//  2. Rebuilder drain (residency becomes clean, flushed state)
//  3. read pass — the pre-crash hit-rate baseline
//  4. SnapshotNow — the residency image the warm restart will verify
//  5. a second write pass over a quarter of the file — post-snapshot ops
//     that only the op-log carries (natural residency drift, and the bytes
//     the torn-WAL mode damages)
//  6. crash + restart per the mode; warm modes then run recovery to
//     completion in virtual time (TimeToWarm)
//  7. read pass — the post-restart hit rate
func runRecoveryCell(cfg Config, mode recoveryMode) (recoveryCell, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	ior := workload.IORConfig{
		Ranks:       cfg.Ranks,
		FileSize:    int64(float64(2<<30) * scale),
		RequestSize: 16 << 10,
		Random:      true,
		Seed:        42,
		File:        "recov.dat",
	}
	iorPhase := func(c workload.IORConfig, write bool) phase {
		return func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunIOR(comm, c, write, done)
		}
	}
	params := cluster.Default()
	params.Functional = true
	// The whole working set fits: what the restart recovers — everything,
	// or nothing — is then read directly off the post-restart hit rate.
	params.CacheCapacity = ior.FileSize
	params.EagerFetch = true
	params.PersistMeta = true
	params.SnapshotPeriod = 100 * time.Millisecond
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return recoveryCell{}, err
	}
	defer tb.Close()
	comm, err := tb.Comm(cfg.Ranks)
	if err != nil {
		return recoveryCell{}, err
	}
	if err := runRecoveryPhase(tb, comm, iorPhase(ior, true)); err != nil {
		return recoveryCell{}, err
	}
	if err := runRecoveryPhase(tb, comm, nil); err != nil {
		return recoveryCell{}, err
	}
	before := tb.S4D.Stats()
	if err := runRecoveryPhase(tb, comm, iorPhase(ior, false)); err != nil {
		return recoveryCell{}, err
	}
	var cell recoveryCell
	cell.preHitRate = readShareDelta(before, tb.S4D.Stats())
	tb.S4D.SnapshotNow()
	redirty := ior
	redirty.FileSize = ior.FileSize / 4
	redirty.Seed = 7
	if err := runRecoveryPhase(tb, comm, iorPhase(redirty, true)); err != nil {
		return recoveryCell{}, err
	}

	opts := cluster.RestartOptions{Warm: mode.warm, CorruptSeed: 1}
	if mode.corrupt != "" {
		plan, err := faults.Parse(mode.corrupt)
		if err != nil {
			return recoveryCell{}, err
		}
		opts.CorruptPlan = plan
	}
	if err := tb.RestartS4D(opts); err != nil {
		return recoveryCell{}, err
	}
	// The old communicator routes to the dead instance; rebuild it.
	comm, err = tb.Comm(cfg.Ranks)
	if err != nil {
		return recoveryCell{}, err
	}
	tb.Eng.RunWhile(func() bool { return tb.S4D.Stats().Recovering })
	st := tb.S4D.Stats()
	if st.Recovering {
		return recoveryCell{}, fmt.Errorf("bench: recovery/%s never reached warm", mode.name)
	}
	cell.recoveredClean = st.RecoveredClean
	cell.recoveredDirty = st.RecoveredDirty
	cell.recoveredBytes = st.RecoveredBytes
	cell.quarantined = st.QuarantinedRecords
	cell.drift = st.ResidencyDrift
	cell.snapQuarantined = st.MetaSnapQuarantined
	cell.tornWALBytes = st.MetaTornWALBytes
	cell.timeToWarmMs = float64(st.TimeToWarm) / float64(time.Millisecond)
	if err := runRecoveryPhase(tb, comm, iorPhase(ior, false)); err != nil {
		return recoveryCell{}, err
	}
	cell.postHitRate = readShareDelta(st, tb.S4D.Stats())
	return cell, nil
}

// recoveryRow is one labelled restart measurement.
type recoveryRow struct {
	mode string
	cell recoveryCell
}

// collectRecovery runs every restart scenario and returns the labelled
// cells (the table and TestRecoveryBench share it).
func collectRecovery(cfg Config) ([]recoveryRow, error) {
	modes := recoveryModes()
	cells := make([]Cell[recoveryCell], 0, len(modes))
	for _, m := range modes {
		m := m
		cells = append(cells, Cell[recoveryCell]{
			Label: "recovery/" + m.name,
			Run:   func() (recoveryCell, error) { return runRecoveryCell(cfg, m) },
		})
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]recoveryRow, len(modes))
	for i, m := range modes {
		rows[i] = recoveryRow{mode: m.name, cell: res[i]}
	}
	return rows, nil
}

// runRecovery regenerates the warm-restart table: each restart scenario's
// recovered residency, integrity damage surfaced (never served), virtual
// time-to-warm, and the hit rate a re-read sees afterwards against the
// pre-crash baseline.
func runRecovery(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "recovery",
		Title: "Warm restart: recovered state and hit-rate after restart (write, drain, read, snapshot, re-dirty, crash)",
		Columns: []string{"mode", "clean", "dirty", "bytes", "quar", "drift",
			"snap-quar", "torn-wal", "warm-ms", "hit-pre", "hit-post"},
	}
	rows, err := collectRecovery(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		c := r.cell
		t.AddRow(r.mode,
			fmt.Sprintf("%d", c.recoveredClean), fmt.Sprintf("%d", c.recoveredDirty),
			kb(c.recoveredBytes), fmt.Sprintf("%d", c.quarantined),
			fmt.Sprintf("%d", c.drift), fmt.Sprintf("%t", c.snapQuarantined),
			fmt.Sprintf("%dB", c.tornWALBytes), fmt.Sprintf("%.2f", c.timeToWarmMs),
			fmt.Sprintf("%.1f%%", c.preHitRate*100), fmt.Sprintf("%.1f%%", c.postHitRate*100))
	}
	t.AddNote("warm restart must hold hit-post near hit-pre; cold pays the full DServer re-read")
	t.AddNote("damaged-metadata modes still restart and serve correctly — damage moves to quar/torn-wal/snap-quar, never into served bytes")
	return t, nil
}
