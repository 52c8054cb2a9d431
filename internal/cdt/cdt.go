// Package cdt implements the Critical Data Table (paper §III.C, Fig. 5
// left): the set of file ranges the Data Identifier has classified as
// performance-critical. Each entry records the range (D_file, D_offset,
// Length) and the C_flag that marks data awaiting a lazy fetch into the
// CServers by the Rebuilder.
//
// File names intern into a names.Arena — shared with the DMT and the
// core's per-file bookkeeping when constructed WithArena — and every
// internal structure is keyed by the dense arena id, so the table never
// duplicates name bytes and FIFO refs carry 4-byte ids instead of string
// headers.
package cdt

import (
	"time"

	"s4dcache/internal/extent"
	"s4dcache/internal/names"
)

// Info is the payload of one critical extent.
type Info struct {
	// CFlag marks data that missed the cache on a read and should be
	// fetched into the CServers by the Rebuilder (Algorithm 1, line 18).
	CFlag bool
	// Benefit is the modeled redirection benefit when the range was
	// identified, kept for eviction ordering and reporting.
	Benefit time.Duration
	// seq is the insertion sequence, for FIFO eviction.
	seq uint64
}

// Fetch is a pending lazy fetch (a C_flag-marked range).
type Fetch struct {
	File    string
	Off     int64
	Len     int64
	Benefit time.Duration
}

// Option configures New/NewStriped.
type Option func(*Table)

// WithArena shares a file-name interning arena with other tables.
// Default: a private arena.
func WithArena(a *names.Arena) Option { return func(t *Table) { t.arena = a } }

// Table is the Critical Data Table. Use New.
type Table struct {
	arena *names.Arena
	files map[uint32]*extent.Map[Info]
	// ids lists the files (arena ids) in first-added order; PendingFetches
	// follows it instead of the map so the Rebuilder's fetch order is
	// deterministic across runs.
	ids      []uint32
	order    []fifoRef // insertion order, for bounded eviction
	maxBytes int64
	bytes    int64
	// flagged tracks the C_flag-marked bytes, maintained incrementally by
	// every mutation so HasPending is O(1): the Rebuilder polls it every
	// period and must not walk (or allocate) per poll.
	flagged int64
	seq     uint64
	evicted uint64
	// ov is the reusable overlap-scan scratch of Add/SetCFlag/ClearCFlag;
	// callers are single-threaded and each scan completes before the next
	// starts, so one buffer per table is safe.
	ov []extent.Entry[Info]
}

type fifoRef struct {
	id  uint32
	off int64
	len int64
	seq uint64
}

// New returns an empty table bounded to maxBytes of tracked data;
// maxBytes <= 0 means unbounded.
func New(maxBytes int64, opts ...Option) *Table {
	t := &Table{files: make(map[uint32]*extent.Map[Info]), maxBytes: maxBytes}
	for _, o := range opts {
		o(t)
	}
	if t.arena == nil {
		t.arena = names.NewArena()
	}
	return t
}

// Arena returns the table's name-interning arena.
func (t *Table) Arena() *names.Arena { return t.arena }

// SetMaxBytes adjusts the table bound live; maxBytes <= 0 means
// unbounded. Shrinking a bounded table evicts immediately. A table
// constructed unbounded has no insertion log for its existing entries,
// so a new bound takes hold as fresh adds cycle through the FIFO.
func (t *Table) SetMaxBytes(maxBytes int64) {
	t.maxBytes = maxBytes
	t.evict()
}

// MaxBytes returns the current table bound (<= 0 means unbounded).
func (t *Table) MaxBytes() int64 { return t.maxBytes }

// lookup resolves file's extent map without interning — nil if the
// table has never tracked it. Allocation-free.
func (t *Table) lookup(file string) *extent.Map[Info] {
	id, ok := t.arena.Lookup(file)
	if !ok {
		return nil
	}
	return t.files[id]
}

// Add records [off, off+length) of file as critical and reports whether
// the range was not already fully covered. Re-adding an existing range
// refreshes its benefit and keeps its C_flag.
func (t *Table) Add(file string, off, length int64, benefit time.Duration) (grew bool) {
	if length <= 0 {
		return false
	}
	id, m := t.fileMap(file)
	total, flaggedOv := t.overlapBytes(m, off, length)
	// Preserve an existing C_flag if the new range overlaps flagged data.
	flag := flaggedOv > 0
	t.bytes -= total
	t.flagged -= flaggedOv
	t.seq++
	m.Insert(off, length, Info{CFlag: flag, Benefit: benefit, seq: t.seq})
	t.bytes += length
	if flag {
		t.flagged += length
	}
	if t.maxBytes > 0 {
		// The FIFO log only feeds evict(); an unbounded table would grow it
		// forever without ever consuming it.
		t.order = append(t.order, fifoRef{id: id, off: off, len: length, seq: t.seq})
		t.evict()
	}
	return total < length
}

// Contains reports whether [off, off+length) is fully covered by critical
// extents — the Algorithm 1 "req is in CDT" test.
func (t *Table) Contains(file string, off, length int64) bool {
	m := t.lookup(file)
	if m == nil {
		return false
	}
	return m.Covered(off, length)
}

// SetCFlag marks the overlapped critical parts of [off, off+length) for
// lazy fetching (Algorithm 1, line 18).
func (t *Table) SetCFlag(file string, off, length int64) {
	m := t.lookup(file)
	if m == nil {
		return
	}
	t.ov = m.AppendOverlaps(t.ov[:0], off, length)
	for _, e := range t.ov {
		if !e.Val.CFlag {
			v := e.Val
			v.CFlag = true
			m.Insert(e.Off, e.Len, v)
			t.flagged += e.Len
		}
	}
}

// ClearCFlag unmarks the overlapped parts of [off, off+length), after the
// Rebuilder has fetched them (paper §III.F).
func (t *Table) ClearCFlag(file string, off, length int64) {
	m := t.lookup(file)
	if m == nil {
		return
	}
	t.ov = m.AppendOverlaps(t.ov[:0], off, length)
	for _, e := range t.ov {
		if e.Val.CFlag {
			v := e.Val
			v.CFlag = false
			m.Insert(e.Off, e.Len, v)
			t.flagged -= e.Len
		}
	}
}

// PendingFetches returns up to max C_flag-marked ranges (all if max <= 0).
func (t *Table) PendingFetches(max int) []Fetch {
	var out []Fetch
	for _, id := range t.ids {
		m := t.files[id]
		file := t.arena.Name(id)
		m.Walk(func(e extent.Entry[Info]) bool {
			if e.Val.CFlag {
				out = append(out, Fetch{File: file, Off: e.Off, Len: e.Len, Benefit: e.Val.Benefit})
				if max > 0 && len(out) >= max {
					return false
				}
			}
			return true
		})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Extent is one tracked critical range, as reported by Extents.
type Extent struct {
	File    string
	Off     int64
	Len     int64
	CFlag   bool
	Benefit time.Duration
}

// Extents dumps every tracked range in deterministic (first-added file,
// ascending offset) order — the state-comparison oracle of the
// concurrency-equivalence tests.
func (t *Table) Extents() []Extent {
	var out []Extent
	for _, id := range t.ids {
		m := t.files[id]
		file := t.arena.Name(id)
		m.Walk(func(e extent.Entry[Info]) bool {
			out = append(out, Extent{File: file, Off: e.Off, Len: e.Len, CFlag: e.Val.CFlag, Benefit: e.Val.Benefit})
			return true
		})
	}
	return out
}

// Remove drops coverage of [off, off+length).
func (t *Table) Remove(file string, off, length int64) {
	m := t.lookup(file)
	if m == nil {
		return
	}
	total, flaggedOv := t.overlapBytes(m, off, length)
	t.bytes -= total
	t.flagged -= flaggedOv
	m.Delete(off, length)
}

// FileTracked reports whether any critical extent of file remains. Core
// uses it to prune per-file bookkeeping once a file drops out of the table.
func (t *Table) FileTracked(file string) bool {
	m := t.lookup(file)
	return m != nil && m.Len() > 0
}

// Bytes returns the total tracked critical bytes.
func (t *Table) Bytes() int64 { return t.bytes }

// PendingBytes returns the C_flag-marked bytes awaiting a lazy fetch,
// maintained incrementally (O(1), no walk).
func (t *Table) PendingBytes() int64 { return t.flagged }

// HasPending reports whether any lazy fetch is pending, in O(1) and
// without allocating — the Rebuilder's poll predicate.
func (t *Table) HasPending() bool { return t.flagged > 0 }

// Entries returns the total extent count.
func (t *Table) Entries() int {
	n := 0
	for _, m := range t.files {
		n += m.Len()
	}
	return n
}

// Evicted returns how many FIFO evictions the byte bound has forced.
func (t *Table) Evicted() uint64 { return t.evicted }

func (t *Table) fileMap(file string) (uint32, *extent.Map[Info]) {
	id := t.arena.Intern(file)
	m, ok := t.files[id]
	if !ok {
		m = extent.New[Info](nil)
		t.files[id] = m
		t.ids = append(t.ids, id)
	}
	return id, m
}

func (t *Table) evict() {
	if t.maxBytes <= 0 {
		return
	}
	for t.bytes > t.maxBytes && len(t.order) > 0 {
		ref := t.order[0]
		t.order = t.order[1:]
		m, ok := t.files[ref.id]
		if !ok {
			continue
		}
		// Only evict parts still owned by this insertion (not overwritten
		// by a newer Add).
		for _, e := range m.Overlaps(ref.off, ref.len) {
			if e.Val.seq == ref.seq {
				t.bytes -= e.Len
				if e.Val.CFlag {
					t.flagged -= e.Len
				}
				m.Delete(e.Off, e.Len)
				t.evicted++
			}
		}
	}
}

// overlapBytes returns the tracked bytes of m inside [off, off+length),
// clipped, along with how many of them carry the C_flag.
func (t *Table) overlapBytes(m *extent.Map[Info], off, length int64) (total, flagged int64) {
	end := off + length
	t.ov = m.AppendOverlaps(t.ov[:0], off, length)
	for _, e := range t.ov {
		lo, hi := e.Off, e.End()
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		total += hi - lo
		if e.Val.CFlag {
			flagged += hi - lo
		}
	}
	return total, flagged
}
