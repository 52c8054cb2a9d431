package main

import (
	"runtime"
	"sort"

	"s4dcache/internal/core"
)

// traceServe is the traced half of a served workload. The set-up
// deployment, untraced, runs a CPU-profiled closed loop (cpu.*, allocs,
// BUSY share, and the untraced rate the tracing overhead is measured
// against). A second deployment with every layer boundary wrapped then
// runs a traced closed loop (overhead only; its spans are dropped) and the
// traced open loop every other per-layer metric comes from.
func traceServe(o runOpts, wl *servedWorkload, tf *traffic, d *deployment, res *result, n *loadCount) error {
	dur := o.duration()
	var ms runtime.MemStats
	prof, err := startCPUProfile()
	if err != nil {
		d.close()
		return err
	}
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	srv0 := d.srv.Stats()
	busy0, attempted0, failed0 := n.busy.Load(), n.attempted.Load(), n.failed.Load()
	completed0 := n.completed.Load()
	plain := median(d.closedLoop(tf, 1, dur/4, n))
	runtime.ReadMemStats(&ms)
	cpu, err := prof.stop()
	if err != nil {
		d.close()
		return err
	}
	srv1 := d.srv.Stats()
	busy := n.busy.Load() - busy0
	attempts := n.attempted.Load() - attempted0 + busy
	res.set("core.allocs_per_op", "count", ratio(float64(ms.Mallocs-mallocs0), float64(n.completed.Load()-completed0)))
	res.set("netserve.busy_frac", "ratio", ratio(float64(srv1.Busy-srv0.Busy), float64(srv1.Requests-srv0.Requests)))
	res.set("client.error_frac", "ratio", ratio(float64(busy+n.failed.Load()-failed0), float64(attempts)))
	setCPULayers(res, cpu)
	checkDeployment(res, d, n)
	d.close()

	tr := newTracer()
	td, err := buildDeployment(wl, false, tr)
	if err != nil {
		return err
	}
	defer td.close()
	if wl.preload {
		if err := td.preload(o.seed); err != nil {
			return err
		}
	}
	td.closedLoop(tf, 0, wl.warmup, n)
	traced := median(td.closedLoop(tf, 1, dur/4, n))
	res.set("trace.overhead_frac", "ratio", 1-ratio(traced, plain))
	res.note("closed loop: untraced %.0f ops/s, traced %.0f ops/s", plain, traced)

	tr.reset()
	st0, kv0 := td.eng.Stats(), kvStats(td)
	or := td.openLoop(tf, 2, dur/2, n)
	st1, kv1 := td.eng.Stats(), kvStats(td)
	checkDeployment(res, td, n)

	cs, d1 := tr.client.take()
	es, d2 := tr.engine.take()
	ps, d3 := tr.pfs.take()
	ts, d4 := tr.timers.take()
	as, d5 := tr.appends.take()
	if dropped := d1 + d2 + d3 + d4 + d5; dropped > 0 {
		res.note("%d spans past the in-memory cap were dropped", dropped)
	}
	res.spans = &spanDump{client: cs, engine: es, pfs: ps, timers: ts, appends: as}

	links, unmatched := link(cs, es)
	var wire, calls, eRead, eWrite []float64
	for _, l := range links {
		client := float64(l.c.done - l.c.issue)
		engine := float64(l.e.done - l.e.call)
		wire = append(wire, (client-engine)/1e6)
	}
	for _, e := range es {
		calls = append(calls, float64(e.ret-e.call)/1e3)
		if e.op == opRead {
			eRead = append(eRead, float64(e.done-e.call)/1e6)
		} else {
			eWrite = append(eWrite, float64(e.done-e.call)/1e6)
		}
	}
	res.note("linked %d client spans to engine spans, %d unmatched", len(links), unmatched)
	res.setN("netserve.wire_p50_ms", "ms", orZero(quantile(wire, 0.5)), int64(len(wire)))
	res.setN("netserve.wire_p99_ms", "ms", orZero(quantile(wire, 0.99)), int64(len(wire)))
	res.setN("core.call_p50_us", "us", orZero(quantile(calls, 0.5)), int64(len(calls)))
	res.setN("core.call_p99_us", "us", orZero(quantile(calls, 0.99)), int64(len(calls)))
	res.setN("core.read_p50_ms", "ms", orZero(quantile(eRead, 0.5)), int64(len(eRead)))
	res.setN("core.read_p99_ms", "ms", orZero(quantile(eRead, 0.99)), int64(len(eRead)))
	res.setN("core.write_p50_ms", "ms", orZero(quantile(eWrite, 0.5)), int64(len(eWrite)))
	res.setN("core.write_p99_ms", "ms", orZero(quantile(eWrite, 0.99)), int64(len(eWrite)))

	delta := st1
	subStats(&delta, st0)
	delta.MetaResidentBytes = st1.MetaResidentBytes
	setStatsLayers(res, delta)
	if space := td.eng.Space(); space.Capacity() > 0 {
		res.set("cachespace.dirty_frac", "ratio", float64(space.DirtyBytes())/float64(space.Capacity()))
	}

	var appendUs []float64
	var appendBytes float64
	for _, a := range as {
		appendUs = append(appendUs, float64(a.dur)/1e3)
		appendBytes += float64(a.bytes)
	}
	res.setN("kvstore.appends", "count", float64(len(as)), int64(len(as)))
	res.setN("kvstore.append_p99_us", "us", orZero(quantile(appendUs, 0.99)), int64(len(appendUs)))
	res.set("kvstore.records_per_commit", "ratio", ratio(float64(kv1.GroupedRecords-kv0.GroupedRecords), float64(kv1.GroupCommits-kv0.GroupCommits)))
	res.set("kvstore.meta_bytes_per_user_byte", "ratio", ratio(appendBytes, float64(delta.BytesWritten)))

	for fs, name := range fsNames {
		var lat, modeled, late []float64
		for _, p := range ps {
			if int(p.fs) == fs {
				lat = append(lat, float64(p.done-p.issue)/1e6)
			}
		}
		for _, t := range ts {
			if int(t.fs) == fs {
				modeled = append(modeled, float64(t.requested)/1e3)
				late = append(late, float64(t.late)/1e3)
			}
		}
		pre := "pfs." + name + "."
		res.setN(pre+"calls", "count", float64(len(lat)), int64(len(lat)))
		res.setN(pre+"p50_ms", "ms", orZero(quantile(lat, 0.5)), int64(len(lat)))
		res.setN(pre+"p99_ms", "ms", orZero(quantile(lat, 0.99)), int64(len(lat)))
		res.setN(pre+"modeled_p50_us", "us", orZero(quantile(modeled, 0.5)), int64(len(modeled)))
		res.setN(pre+"late_p50_us", "us", orZero(quantile(late, 0.5)), int64(len(late)))
		res.setN(pre+"late_p99_us", "us", orZero(quantile(late, 0.99)), int64(len(late)))
	}
	res.setN("gen.late_p99_ms", "ms", orZero(quantile(or.genLate, 0.99)), int64(len(or.genLate)))
	res.set("gen.backlog_end", "count", float64(or.backlog))

	decompose(res, links)
	return nil
}

type kvCounters struct{ GroupCommits, GroupedRecords uint64 }

func kvStats(d *deployment) kvCounters {
	if d.store == nil {
		return kvCounters{}
	}
	st := d.store.Stats()
	return kvCounters{st.GroupCommits, st.GroupedRecords}
}

// subStats subtracts the counters setStatsLayers uses.
func subStats(dst *core.Stats, s core.Stats) {
	dst.Reads -= s.Reads
	dst.Writes -= s.Writes
	dst.BytesRead -= s.BytesRead
	dst.BytesWritten -= s.BytesWritten
	dst.BytesReadCache -= s.BytesReadCache
	dst.BytesReadDisk -= s.BytesReadDisk
	dst.Identified -= s.Identified
	dst.Critical -= s.Critical
	dst.Admissions -= s.Admissions
	dst.AdmitFailures -= s.AdmitFailures
	dst.Flushes -= s.Flushes
	dst.Fetches -= s.Fetches
	dst.RebuildCycles -= s.RebuildCycles
	dst.MetaSpills -= s.MetaSpills
	dst.MetaFaultInsTable -= s.MetaFaultInsTable
	dst.CacheEvictions -= s.CacheEvictions
}

// decompose splits the served read median into its stages. Medians of
// stages do not add up to the median of their sum, so it averages each
// stage over the reads whose total lies between the 45th and 55th
// percentiles: generator lag (due to issue), client and netserve inbound
// (issue to engine call), the engine's synchronous call, the engine's
// asynchronous completion (backend service: modeled device time plus
// timer lateness), and netserve outbound plus client receive. Printed as
// info lines; README.md quotes them.
func decompose(res *result, links []linked) {
	type stages struct{ total, lag, in, call, async, out float64 }
	var rows []stages
	for _, l := range links {
		if l.c.op != opRead || l.c.busy {
			continue
		}
		c, e := l.c, l.e
		rows = append(rows, stages{
			total: float64(c.done - c.due), lag: float64(c.issue - c.due), in: float64(e.call - c.issue),
			call: float64(e.ret - e.call), async: float64(e.done - e.ret), out: float64(c.done - e.done),
		})
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total < rows[j].total })
	mid := rows[len(rows)*45/100 : len(rows)*55/100+1]
	var sum stages
	for _, r := range mid {
		sum.total += r.total
		sum.lag += r.lag
		sum.in += r.in
		sum.call += r.call
		sum.async += r.async
		sum.out += r.out
	}
	k := 1e3 * float64(len(mid))
	res.set("info.read_p50.total_us", "us", sum.total/k)
	res.set("info.read_p50.gen_lag_us", "us", sum.lag/k)
	res.set("info.read_p50.wire_in_us", "us", sum.in/k)
	res.set("info.read_p50.engine_call_us", "us", sum.call/k)
	res.set("info.read_p50.engine_async_us", "us", sum.async/k)
	res.set("info.read_p50.wire_out_us", "us", sum.out/k)
}
