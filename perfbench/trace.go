package main

import (
	"bufio"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/core"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netserve"
	"s4dcache/internal/sim"
)

// The tracer times every layer from outside: it wraps the interfaces the
// layers already expose (netserve.Engine, core.Backend, kvstore.Backend,
// sim.Clock) and keeps one span per call in memory. Stamps are nanoseconds
// since the tracer's origin on the monotonic clock.

const (
	opWrite = netserve.OpWrite
	opRead  = netserve.OpRead
)

// Backend indices for pfs spans and timer samples.
const (
	fsOPFS = iota
	fsCPFS
)

var fsNames = [2]string{"opfs", "cpfs"}

// clientSpan is one request as the client saw it: due is when the open-
// loop schedule wanted it sent, issue when the client call started, done
// when the response arrived. busy marks a request first refused with BUSY.
type clientSpan struct {
	conn             int32
	op               uint8
	busy             bool
	file             string
	off              int64
	due, issue, done int64
}

// engineSpan is one netserve → core call: call and ret bracket the
// synchronous part of Engine.Write/Read, done is the completion callback.
type engineSpan struct {
	rank            int32
	op              uint8
	failed          bool
	file            string
	off, size       int64
	call, ret, done int64
}

// pfsSpan is one core → PFS backend call, issue to completion.
type pfsSpan struct {
	fs          uint8
	op          uint8
	off, size   int64
	issue, done int64
}

// timerSample is one sim.Clock timer of a PFS backend: the requested
// delay (modeled device time plus busy-horizon wait) and how late the
// callback ran past it (real software time).
type timerSample struct {
	fs              uint8
	requested, late int64
}

// appendSample is one kvstore backend append.
type appendSample struct {
	at, dur int64
	bytes   int
}

// spanLog is an append-only, mutex-guarded span list with a cap, so a
// traced run's memory stays bounded; spans past the cap are counted.
type spanLog[T any] struct {
	mu      sync.Mutex
	spans   []T
	dropped int64
}

const maxSpans = 1 << 20

func (l *spanLog[T]) add(s T) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog[T]) take() ([]T, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, d := l.spans, l.dropped
	l.spans, l.dropped = nil, 0
	return s, d
}

// tracer owns the span logs of one traced deployment.
type tracer struct {
	origin  time.Time
	client  spanLog[clientSpan]
	engine  spanLog[engineSpan]
	pfs     spanLog[pfsSpan]
	timers  spanLog[timerSample]
	appends spanLog[appendSample]
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// reset drops every span recorded so far (the traced closed loop's spans
// only serve the overhead measurement).
func (t *tracer) reset() {
	t.client.take()
	t.engine.take()
	t.pfs.take()
	t.timers.take()
	t.appends.take()
}

// tracedEngine wraps the engine netserve dispatches into.
type tracedEngine struct {
	inner netserve.Engine
	t     *tracer
}

// pendingEngine commits its span once both the synchronous return and the
// completion callback have been seen, in whichever order they happen.
type pendingEngine struct {
	s engineSpan
	n atomic.Int32
}

func (p *pendingEngine) finish(t *tracer) {
	if p.n.Add(-1) == 0 {
		t.engine.add(p.s)
	}
}

func (e *tracedEngine) do(op uint8, rank int, file string, off, size int64, b []byte, done func(error)) error {
	p := &pendingEngine{s: engineSpan{rank: int32(rank), op: op, file: file, off: off, size: size}}
	p.n.Store(2)
	p.s.call = e.t.now()
	cb := func(err error) {
		p.s.done = e.t.now()
		p.s.failed = err != nil
		p.finish(e.t)
		done(err)
	}
	var err error
	if op == opWrite {
		err = e.inner.Write(rank, file, off, size, b, cb)
	} else {
		err = e.inner.Read(rank, file, off, size, b, cb)
	}
	p.s.ret = e.t.now()
	if err != nil {
		// Rejected synchronously: netserve completes the request itself
		// and the callback may never run.
		p.s.done, p.s.failed = p.s.ret, true
		p.n.Add(-1)
	}
	p.finish(e.t)
	return err
}

func (e *tracedEngine) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	return e.do(opWrite, rank, file, off, size, data, done)
}

func (e *tracedEngine) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	return e.do(opRead, rank, file, off, size, buf, done)
}

// tracedBackend wraps one PFS backend under the core engine.
type tracedBackend struct {
	core.Backend
	t  *tracer
	fs uint8
}

func (b *tracedBackend) do(op uint8, file string, off, size int64, pri sim.Priority, p []byte, done func(error)) error {
	s := pfsSpan{fs: b.fs, op: op, off: off, size: size, issue: b.t.now()}
	cb := func(err error) {
		s.done = b.t.now()
		b.t.pfs.add(s)
		if done != nil {
			done(err)
		}
	}
	if op == opWrite {
		return b.Backend.Write(file, off, size, pri, p, cb)
	}
	return b.Backend.Read(file, off, size, pri, p, cb)
}

func (b *tracedBackend) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	return b.do(opWrite, file, off, size, pri, data, done)
}

func (b *tracedBackend) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	return b.do(opRead, file, off, size, pri, buf, done)
}

var _ core.Backend = (*tracedBackend)(nil)

// tracedClock wraps the clock one PFS backend times its service with.
type tracedClock struct {
	inner sim.Clock
	t     *tracer
	fs    uint8
}

func (c *tracedClock) Now() time.Duration { return c.inner.Now() }

func (c *tracedClock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	due := c.t.now() + int64(d)
	c.inner.After(d, func() {
		c.t.timers.add(timerSample{fs: c.fs, requested: int64(d), late: c.t.now() - due})
		fn()
	})
}

// tracedKV wraps the metadata store's byte backend.
type tracedKV struct {
	kvstore.Backend
	t *tracer
}

func (k *tracedKV) Append(name string, data []byte) error {
	at := k.t.now()
	err := k.Backend.Append(name, data)
	k.t.appends.add(appendSample{at: at, dur: k.t.now() - at, bytes: len(data)})
	return err
}

// linkKey identifies a request on one connection: netserve hands the
// engine the connection id as rank and the tenant-qualified file name, and
// a connection dispatches its requests in the order the client sent them,
// so equal keys on one connection match first-in first-out.
type linkKey struct {
	conn int32
	op   uint8
	file string
	off  int64
}

// linked is one client span with its matched engine span.
type linked struct {
	c clientSpan
	e engineSpan
}

// link matches client spans to engine spans. Unmatched spans (requests
// refused before dispatch) are counted, not paired.
func link(cs []clientSpan, es []engineSpan) (out []linked, unmatched int) {
	queues := make(map[linkKey][]int, len(es))
	for i, e := range es {
		file := e.file
		if j := strings.IndexByte(file, '|'); j >= 0 {
			file = file[j+1:]
		}
		k := linkKey{e.rank, e.op, file, e.off}
		queues[k] = append(queues[k], i)
	}
	// Engine spans are logged at completion; order each key's queue by
	// call time so FIFO matching follows dispatch order.
	for _, q := range queues {
		sort.Slice(q, func(a, b int) bool { return es[q[a]].call < es[q[b]].call })
	}
	order := make([]int, len(cs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cs[order[a]].issue < cs[order[b]].issue })
	for _, i := range order {
		c := cs[i]
		k := linkKey{c.conn, c.op, c.file, c.off}
		q := queues[k]
		if len(q) == 0 {
			unmatched++
			continue
		}
		out = append(out, linked{c: c, e: es[q[0]]})
		queues[k] = q[1:]
	}
	return out, unmatched
}

// spanDump is the span set a traced run keeps for the trace file.
type spanDump struct {
	client  []clientSpan
	engine  []engineSpan
	pfs     []pfsSpan
	timers  []timerSample
	appends []appendSample
}

// write renders the spans as text, one per line; write errors surface when
// w is flushed.
func (d *spanDump) write(w *bufio.Writer) {
	fmt.Fprintln(w, "# client conn op busy file off due_ns issue_ns done_ns")
	for _, s := range d.client {
		fmt.Fprintf(w, "client %d %d %t %s %d %d %d %d\n", s.conn, s.op, s.busy, s.file, s.off, s.due, s.issue, s.done)
	}
	fmt.Fprintln(w, "# engine rank op failed file off size call_ns ret_ns done_ns")
	for _, s := range d.engine {
		fmt.Fprintf(w, "engine %d %d %t %s %d %d %d %d %d\n", s.rank, s.op, s.failed, s.file, s.off, s.size, s.call, s.ret, s.done)
	}
	fmt.Fprintln(w, "# pfs fs op off size issue_ns done_ns")
	for _, s := range d.pfs {
		fmt.Fprintf(w, "pfs %s %d %d %d %d %d\n", fsNames[s.fs], s.op, s.off, s.size, s.issue, s.done)
	}
	fmt.Fprintln(w, "# timer fs requested_ns late_ns")
	for _, s := range d.timers {
		fmt.Fprintf(w, "timer %s %d %d\n", fsNames[s.fs], s.requested, s.late)
	}
	fmt.Fprintln(w, "# kvappend at_ns dur_ns bytes")
	for _, s := range d.appends {
		fmt.Fprintf(w, "kvappend %d %d %d\n", s.at, s.dur, s.bytes)
	}
}
