package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuPackages are the internal packages whose CPU share is reported as
// cpu.<pkg>_frac.
var cpuPackages = []string{
	"netserve", "netclient", "core", "costmodel", "dmt", "cdt", "cachespace",
	"extent", "names", "kvstore", "pfs", "sim", "workload", "mpiio",
}

// cpuProfile records a CPU profile in memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each category's share of the sampled
// CPU time. A sample is charged to the innermost frame that belongs to a
// s4dcache/internal package, so runtime and standard-library work (maps,
// allocation, syscalls) counts against the internal package that asked for
// it; samples with no internal frame count only in the total. gc and
// syscall classify the whole stack and overlap the package shares.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	var total float64
	by := make(map[string]float64)
	for _, s := range samples {
		total += s.value
		gc, sys := false, false
		owner := ""
		for i, fn := range s.stack {
			if owner == "" {
				if rest, ok := strings.CutPrefix(fn, "s4dcache/internal/"); ok {
					owner = rest[:strings.IndexAny(rest+".", "./")]
				}
			}
			gc = gc || isGCFrame(fn)
			sys = sys || isSyscallFrame(fn, i == 0)
		}
		if owner != "" {
			by[owner] += s.value
		}
		if gc {
			by["gc"] += s.value
		}
		if sys {
			by["syscall"] += s.value
		}
	}
	out := make(map[string]float64, len(cpuPackages)+2)
	for _, k := range append(append([]string(nil), cpuPackages...), "gc", "syscall") {
		out[k] = ratio(by[k], total)
	}
	return out, nil
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.wbBufFlush", "runtime.gcStart", "runtime.gcMarkDone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isSyscallFrame reports system-call time: the syscall packages anywhere on
// the stack, or a leaf in the runtime's own futex/epoll/sleep calls.
func isSyscallFrame(fn string, leaf bool) bool {
	if strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall.") {
		return true
	}
	if leaf {
		switch fn {
		case "runtime.futex", "runtime.epollwait", "runtime.usleep", "runtime.osyield", "runtime.nanosleep":
			return true
		}
	}
	return false
}

// profSample is one decoded CPU sample: its stack of function names, leaf
// first (inlined frames expanded), and its CPU nanoseconds.
type profSample struct {
	stack []string
	value float64
}

// decodeProfile parses the gzipped profile.proto that runtime/pprof writes,
// keeping only what the attribution needs: samples, locations, functions
// and the string table.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: float64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (data) or not (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
