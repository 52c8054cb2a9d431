package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// layerTargets names, for every per-layer metric, the end-to-end metric
// and workload it is expected to move. The traced run prints it beside
// each value; README.md explains the reasoning.
var layerTargets = map[string]string{
	"netserve.wire_p50_ms":             "read_p50_ms on serve-hot-read",
	"netserve.wire_p99_ms":             "read_p50_ms on serve-hot-read",
	"netserve.busy_frac":               "client.error_frac, then ops_per_s, on serve-hot-read and serve-churn-write",
	"client.error_frac":                "ops_per_s on serve-hot-read and serve-churn-write",
	"core.call_p50_us":                 "ops_per_s on serve-hot-read",
	"core.call_p99_us":                 "ops_per_s on serve-hot-read",
	"core.read_p50_ms":                 "read_p50_ms on serve-hot-read",
	"core.read_p99_ms":                 "read_p50_ms, and the read_p90_ms info line, on serve-churn-write",
	"core.write_p50_ms":                "write_p50_ms on serve-churn-write",
	"core.write_p99_ms":                "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"core.read_hit_frac":               "read_p50_ms on serve-hot-read; mb_per_s on paper-sim",
	"core.admit_fail_frac":             "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"core.flushes":                     "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"core.fetches":                     "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"core.rebuild_cycles":              "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"core.allocs_per_op":               "ops_per_s and heap_mb on serve-hot-read",
	"costmodel.critical_frac":          "mb_per_s on paper-sim; write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"dmt.spills":                       "read_p50_ms, and the read_p90_ms info line, on serve-churn-write",
	"dmt.fault_ins_per_read":           "read_p50_ms, and the read_p90_ms info line, on serve-churn-write",
	"dmt.resident_bytes":               "heap_mb on serve-churn-write",
	"cachespace.evictions":             "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"cachespace.dirty_frac":            "write_p50_ms, and the write_p90_ms info line, on serve-churn-write",
	"kvstore.appends":                  "ops_per_s on serve-churn-write",
	"kvstore.append_p99_us":            "ops_per_s on serve-churn-write",
	"kvstore.records_per_commit":       "ops_per_s on serve-churn-write",
	"kvstore.meta_bytes_per_user_byte": "ops_per_s on serve-churn-write",
	"pfs.opfs.calls":                   "read_p50_ms on serve-hot-read",
	"pfs.opfs.p50_ms":                  "read_p50_ms on serve-hot-read",
	"pfs.opfs.p99_ms":                  "read_p50_ms on serve-hot-read",
	"pfs.opfs.modeled_p50_us":          "read_p50_ms on serve-hot-read",
	"pfs.opfs.late_p50_us":             "read_p50_ms on serve-hot-read",
	"pfs.opfs.late_p99_us":             "read_p50_ms on serve-hot-read",
	"pfs.cpfs.calls":                   "read_p50_ms on serve-hot-read",
	"pfs.cpfs.p50_ms":                  "read_p50_ms on serve-hot-read",
	"pfs.cpfs.p99_ms":                  "read_p50_ms on serve-hot-read",
	"pfs.cpfs.modeled_p50_us":          "read_p50_ms on serve-hot-read",
	"pfs.cpfs.late_p50_us":             "read_p50_ms on serve-hot-read",
	"pfs.cpfs.late_p99_us":             "read_p50_ms on serve-hot-read",
	"sim.events":                       "ops_per_s on paper-sim",
	"sim.events_per_s":                 "ops_per_s on paper-sim",
	"sim.virtual_s":                    "ops_per_s on paper-sim",
	"cpu.netserve_frac":                "ops_per_s on serve-hot-read",
	"cpu.netclient_frac":               "ops_per_s on serve-hot-read",
	"cpu.core_frac":                    "ops_per_s on serve-hot-read and serve-churn-write",
	"cpu.costmodel_frac":               "ops_per_s on serve-hot-read; ops_per_s on paper-sim",
	"cpu.dmt_frac":                     "ops_per_s on serve-churn-write",
	"cpu.cdt_frac":                     "ops_per_s on serve-churn-write",
	"cpu.cachespace_frac":              "ops_per_s on serve-churn-write",
	"cpu.extent_frac":                  "ops_per_s on serve-churn-write; ops_per_s on paper-sim",
	"cpu.names_frac":                   "ops_per_s on serve-hot-read",
	"cpu.kvstore_frac":                 "ops_per_s on serve-churn-write",
	"cpu.pfs_frac":                     "ops_per_s on paper-sim",
	"cpu.sim_frac":                     "ops_per_s on paper-sim",
	"cpu.workload_frac":                "ops_per_s on paper-sim",
	"cpu.mpiio_frac":                   "ops_per_s on paper-sim",
	"cpu.gc_frac":                      "ops_per_s and heap_mb on serve-churn-write",
	"cpu.syscall_frac":                 "ops_per_s on serve-hot-read",
	"gen.late_p99_ms":                  "validity of the open-loop latencies on serve-hot-read and serve-churn-write",
	"gen.backlog_end":                  "validity of the open-loop latencies on serve-hot-read and serve-churn-write",
	"trace.overhead_frac":              "validity of every per-layer metric",
}

// provenance is the informational header printed before every result:
// the host, the toolchain, the seed and the size of the code measured.
func provenance(o runOpts) []string {
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace),
		fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("git_commit=%s nontest_go_lines=%d", commit, nonTestGoLines(".")),
	}
}

// nonTestGoLines counts the lines of the program's non-test Go files under
// root, leaving out the benchmark itself and build output.
func nonTestGoLines(root string) int {
	lines := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if b, err := os.ReadFile(path); err == nil {
			lines += strings.Count(string(b), "\n")
		}
		return nil
	})
	return lines
}

// writeTraceFile writes the provenance, every metric and every span kept
// in memory to .bench_build/traces/<workload>-<seed>.txt.gz.
func writeTraceFile(o runOpts, prov []string, res *result) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.txt.gz", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriterSize(zw, 1<<16)
	for _, p := range prov {
		fmt.Fprintf(w, "# %s\n", p)
	}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Fprintf(w, "metric %s %g %s n=%d\n", name, m.value, m.unit, m.n)
	}
	if res.spans != nil {
		res.spans.write(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("# trace written to %s\n", path)
	return nil
}

// quantile returns the q-quantile of xs (sorted in place) by the nearest-
// rank rule; NaN when xs is empty. +Inf entries stand for requests that
// failed or were refused and so miss every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps NaN (no samples) to 0 for metrics a workload does not
// exercise.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
