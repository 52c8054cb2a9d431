// Command perfbench is the repository benchmark: it assembles S4D-Cache
// deployments from the library's own constructors, drives one named
// workload for a fixed time, checks the outputs, and prints either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot-read --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the map from
// each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value; n is its sample count where that means
// something (latency quantiles), 0 otherwise.
type metric struct {
	value float64
	unit  string
	n     int64
}

// result is what one workload run hands back to main.
type result struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	checks    []check
	notes     []string
	spans     *spanDump // traced served runs: written to the trace file
}

// check is one correctness assertion; a failed check fails the run.
type check struct {
	name string
	ok   bool
	info string
}

func (r *result) set(name, unit string, v float64) { r.setN(name, unit, v, 0) }

func (r *result) setN(name, unit string, v float64, n int64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{value: v, unit: unit, n: n}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runOpts are the benchmark's command-line inputs.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func (o runOpts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*result, error){
	"paper-sim":         runPaperSim,
	"serve-hot-read":    func(o runOpts) (*result, error) { return runServe(o, hotRead) },
	"serve-churn-write": func(o runOpts) (*result, error) { return runServe(o, churnWrite) },
}

// specFile is the subset of BENCHMARK.json the benchmark checks itself
// against, so the metric set it prints cannot drift from the contract.
type specFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	var o runOpts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (paper-sim, serve-hot-read, serve-churn-write)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run; 0 the end-to-end metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o, "BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o runOpts, specPath string) error {
	runner, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	want, err := loadSpec(specPath, o.workload, o.trace)
	if err != nil {
		return err
	}
	prov := provenance(o)
	for _, line := range prov {
		fmt.Println("# " + line)
	}
	res, err := runner(o)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Println("# note: " + n)
	}
	correct := true
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("# check %-28s %-4s %s\n", c.name, status, c.info)
	}
	out := make(map[string]map[string]any, len(want))
	for _, w := range want {
		m, ok := res.metrics[w.name]
		if !ok && o.trace {
			// A layer the workload bypasses (netserve on paper-sim, sim on
			// the served workloads) did no work.
			m = metric{unit: w.unit}
			res.metrics[w.name] = m
		} else if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", o.workload, w.name)
		}
		if math.IsNaN(m.value) {
			return fmt.Errorf("metric %s has no samples", w.name)
		}
		if m.unit != w.unit {
			return fmt.Errorf("metric %s: unit %q, contract says %q", w.name, m.unit, w.unit)
		}
		out[w.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	printTable(o, want, res)
	if o.trace {
		if err := writeTraceFile(o, prov, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

type wantMetric struct{ name, unit string }

// loadSpec returns the metrics the contract expects from this run.
func loadSpec(path, workload string, trace bool) ([]wantMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read contract: %w", err)
	}
	var sf specFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		return nil, fmt.Errorf("parse contract %s: %w", path, err)
	}
	listed := false
	for _, w := range sf.Workloads {
		listed = listed || w.Name == workload
	}
	if !listed {
		return nil, fmt.Errorf("workload %s is not in %s", workload, path)
	}
	var out []wantMetric
	if trace {
		for _, m := range sf.PerLayer {
			out = append(out, wantMetric{m.Name, m.Unit})
		}
		for _, m := range out {
			if _, ok := layerTargets[m.name]; !ok {
				return nil, fmt.Errorf("per-layer metric %s has no target in perfbench", m.name)
			}
		}
		if len(out) != len(layerTargets) {
			return nil, fmt.Errorf("%s lists %d per-layer metrics, perfbench knows %d", path, len(out), len(layerTargets))
		}
	} else {
		for _, m := range sf.EndToEnd {
			out = append(out, wantMetric{m.Name, m.Unit})
		}
	}
	return out, nil
}

// printTable prints every contract metric with its unit and sample count;
// per-layer metrics also name the end-to-end metric and workload they are
// expected to move.
func printTable(o runOpts, want []wantMetric, res *result) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer"
	}
	fmt.Printf("# %s metrics, workload %s, seed %d\n", kind, o.workload, o.seed)
	for _, w := range want {
		m := res.metrics[w.name]
		samples := "-"
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d", m.n)
		}
		line := fmt.Sprintf("#   %-34s %14.6g %-6s %-9s", w.name, m.value, m.unit, samples)
		if o.trace {
			line += "  -> " + layerTargets[w.name]
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	var extra []string
	for name := range res.metrics {
		found := false
		for _, w := range want {
			found = found || w.name == name
		}
		if !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := res.metrics[name]
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Println(strings.TrimRight(fmt.Sprintf("#   (info) %-27s %14.6g %-6s %s", name, m.value, m.unit, samples), " "))
	}
}
