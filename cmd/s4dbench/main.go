// Command s4dbench regenerates the paper's tables and figures (and the
// DESIGN.md ablations) on the simulated testbed.
//
// Usage:
//
//	s4dbench [-exp id[,id...]] [-scale f] [-ranks n] [-parallel n] [-full] [-list]
//	         [-faults plan] [-fault-seed n]
//
// By default every experiment runs at the quick scale (~1/250 of the
// paper's data volume, all ratios preserved). -full uses the published
// sizes and process counts; expect a long runtime.
//
// -faults injects a deterministic failure schedule (transient I/O
// errors, CServer crash/restart, see internal/faults for the plan
// syntax) and emits the availability/degradation table; with no explicit
// -exp it runs just that experiment. -fault-seed varies the random
// streams the plan draws from. The table is byte-identical for a given
// (plan, seed) at every -parallel setting.
//
// The tables are deterministic virtual-time results. Wall-clock
// performance is measured by perfbench (bash perfbench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"s4dcache/internal/bench"
	"s4dcache/internal/faults"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale     = flag.Float64("scale", 0, "file-size scale factor (0 = quick default)")
		ranks     = flag.Int("ranks", 0, "base process count (0 = scale default)")
		parallel  = flag.Int("parallel", 0, "experiment cells simulated concurrently (0 = GOMAXPROCS)")
		full      = flag.Bool("full", false, "use the paper's published sizes (slow)")
		listOnly  = flag.Bool("list", false, "list experiment ids and exit")
		faultPlan = flag.String("faults", "", "fault-injection plan for the 'faults' experiment (see internal/faults)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault plan's random streams")
	)
	flag.Parse()

	if *listOnly {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := bench.Quick()
	if *full {
		cfg = bench.Paper()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *ranks > 0 {
		cfg.Ranks = *ranks
	}
	cfg.Parallel = *parallel
	cfg.FaultSeed = *faultSeed
	if *faultPlan != "" {
		plan, err := faults.Parse(*faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: -faults: %v\n", err)
			return 2
		}
		cfg.FaultPlan = plan
		if *expFlag == "all" {
			// A plan was given but no experiment selection: run the fault
			// experiment it parameterizes.
			*expFlag = "faults"
		}
	}

	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "s4dbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("s4dbench: scale=%.4g ranks=%d experiments=%d\n\n", cfg.Scale, cfg.Ranks, len(selected))
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(table.String())
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
