// paper-tables regenerates the evaluation artifacts of "Graph-Based
// Procedural Abstraction" (CGO 2007): Table 1 (saved instructions),
// Figure 11 (relative savings), Table 2 and Table 3 (dependence-graph
// degree statistics), Figure 12 (extraction mechanisms) and the runtime
// summary.
//
// Usage:
//
//	paper-tables [-only table1|table2|table3|fig11|fig12|timings]
//	             [-miners sfx,dgspan,edgar] [-maxfrag n] [-workers n]
//	             [-noverify] [-bench-json file] [-bench-baseline file]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphpa/internal/bench"
	"graphpa/internal/pa"
)

func main() {
	only := flag.String("only", "", "render a single artifact")
	miners := flag.String("miners", "sfx,dgspan,edgar", "comma-separated miner list")
	programs := flag.String("programs", "", "comma-separated program subset (default: all)")
	maxFrag := flag.Int("maxfrag", 0, "maximum fragment size (default 8)")
	maxPatterns := flag.Int("maxpatterns", 0, "per-round mining budget (default 100000)")
	workers := flag.Int("workers", 0, "width of the program x miner cells and of each run's per-round fan-outs (0 = all cores, 1 = serial); tables are identical at any width")
	noverify := flag.Bool("noverify", false, "skip differential behaviour checks")
	benchJSON := flag.String("bench-json", "", "write a machine-readable benchmark record to this file")
	benchBase := flag.String("bench-baseline", "", "compare wall clocks against a committed benchmark record")
	verbose := flag.Bool("v", false, "log per-program progress to stderr")
	flag.Parse()
	opts := pa.Options{MaxNodes: *maxFrag, MaxPatterns: *maxPatterns, Workers: *workers}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "paper-tables:", err)
		os.Exit(2)
	}

	names := bench.Names
	if *programs != "" {
		names = strings.Split(*programs, ",")
	}
	var ws []*bench.Workload
	for _, n := range names {
		w, err := bench.Build(n, bench.DefaultCodegen())
		if err != nil {
			fatal(err)
		}
		ws = append(ws, w)
	}
	if *verbose {
		bench.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Tables 2 and 3 need no optimization runs.
	switch *only {
	case "table2":
		fmt.Print(bench.Table2(ws))
		return
	case "table3":
		fmt.Print(bench.Table3(ws))
		return
	}

	list := strings.Split(*miners, ",")
	ev, err := bench.Evaluate(ws, list, opts, !*noverify)
	if err != nil {
		fatal(err)
	}
	if *benchJSON != "" || *benchBase != "" {
		doc := bench.BenchJSON(ev, list)
		if *benchJSON != "" {
			if err := doc.WriteFile(*benchJSON); err != nil {
				fatal(err)
			}
		}
		if *benchBase != "" {
			base, err := bench.ReadBenchJSON(*benchBase)
			if err != nil {
				fatal(err)
			}
			if !bench.FingerprintsMatch(doc.Fingerprint, base.Fingerprint) {
				fatal(fmt.Errorf("options fingerprint of this run %+v does not match baseline %s %+v; visit and wall-clock comparisons would be meaningless", *doc.Fingerprint, *benchBase, *base.Fingerprint))
			}
			perRun, total := bench.CompareBench(doc, base)
			fmt.Printf("Benchmark wall clock vs %s (ratio < 1 is faster)\n", *benchBase)
			for _, k := range bench.BenchKeys(perRun) {
				fmt.Printf("%-18s %6.2fx\n", k, perRun[k])
			}
			fmt.Printf("%-18s %6.2fx\n", "total", total)
			fmt.Println()
			// Lattice visits are deterministic, so unlike wall clock they
			// gate hard: any per-run regression beyond 5% (or 2% in total)
			// against a baseline that recorded them fails the run.
			if vRun, vTotal, ok := bench.CompareVisits(doc, base); ok {
				fmt.Printf("Lattice visits vs %s (ratio < 1 visits fewer)\n", *benchBase)
				bad := false
				for _, k := range bench.BenchKeys(vRun) {
					fmt.Printf("%-18s %6.2fx\n", k, vRun[k])
					if vRun[k] > 1.05 {
						bad = true
					}
				}
				fmt.Printf("%-18s %6.2fx\n", "total", vTotal)
				fmt.Println()
				if vTotal > 1.02 {
					bad = true
				}
				if bad {
					fatal(fmt.Errorf("lattice visit count regressed vs %s (per-run tolerance 5%%, total 2%%)", *benchBase))
				}
			}
		}
	}
	switch *only {
	case "table1":
		fmt.Print(bench.Table1(ev))
	case "fig11":
		fmt.Print(bench.Figure11(ev))
	case "fig12":
		fmt.Print(bench.Figure12(ev))
	case "timings":
		fmt.Print(bench.Timings(ev))
	case "":
		fmt.Print(bench.Table1(ev))
		fmt.Println()
		fmt.Print(bench.Figure11(ev))
		fmt.Println()
		fmt.Print(bench.Table2(ws))
		fmt.Println()
		fmt.Print(bench.Table3(ws))
		fmt.Println()
		fmt.Print(bench.Figure12(ev))
		fmt.Println()
		fmt.Print(bench.Timings(ev))
	default:
		fatal(fmt.Errorf("unknown artifact %q", *only))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper-tables:", err)
	os.Exit(1)
}
