// edgar is the post-link-time optimizer: it compiles (or accepts) a
// program, runs procedural abstraction with the selected miner and
// reports the shrinkage, optionally verifying behaviour differentially.
//
// Usage:
//
//	edgar [-miner edgar|dgspan|sfx|edgar-canon] [-schedule] [-maxrounds n]
//	      [-minsup n] [-maxfrag n] [-maxpatterns n] [-greedy-mis]
//	      [-verify] [-roundstats] [-dump]
//	      [-cpuprofile file] [-memprofile file] file.mc
//
// The paper's pipeline (§2.1): decompile, reconstruct labels, split into
// basic blocks, build data-flow graphs, mine, extract, repeat.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"graphpa/internal/codegen"
	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/loader"
	"graphpa/internal/pa"
)

func main() {
	miner := flag.String("miner", "edgar", "sfx | dgspan | edgar | edgar-canon")
	asmIn := flag.Bool("asm", false, "input is assembly (must define _start; no runtime linked)")
	optimizeIR := flag.Bool("O", true, "compile with the IR optimizer (inlining, folding)")
	schedule := flag.Bool("schedule", true, "compile with the list scheduler")
	maxRounds := flag.Int("maxrounds", 0, "bound mine/extract rounds (0 = fixpoint)")
	minSup := flag.Int("minsup", 0, "minimum fragment frequency (default 2)")
	maxFrag := flag.Int("maxfrag", 0, "maximum fragment size in instructions (default 8)")
	maxPatterns := flag.Int("maxpatterns", 0, "lattice visit budget per mining round (default 100000; raise to approximate the exhaustive search)")
	greedyMIS := flag.Bool("greedy-mis", false, "use greedy instead of exact independent sets")
	verify := flag.Bool("verify", true, "run before/after and compare behaviour")
	roundStats := flag.Bool("roundstats", false, "print the per-round timing and cache breakdown")
	dump := flag.Bool("dump", false, "print the optimized assembly")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the optimization to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after optimization) to this file")
	flag.Parse()
	po := pa.Options{
		MaxRounds:   *maxRounds,
		MinSupport:  *minSup,
		MaxNodes:    *maxFrag,
		MaxPatterns: *maxPatterns,
		GreedyMIS:   *greedyMIS,
	}
	if err := po.ValidateAs(flagNames); err != nil {
		fmt.Fprintln(os.Stderr, "edgar:", err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: edgar [flags] file.mc")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var img *link.Image
	if *asmIn {
		img, err = core.BuildAsm(string(src))
	} else {
		img, err = core.Build(string(src), codegen.Options{Optimize: *optimizeIR, Schedule: *schedule})
	}
	if err != nil {
		fatal(err)
	}
	m, err := core.MinerByName(*miner)
	if err != nil {
		fatal(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	res, out, err := core.Optimize(img, m, po)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatal(err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	fmt.Printf("%s: %d -> %d instructions (saved %d) in %d rounds, %v\n",
		res.Miner, res.Before, res.After, res.Saved(), res.Rounds, res.Duration)
	for _, e := range res.Extractions {
		fmt.Printf("  %-8s %-10s size=%d occs=%d benefit=%d\n",
			e.Name, e.Method, e.Size, e.Occs, e.Benefit)
	}
	if *roundStats {
		printRoundStats(res.RoundStats)
	}
	if *verify {
		if err := core.VerifyEquivalent(img, out, nil); err != nil {
			fatal(fmt.Errorf("VERIFICATION FAILED: %w", err))
		}
		fmt.Println("verified: optimized binary behaves identically")
	}
	if *dump {
		prog, err := loader.Load(out)
		if err != nil {
			fatal(err)
		}
		fmt.Print(prog.String())
	}
}

// printRoundStats renders the per-round breakdown recorded by the
// driver: phase wall clocks (the sequence scan's is part of mine's),
// dependence-graph cache effectiveness, call summaries changed since the
// previous round, lattice visits, the children the walk cut as
// non-minimal codes or as unextractable fragments, the candidate builds
// cut by rewrite key, whether the walk stopped at the pattern budget,
// and the sequence scan's candidate builds. The last row is the fixpoint
// probe (the round that found nothing left).
func printRoundStats(stats []pa.RoundStat) {
	if len(stats) == 0 {
		return
	}
	fmt.Printf("per-round breakdown (blocks reused/rebuilt; summaries changed)\n")
	fmt.Printf("%5s %10s %10s %10s %10s %10s %10s | %-16s %-11s %8s %8s %8s %8s %5s %5s %8s\n",
		"round", "cfg", "sums", "dfg", "mine", "scan", "apply", "blocks r/b", "sums chg", "visits", "non-min", "unextr", "keycut", "trunc", "seqb", "extract")
	for _, st := range stats {
		trunc := "no"
		if st.Truncated {
			trunc = "yes"
		}
		fmt.Printf("%5d %10s %10s %10s %10s %10s %10s | %-16s %-11d %8d %8d %8d %8d %5s %5d %8d\n",
			st.Round,
			st.CFGBuild.Round(time.Microsecond),
			st.Summaries.Round(time.Microsecond),
			st.DFGBuild.Round(time.Microsecond),
			st.Mine.Round(time.Millisecond),
			st.Scan.Round(time.Microsecond),
			st.Apply.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", st.BlocksReused, st.BlocksRebuilt),
			st.SummariesChanged,
			st.Visits,
			st.NonMinimal,
			st.Unextractable,
			st.KeyCuts,
			trunc,
			st.SeqBuilds,
			st.Extractions)
	}
}

// flagNames names the flags that set each pa.Options field, for
// ValidateAs' diagnostics.
var flagNames = map[string]string{
	"MinSupport":  "-minsup",
	"MaxNodes":    "-maxfrag",
	"MaxRounds":   "-maxrounds",
	"MaxPatterns": "-maxpatterns",
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgar:", err)
	os.Exit(1)
}
