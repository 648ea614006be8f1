// Package bench holds the evaluation workloads and the harness that
// regenerates every table and figure of the paper's §4: eight
// MiBench-style programs written in mini-C, compiled by our size-tuned
// template code generator with load scheduling, statically linked against
// the runtime, and optimized post link-time by SFX, DgSpan and Edgar.
package bench

import (
	"context"
	"embed"
	"fmt"
	"sort"
	"time"

	"graphpa/internal/cfg"
	"graphpa/internal/codegen"
	"graphpa/internal/core"
	"graphpa/internal/dfg"
	"graphpa/internal/link"
	"graphpa/internal/loader"
	"graphpa/internal/pa"
	"graphpa/internal/par"
)

//go:embed programs/*.mc
var programFS embed.FS

// Names lists the benchmark programs in the paper's Table 1 order.
var Names = []string{
	"bitcnts", "crc", "dijkstra", "patricia", "qsort", "rijndael", "search", "sha",
}

// Source returns a program's mini-C source.
func Source(name string) (string, error) {
	b, err := programFS.ReadFile("programs/" + name + ".mc")
	if err != nil {
		return "", fmt.Errorf("bench: unknown program %q", name)
	}
	return string(b), nil
}

// Workload is one compiled benchmark.
type Workload struct {
	Name   string
	Image  *link.Image
	Prog   *loader.Program
	Instrs int
}

// DefaultCodegen mirrors the paper's setup: size-oriented templates plus
// the list scheduler (gcc reorders loads even at -Os; §4.2 attributes
// rijndael's headline win to exactly that).
func DefaultCodegen() codegen.Options { return codegen.Options{Optimize: true, Schedule: true} }

// Build compiles and links one benchmark.
func Build(name string, opts codegen.Options) (*Workload, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	img, err := core.Build(src, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	prog, err := loader.Load(img)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return &Workload{Name: name, Image: img, Prog: prog, Instrs: prog.CountInstrs()}, nil
}

// BuildAll compiles every benchmark, one worker per core. The result is
// identical to building serially in Names order: each compile is
// independent, the ordered fan-in appends in that order, and a failure
// reports the first failing program in that order (errors ride in the
// produced value precisely so a later worker's failure cannot win).
func BuildAll(opts codegen.Options) ([]*Workload, error) {
	type built struct {
		w   *Workload
		err error
	}
	out := make([]*Workload, 0, len(Names))
	err := par.OrderedMap(context.Background(), par.Workers(0), len(Names),
		func(_ context.Context, i int) (built, error) {
			w, err := Build(Names[i], opts)
			return built{w, err}, nil
		},
		func(_ int, b built) error {
			if b.err != nil {
				return b.err
			}
			out = append(out, b.w)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Evaluation holds the full result matrix the tables and figures are
// derived from.
type Evaluation struct {
	Workloads []*Workload
	Miners    []string
	// Results[program][miner]
	Results map[string]map[string]*pa.Result
	// Hashes[program][miner] is the content address of the optimized
	// image (link.Image.Hash).
	Hashes map[string]map[string]string
	// Wall is the harness wall clock for the whole matrix; with Workers
	// > 1 it undercuts the sum of per-cell Durations (the paper-tables
	// timing output reports the ratio).
	Wall time.Duration
	// Workers is the number of cells Evaluate ran side by side.
	Workers int
	// Opts is the optimizer configuration the matrix ran under, kept so
	// the benchmark record can embed an options fingerprint (BenchJSON).
	Opts pa.Options
}

// Progress, when non-nil, receives one line per finished program/miner
// combination (the harness takes a while on big workloads).
var Progress func(format string, args ...any)

func progressf(format string, args ...any) {
	if Progress != nil {
		Progress(format, args...)
	}
}

// Evaluate optimizes every workload with every miner. When verify is set,
// each optimized binary is executed and its behaviour compared against
// the original (differential check). The program×miner cells run
// concurrently on workers goroutines (0 = one per core), but every cell
// is an independent deterministic computation and the ordered fan-in
// stores results and reports progress in the serial loop's order, so the
// Evaluation — and any table rendered from it — is byte-identical at
// every width. Cell errors ride in the produced value so the first
// failing cell in serial order is the one reported.
func Evaluate(ws []*Workload, miners []string, opts pa.Options, workers int, verify bool) (*Evaluation, error) {
	start := time.Now()
	workers = par.Workers(workers)
	ev := &Evaluation{Workloads: ws, Miners: miners, Workers: workers,
		Opts: opts, Results: map[string]map[string]*pa.Result{},
		Hashes: map[string]map[string]string{}}
	resolved := make([]pa.Miner, len(miners))
	for i, mn := range miners {
		m, err := core.MinerByName(mn)
		if err != nil {
			return nil, err
		}
		resolved[i] = m
	}
	for _, w := range ws {
		ev.Results[w.Name] = map[string]*pa.Result{}
		ev.Hashes[w.Name] = map[string]string{}
	}
	type cellResult struct {
		res  *pa.Result
		hash string
		err  error
	}
	cells := len(ws) * len(miners)
	err := par.OrderedMap(context.Background(), workers, cells,
		func(_ context.Context, i int) (cellResult, error) {
			w, mn := ws[i/len(miners)], miners[i%len(miners)]
			res, img, err := core.Optimize(w.Image, resolved[i%len(miners)], opts)
			if err != nil {
				return cellResult{err: fmt.Errorf("bench: %s/%s: %w", w.Name, mn, err)}, nil
			}
			if verify {
				if err := core.VerifyEquivalent(w.Image, img, nil); err != nil {
					return cellResult{err: fmt.Errorf("bench: %s/%s: %w", w.Name, mn, err)}, nil
				}
			}
			return cellResult{res: res, hash: img.Hash()}, nil
		},
		func(i int, c cellResult) error {
			if c.err != nil {
				return c.err
			}
			w, mn := ws[i/len(miners)], miners[i%len(miners)]
			ev.Results[w.Name][mn] = c.res
			ev.Hashes[w.Name][mn] = c.hash
			progressf("%s/%s: saved %d in %v", w.Name, mn, c.res.Saved(), c.res.Duration)
			return nil
		})
	if err != nil {
		return nil, err
	}
	ev.Wall = time.Since(start)
	return ev, nil
}

// Saved returns instructions saved for one cell of the matrix (0 when the
// miner was not run).
func (ev *Evaluation) Saved(program, miner string) int {
	if r, ok := ev.Results[program][miner]; ok {
		return r.Saved()
	}
	return 0
}

// TotalSaved sums savings across programs for one miner.
func (ev *Evaluation) TotalSaved(miner string) int {
	t := 0
	for _, w := range ev.Workloads {
		t += ev.Saved(w.Name, miner)
	}
	return t
}

// Mechanisms aggregates extraction-method counts per miner (Fig. 12).
func (ev *Evaluation) Mechanisms(miner string) (calls, crossJumps int) {
	for _, w := range ev.Workloads {
		if r, ok := ev.Results[w.Name][miner]; ok {
			calls += r.Calls()
			crossJumps += r.CrossJumps()
		}
	}
	return calls, crossJumps
}

// Timing returns optimization wall-clock per program for one miner,
// program order preserved.
func (ev *Evaluation) Timing(miner string) []time.Duration {
	out := make([]time.Duration, len(ev.Workloads))
	for i, w := range ev.Workloads {
		if r, ok := ev.Results[w.Name][miner]; ok {
			out[i] = r.Duration
		}
	}
	return out
}

// Graphs builds the per-block dependence graphs of a workload (the mining
// input, used by the Table 2/3 statistics).
func (w *Workload) Graphs() []*dfg.Graph {
	view := cfg.Build(w.Prog)
	summaries := pa.CallSummaries(view)
	gs := make([]*dfg.Graph, len(view.Blocks))
	for i, b := range view.Blocks {
		gs[i] = dfg.Build(b, summaries)
	}
	return gs
}

// Stats computes the paper's Table 2/3 degree statistics for a workload.
func (w *Workload) Stats() dfg.DegreeStats {
	return dfg.Stats(w.Graphs())
}

// SortedMiners returns the evaluation's miners in canonical order.
func (ev *Evaluation) SortedMiners() []string {
	out := append([]string(nil), ev.Miners...)
	sort.Strings(out)
	return out
}

// noSchedule returns the ablation codegen configuration (optimized but
// template order, no load hoisting).
func noSchedule() codegen.Options { return codegen.Options{Optimize: true} }
