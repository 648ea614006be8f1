// Package graphpa is a post-link-time code compactor built around
// graph-based procedural abstraction (Dreweke et al., CGO 2007).
//
// It bundles a complete substrate — an ARM-style ISA with assembler,
// static linker, emulator, and a size-oriented mini-C compiler — plus the
// paper's contribution: mining the data-flow graphs of basic blocks for
// frequent fragments (DgSpan, a directed gSpan; and Edgar, its
// embedding-based extension using maximum independent sets of
// non-overlapping embeddings) and extracting them into procedures or
// merged tails until the binary stops shrinking.
//
// Typical use:
//
//	bin, _ := graphpa.Compile(src, graphpa.CompileOptions{Schedule: true})
//	opt, report, _ := bin.Optimize(graphpa.OptimizeOptions{Miner: "edgar"})
//	fmt.Println(report.Saved(), "instructions saved")
//	_ = graphpa.Verify(bin, opt) // differential behaviour check
package graphpa

import (
	"time"

	"graphpa/internal/codegen"
	"graphpa/internal/core"
	"graphpa/internal/link"
	"graphpa/internal/loader"
	"graphpa/internal/pa"
)

// Binary is an executable image for the bundled ARM-style architecture.
type Binary struct {
	img *link.Image
}

// CompileOptions tunes the mini-C compiler.
type CompileOptions struct {
	// Optimize enables the -Os-style IR optimizer (inlining, constant
	// folding, dead-code elimination) — the configuration the benchmark
	// suite uses.
	Optimize bool
	// Schedule enables the list scheduler. Scheduled code has reordered
	// loads, the duplication pattern only graph-based PA recovers.
	Schedule bool
}

// Compile builds mini-C source into a statically linked Binary (program +
// runtime library).
func Compile(src string, opts CompileOptions) (*Binary, error) {
	img, err := core.Build(src, codegen.Options{Optimize: opts.Optimize, Schedule: opts.Schedule})
	if err != nil {
		return nil, err
	}
	return &Binary{img: img}, nil
}

// Assemble builds a Binary from assembly source (it must define _start;
// the runtime library is not linked in).
func Assemble(src string) (*Binary, error) {
	img, err := core.BuildAsm(src)
	if err != nil {
		return nil, err
	}
	return &Binary{img: img}, nil
}

// Run executes the binary to completion.
func (b *Binary) Run(stdin []byte) (exit int32, stdout string, err error) {
	return core.Run(b.img, stdin)
}

// Instructions returns the executable instruction count (the paper's size
// metric).
func (b *Binary) Instructions() int {
	p, err := loader.Load(b.img)
	if err != nil {
		return -1
	}
	return p.CountInstrs()
}

// Disassemble decompiles the binary into symbolic assembly (labels
// reconstructed, literal pools symbolic).
func (b *Binary) Disassemble() (string, error) {
	p, err := loader.Load(b.img)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// Words returns the raw image size in 32-bit words (text + data).
func (b *Binary) Words() int { return len(b.img.Words) }

// OptimizeOptions selects and tunes a procedural-abstraction miner.
type OptimizeOptions struct {
	// Miner: "sfx" (suffix-sequence baseline), "dgspan", "edgar"
	// (default), or "edgar-canon".
	Miner string
	// MinSupport is the frequency threshold (default 2).
	MinSupport int
	// MaxFragment caps mined fragment size in instructions (default 8,
	// at most 64).
	MaxFragment int
	// MaxRounds bounds mine/extract iterations (0 = run to fixpoint).
	MaxRounds int
	// GreedyMIS swaps the exact maximum-independent-set solver for the
	// greedy heuristic.
	GreedyMIS bool
}

// Extraction describes one applied rewrite.
type Extraction struct {
	Name        string // generated procedure or merge-label name
	Method      string // "call" or "crossjump"
	Size        int    // instructions per occurrence
	Occurrences int
	Benefit     int // net instructions saved
}

// Report summarises an optimization run.
type Report struct {
	Miner       string
	Before      int
	After       int
	Rounds      int
	Extractions []Extraction
	Duration    time.Duration
}

// Saved returns Before - After.
func (r *Report) Saved() int { return r.Before - r.After }

// Optimize runs post-link-time procedural abstraction and returns the
// optimized binary with a report. The receiver is unchanged.
func (b *Binary) Optimize(opts OptimizeOptions) (*Binary, *Report, error) {
	name := opts.Miner
	if name == "" {
		name = "edgar"
	}
	m, err := core.MinerByName(name)
	if err != nil {
		return nil, nil, err
	}
	res, img, err := core.Optimize(b.img, m, pa.Options{
		MinSupport: opts.MinSupport,
		MaxNodes:   opts.MaxFragment,
		MaxRounds:  opts.MaxRounds,
		GreedyMIS:  opts.GreedyMIS,
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Miner:    res.Miner,
		Before:   res.Before,
		After:    res.After,
		Rounds:   res.Rounds,
		Duration: res.Duration,
	}
	for _, e := range res.Extractions {
		rep.Extractions = append(rep.Extractions, Extraction{
			Name:        e.Name,
			Method:      e.Method.String(),
			Size:        e.Size,
			Occurrences: e.Occs,
			Benefit:     e.Benefit,
		})
	}
	return &Binary{img: img}, rep, nil
}

// Verify runs both binaries (no stdin) and reports an error if their
// observable behaviour differs.
func Verify(a, b *Binary) error {
	return core.VerifyEquivalent(a.img, b.img, nil)
}

// VerifyOn is Verify with stdin.
func VerifyOn(a, b *Binary, stdin []byte) error {
	return core.VerifyEquivalent(a.img, b.img, stdin)
}

// Miners lists the available miner names.
func Miners() []string { return []string{"sfx", "dgspan", "edgar", "edgar-canon"} }
