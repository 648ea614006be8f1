package graphpa

// One benchmark per table and figure of the paper's evaluation (§4).
// Each records, besides wall time, the headline metric of its artifact
// via b.ReportMetric, so `go test -bench . -benchmem` regenerates the
// paper's numbers. cmd/paper-tables prints the same artifacts as text.

import (
	"sync"
	"testing"

	"graphpa/internal/bench"
	"graphpa/internal/codegen"
	"graphpa/internal/core"
	"graphpa/internal/pa"
)

// suite caches compiled workloads (compilation is not what the paper
// measures).
var suite = struct {
	once sync.Once
	ws   []*bench.Workload
	err  error
}{}

func workloads(b *testing.B) []*bench.Workload {
	suite.once.Do(func() {
		suite.ws, suite.err = bench.BuildAll(bench.DefaultCodegen())
	})
	if suite.err != nil {
		b.Fatal(suite.err)
	}
	return suite.ws
}

// evalOnce caches one full evaluation (all miners, verified) for the
// derived artifacts (Figure 11/12 need every miner's result).
var evalOnce = struct {
	once sync.Once
	ev   *bench.Evaluation
	err  error
}{}

func evaluation(b *testing.B) *bench.Evaluation {
	ws := workloads(b)
	evalOnce.once.Do(func() {
		evalOnce.ev, evalOnce.err = bench.Evaluate(ws, []string{"sfx", "dgspan", "edgar"}, pa.Options{MaxPatterns: 30000}, 0, false)
	})
	if evalOnce.err != nil {
		b.Fatal(evalOnce.err)
	}
	return evalOnce.ev
}

// benchMiner runs one miner over the whole suite per iteration — the
// paper's per-miner optimization runtime (§4.2) — and reports the Table 1
// total saved instructions.
func benchMiner(b *testing.B, miner string) {
	ws := workloads(b)
	m, err := core.MinerByName(miner)
	if err != nil {
		b.Fatal(err)
	}
	saved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saved = 0
		for _, w := range ws {
			// A bounded per-round mining budget keeps one full-suite
			// iteration to minutes on one core; see Options.MaxPatterns.
			res, _, err := core.Optimize(w.Image, m, pa.Options{MaxPatterns: 30000})
			if err != nil {
				b.Fatalf("%s: %v", w.Name, err)
			}
			saved += res.Saved()
		}
	}
	b.ReportMetric(float64(saved), "saved-instrs")
}

// BenchmarkTable1SFX..Edgar regenerate the three columns of Table 1
// (saved instructions per miner over the eight benchmark programs).
func BenchmarkTable1SFX(b *testing.B)    { benchMiner(b, "sfx") }
func BenchmarkTable1DgSpan(b *testing.B) { benchMiner(b, "dgspan") }
func BenchmarkTable1Edgar(b *testing.B)  { benchMiner(b, "edgar") }

// BenchmarkFigure11 regenerates the relative-increase figure from a full
// evaluation; the metric is Edgar's percentage gain over SFX in total.
func BenchmarkFigure11(b *testing.B) {
	ev := evaluation(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = bench.Figure11(ev)
	}
	_ = out
	sfx, edgar := ev.TotalSaved("sfx"), ev.TotalSaved("edgar")
	if sfx > 0 {
		b.ReportMetric(100*float64(edgar-sfx)/float64(sfx), "edgar-vs-sfx-%")
	}
}

// BenchmarkTable2 regenerates the high-degree instruction counts.
func BenchmarkTable2(b *testing.B) {
	ws := workloads(b)
	high, low := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		high, low = 0, 0
		for _, w := range ws {
			s := w.Stats()
			high += s.HighDegree
			low += s.LowDegree
		}
	}
	b.ReportMetric(float64(high), "degree-gt1")
	b.ReportMetric(float64(low), "degree-le1")
}

// BenchmarkTable3 regenerates the degree histograms.
func BenchmarkTable3(b *testing.B) {
	ws := workloads(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = bench.Table3(ws)
	}
	_ = out
}

// BenchmarkFigure12 regenerates the extraction-mechanism split; metrics
// are Edgar's call and cross-jump counts.
func BenchmarkFigure12(b *testing.B) {
	ev := evaluation(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = bench.Figure12(ev)
	}
	_ = out
	calls, xjumps := ev.Mechanisms("edgar")
	b.ReportMetric(float64(calls), "edgar-calls")
	b.ReportMetric(float64(xjumps), "edgar-crossjumps")
}

// BenchmarkRunningExample exercises the paper's Figs. 1-5 micro-pipeline:
// assemble the running-example block's program, optimize with Edgar.
func BenchmarkRunningExample(b *testing.B) {
	src := `
_start:
	bl work
	mov r0, #0
	swi 0
work:
	push {r4, lr}
	ldr r1, =arr
	mov r2, #100
	ldr r3, [r1]!
	sub r2, r2, r3
	add r4, r2, #4
	ldr r3, [r1]!
	sub r2, r2, r3
	ldr r3, [r1]!
	add r4, r2, #4
	mov r0, r4
	pop {r4, pc}
	.pool
.data
arr:
	.word 1
	.word 2
	.word 3
	.word 4
`
	bin, err := Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bin.Optimize(OptimizeOptions{Miner: "edgar"}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// ablate runs Edgar over one program with modified options/codegen and
// reports savings.
func ablate(b *testing.B, program string, cg codegen.Options, opts pa.Options) {
	w, err := bench.Build(program, cg)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := core.MinerByName("edgar")
	saved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := core.Optimize(w.Image, m, opts)
		if err != nil {
			b.Fatal(err)
		}
		saved = res.Saved()
	}
	b.ReportMetric(float64(saved), "saved-instrs")
}

// Exact vs greedy maximum independent set (§3.4 / Kumlander).
func BenchmarkAblationMISExact(b *testing.B) {
	ablate(b, "crc", bench.DefaultCodegen(), pa.Options{})
}
func BenchmarkAblationMISGreedy(b *testing.B) {
	ablate(b, "crc", bench.DefaultCodegen(), pa.Options{GreedyMIS: true})
}

// Scheduler on/off: how much reordering-created duplication graph PA
// recovers (§4.2 rijndael discussion).
func BenchmarkAblationScheduler(b *testing.B) {
	ablate(b, "crc", bench.DefaultCodegen(), pa.Options{})
}
func BenchmarkAblationNoScheduler(b *testing.B) {
	ablate(b, "crc", codegen.Options{}, pa.Options{})
}

// Batched vs the paper's strict one-extraction-per-round loop.
func BenchmarkAblationBatched(b *testing.B) {
	ablate(b, "sha", bench.DefaultCodegen(), pa.Options{})
}
func BenchmarkAblationSingleExtract(b *testing.B) {
	ablate(b, "sha", bench.DefaultCodegen(), pa.Options{SingleExtract: true})
}

// Support and fragment-size thresholds.
func BenchmarkAblationSupport3(b *testing.B) {
	ablate(b, "crc", bench.DefaultCodegen(), pa.Options{MinSupport: 3})
}
func BenchmarkAblationMaxFragment4(b *testing.B) {
	ablate(b, "crc", bench.DefaultCodegen(), pa.Options{MaxNodes: 4})
}
