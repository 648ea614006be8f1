package bench

import (
	"strings"
	"testing"

	"graphpa/internal/pa"
)

// smallEval runs the full evaluation machinery on a two-program subset —
// the integration test of the harness (the full suite runs in the root
// benchmarks and cmd/paper-tables).
func smallEval(t *testing.T) ([]*Workload, *Evaluation) {
	t.Helper()
	var ws []*Workload
	for _, n := range []string{"crc", "sha"} {
		w, err := Build(n, DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	ev, err := Evaluate(ws, []string{"sfx", "dgspan", "edgar"}, pa.Options{}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	return ws, ev
}

func TestEvaluateAndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation subset takes tens of seconds")
	}
	ws, ev := smallEval(t)

	// Paper shape on the subset: graph-based Edgar must not lose to the
	// graph-based DgSpan, and every miner must save something on these
	// duplication-heavy programs.
	for _, w := range ws {
		sfx, dg, ed := ev.Saved(w.Name, "sfx"), ev.Saved(w.Name, "dgspan"), ev.Saved(w.Name, "edgar")
		t.Logf("%s: sfx=%d dgspan=%d edgar=%d", w.Name, sfx, dg, ed)
		if ed < dg {
			t.Errorf("%s: edgar (%d) < dgspan (%d)", w.Name, ed, dg)
		}
		if ed <= 0 || sfx <= 0 {
			t.Errorf("%s: nothing saved (sfx=%d edgar=%d)", w.Name, sfx, ed)
		}
	}
	if ev.TotalSaved("edgar") < ev.TotalSaved("sfx") {
		t.Errorf("edgar total (%d) below sfx total (%d)", ev.TotalSaved("edgar"), ev.TotalSaved("sfx"))
	}

	t1 := Table1(ev)
	for _, want := range []string{"Table 1", "crc", "sha", "total", "Edgar"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	f11 := Figure11(ev)
	if !strings.Contains(f11, "%") || !strings.Contains(f11, "DgSpan") {
		t.Errorf("Figure11 malformed:\n%s", f11)
	}
	t2 := Table2(ws)
	if !strings.Contains(t2, "degree > 1") {
		t.Errorf("Table2 malformed:\n%s", t2)
	}
	t3 := Table3(ws)
	if !strings.Contains(t3, ">=4") || !strings.Contains(t3, "Out") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}
	f12 := Figure12(ev)
	if !strings.Contains(f12, "cross jumps") {
		t.Errorf("Figure12 malformed:\n%s", f12)
	}
	tm := Timings(ev)
	if !strings.Contains(tm, "total") {
		t.Errorf("Timings malformed:\n%s", tm)
	}
	t.Logf("\n%s\n%s\n%s", t1, f11, f12)
}

// TestTable2ShapeHolds checks the paper's structural claim: more than a
// third of instructions sit on high fan-in/fan-out nodes (the reordering
// potential SFX cannot see).
func TestTable2ShapeHolds(t *testing.T) {
	w, err := Build("rijndael", DefaultCodegen())
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	frac := float64(s.HighDegree) / float64(s.HighDegree+s.LowDegree)
	t.Logf("rijndael: high=%d low=%d (%.0f%%)", s.HighDegree, s.LowDegree, 100*frac)
	if frac < 0.2 {
		t.Errorf("high-degree fraction %.2f implausibly low", frac)
	}
}
