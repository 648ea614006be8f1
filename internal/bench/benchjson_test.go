package bench

import (
	"testing"

	"graphpa/internal/core"
	"graphpa/internal/pa"
)

// TestBaselineRecordLoads pins that benchmark records written before
// fields were dropped keep loading and stay comparable: the committed
// baseline still carries the removed multiresolution pass's "multires"
// fingerprint flag and per-run "coarse_visits", and its fingerprint must
// match the one a default evaluation records today.
func TestBaselineRecordLoads(t *testing.T) {
	base, err := ReadBenchJSON("../../BENCH_edgar.baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Programs) == 0 || base.TotalVisits == 0 {
		t.Fatalf("baseline loaded %d runs and %d total visits; want both nonzero", len(base.Programs), base.TotalVisits)
	}
	if base.Fingerprint == nil {
		t.Fatal("baseline has no fingerprint")
	}
	doc := BenchJSON(&Evaluation{Workers: 1, Opts: pa.Options{}}, []string{"edgar"})
	if !FingerprintsMatch(doc.Fingerprint, base.Fingerprint) {
		t.Errorf("default fingerprint %+v does not match baseline %+v", *doc.Fingerprint, *base.Fingerprint)
	}
	if doc.Fingerprint.Lexicographic {
		t.Errorf("default fingerprint %+v records the lexicographic walk", *doc.Fingerprint)
	}
	lex := *doc.Fingerprint
	lex.Lexicographic = true
	if FingerprintsMatch(&lex, base.Fingerprint) {
		t.Errorf("lexicographic fingerprint %+v matches the benefit-directed baseline", lex)
	}
}

// TestBenchRowTruncatedRounds: a round whose walk used up the pattern
// budget counts as truncated, one below it does not. The row counts the
// rounds' Truncated flags, which the miner sets when visits reach the
// budget, and sums their key cuts.
func TestBenchRowTruncatedRounds(t *testing.T) {
	const budget = 50
	ev := &Evaluation{
		Workloads: []*Workload{{Name: "p"}},
		Results: map[string]map[string]*pa.Result{"p": {"edgar": {RoundStats: []pa.RoundStat{
			{Visits: budget, Truncated: true, KeyCuts: 3}, {Visits: budget - 1, KeyCuts: 4}, {Visits: budget, Truncated: true},
		}}}},
		Opts: pa.Options{MaxPatterns: budget},
	}
	row := BenchJSON(ev, []string{"edgar"}).Programs[0]
	if row.TruncatedRounds != 2 || row.Visits != 3*budget-1 || row.KeyCuts != 7 {
		t.Errorf("row %+v: want 2 truncated rounds, %d visits and 7 key cuts", row, 3*budget-1)
	}
}

// TestBenchRowImageHash: each row records the content address of the
// image its run produced, the value ci.sh holds to the committed record.
func TestBenchRowImageHash(t *testing.T) {
	w, err := Build("crc", DefaultCodegen())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate([]*Workload{w}, []string{"sfx", "edgar"}, pa.Options{}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := BenchJSON(ev, []string{"sfx", "edgar"}).Programs
	for _, row := range rows {
		m, err := core.MinerByName(row.Miner)
		if err != nil {
			t.Fatal(err)
		}
		_, img, err := core.Optimize(w.Image, m, pa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := img.Hash(); row.ImageHash != want {
			t.Errorf("%s/%s: image_hash %q, want %q", row.Name, row.Miner, row.ImageHash, want)
		}
	}
	if rows[0].ImageHash == rows[1].ImageHash {
		t.Errorf("sfx and edgar record the same image hash %q on crc", rows[0].ImageHash)
	}
}
