package bench

import (
	"encoding/json"
	"os"
	"sort"
)

// This file emits the machine-readable benchmark record (BENCH_*.json at
// the repo root). Committed baselines from earlier revisions must keep
// loading, so fields are never renamed or repurposed; a dropped field
// is simply ignored when an old record is read.

// BenchRow is one (program, miner) optimization run.
type BenchRow struct {
	Name        string  `json:"name"`
	Miner       string  `json:"miner"`
	Before      int     `json:"before"`
	After       int     `json:"after"`
	Saved       int     `json:"saved"`
	Rounds      int     `json:"rounds"`
	Extractions int     `json:"extractions"`
	WallMS      float64 `json:"wall_ms"`
	// Visits counts lattice patterns the miner visited across all rounds
	// — the wall-clock-independent cost metric the search-order
	// regression gate compares (wall clock is too noisy for CI). Zero in
	// records predating the field and for the SFX miner.
	Visits int `json:"visits,omitempty"`
	// TruncatedRounds counts the rounds whose walk reached the pattern
	// budget (MaxPatterns) and stopped there (RoundStat.Truncated). Zero
	// in records predating the field.
	TruncatedRounds int `json:"truncated_rounds"`
	// KeyCuts counts, across all rounds, the candidate builds the walk
	// stopped because their rewrite key could not reach the driver's
	// batch (RoundStat.KeyCuts). Deterministic like Visits. Zero in
	// records predating the field and for the SFX miner.
	KeyCuts int `json:"key_cuts"`
}

// BenchFingerprint pins the optimizer configuration a benchmark record
// was taken under. Visit counts are only comparable between runs with
// identical search configuration — comparing a benefit-directed record
// against a lexicographic one, or records taken at different pattern
// budgets, silently diffs incomparable numbers — so the baseline gate
// refuses mismatched fingerprints (FingerprintsMatch). Workers records
// the harness's cell width for provenance; it never changes the counts.
// Lexicographic marks records of the lexicographic reference walk, which
// only tests can select now; new records write false, and old records
// keep loading and comparing.
type BenchFingerprint struct {
	Workers       int  `json:"workers"`
	MaxPatterns   int  `json:"maxpatterns"`
	Lexicographic bool `json:"lexicographic"`
}

// FingerprintsMatch reports whether two records' search configurations
// are visit-comparable. Records predating the fingerprint field (nil)
// match anything — old baselines must keep working — and Workers is
// ignored (width never changes the counts).
func FingerprintsMatch(a, b *BenchFingerprint) bool {
	if a == nil || b == nil {
		return true
	}
	return a.MaxPatterns == b.MaxPatterns &&
		a.Lexicographic == b.Lexicographic
}

// BenchDoc is a full benchmark record.
type BenchDoc struct {
	Workers  int        `json:"workers"`
	Miners   []string   `json:"miners"`
	Programs []BenchRow `json:"programs"`
	// TotalWallMS sums the per-run wall clocks (the serial-equivalent
	// cost), so records taken at different harness widths stay
	// comparable.
	TotalWallMS float64 `json:"total_wall_ms"`
	// TotalVisits sums the per-run lattice visit counts.
	TotalVisits int `json:"total_visits,omitempty"`
	// Fingerprint pins the search configuration (nil in records predating
	// the field).
	Fingerprint *BenchFingerprint `json:"fingerprint,omitempty"`
}

// BenchJSON collapses an Evaluation into the benchmark record, rows
// ordered by miner then program (the evaluation's workload order).
func BenchJSON(ev *Evaluation, miners []string) *BenchDoc {
	d := &BenchDoc{
		Workers: ev.Workers,
		Miners:  append([]string(nil), miners...),
		Fingerprint: &BenchFingerprint{
			Workers:     ev.Workers,
			MaxPatterns: ev.Opts.MaxPatternsOrDefault(),
		},
	}
	for _, mn := range miners {
		for _, w := range ev.Workloads {
			r, ok := ev.Results[w.Name][mn]
			if !ok {
				continue
			}
			visits, truncated, keyCuts := 0, 0, 0
			for _, rs := range r.RoundStats {
				visits += rs.Visits
				keyCuts += rs.KeyCuts
				if rs.Truncated {
					truncated++
				}
			}
			d.Programs = append(d.Programs, BenchRow{
				Name:            w.Name,
				Miner:           mn,
				Before:          r.Before,
				After:           r.After,
				Saved:           r.Saved(),
				Rounds:          r.Rounds,
				Extractions:     len(r.Extractions),
				WallMS:          float64(r.Duration.Microseconds()) / 1000,
				Visits:          visits,
				TruncatedRounds: truncated,
				KeyCuts:         keyCuts,
			})
			d.TotalWallMS += float64(r.Duration.Microseconds()) / 1000
			d.TotalVisits += visits
		}
	}
	return d
}

// WriteFile writes the record as indented JSON.
func (d *BenchDoc) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchJSON loads a committed benchmark record.
func ReadBenchJSON(path string) (*BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d BenchDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// CompareBench summarises d against a baseline: per-program wall-clock
// ratios and the total ratio, for runs present in both (matched by
// name+miner). Ratio < 1 means d is faster.
func CompareBench(d, base *BenchDoc) (perRun map[string]float64, total float64) {
	baseBy := map[string]BenchRow{}
	for _, r := range base.Programs {
		baseBy[r.Name+"/"+r.Miner] = r
	}
	perRun = map[string]float64{}
	var sum, baseSum float64
	for _, r := range d.Programs {
		b, ok := baseBy[r.Name+"/"+r.Miner]
		if !ok || b.WallMS <= 0 {
			continue
		}
		perRun[r.Name+"/"+r.Miner] = r.WallMS / b.WallMS
		sum += r.WallMS
		baseSum += b.WallMS
	}
	if baseSum > 0 {
		total = sum / baseSum
	}
	return perRun, total
}

// CompareVisits summarises d's lattice visit counts against a baseline,
// for runs present in both with nonzero baseline visits (matched by
// name+miner). Unlike wall clock, visits are deterministic — identical
// across harness widths, cross-round reuse and machines — so the ratios can
// gate CI at a tight tolerance. Ratio < 1 means d visits fewer nodes.
// ok reports whether the baseline carried visit counts at all (records
// predating the field compare as absent, not as regressions).
func CompareVisits(d, base *BenchDoc) (perRun map[string]float64, total float64, ok bool) {
	baseBy := map[string]BenchRow{}
	for _, r := range base.Programs {
		baseBy[r.Name+"/"+r.Miner] = r
	}
	perRun = map[string]float64{}
	var sum, baseSum float64
	for _, r := range d.Programs {
		b, found := baseBy[r.Name+"/"+r.Miner]
		if !found || b.Visits <= 0 {
			continue
		}
		perRun[r.Name+"/"+r.Miner] = float64(r.Visits) / float64(b.Visits)
		sum += float64(r.Visits)
		baseSum += float64(b.Visits)
	}
	if baseSum > 0 {
		total = sum / baseSum
		ok = true
	}
	return perRun, total, ok
}

// BenchKeys returns perRun's keys sorted, for stable rendering.
func BenchKeys(perRun map[string]float64) []string {
	keys := make([]string, 0, len(perRun))
	for k := range perRun {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
