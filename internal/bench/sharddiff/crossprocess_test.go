package sharddiff

// The cross-process A/B: rijndael — the benchmark whose truncating walk
// the shard protocol targets — optimized single-process and with its
// speculation distributed over real `pad serve` worker processes on
// loopback, via the same HTTP ShardPool `pad serve -shards` uses. The
// image hashes must match in every configuration, including after one
// worker process is SIGKILLed mid-run. Wall clock and total speculative
// visits are logged (run with -v) for DESIGN.md §13's honest overhead
// numbers; on a single-core host the sharded run is strictly overhead —
// the point of the A/B is measuring it, not winning it.

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"graphpa/internal/bench"
	"graphpa/internal/core"
	"graphpa/internal/pa"
	"graphpa/internal/service"
)

// startWorker boots one `pad serve` worker process on an ephemeral port
// and returns its bound address and a kill func.
func startWorker(t *testing.T, padBin, dir string, i int) (string, func()) {
	t.Helper()
	addrFile := filepath.Join(dir, "addr"+string(rune('0'+i)))
	logFile, err := os.Create(filepath.Join(dir, "worker"+string(rune('0'+i))+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(padBin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-shard-of", "sharddiff-test")
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		logFile.Close()
	}
	t.Cleanup(kill)
	for j := 0; ; j++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 1 {
			return string(data[:len(data)-1]), kill
		}
		if j > 100 {
			t.Fatalf("worker %d never wrote its address", i)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func specVisits(r *pa.Result) (local, remote int64) {
	for i := range r.RoundStats {
		local += int64(r.RoundStats[i].Visits)
		remote += int64(r.RoundStats[i].ShardSpecVisits)
	}
	return
}

func TestShardCrossProcessAB(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process A/B builds and boots pad daemons; skipped in short mode")
	}
	dir := t.TempDir()
	padBin := filepath.Join(dir, "pad")
	build := exec.Command("go", "build", "-o", padBin, "graphpa/cmd/pad")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pad: %v\n%s", err, out)
	}

	w, err := bench.Build("rijndael", bench.DefaultCodegen())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.MinerByName("edgar")
	if err != nil {
		t.Fatal(err)
	}

	// A: single-process walk.
	start := time.Now()
	refRes, refImg, err := core.Optimize(w.Image, m,
		pa.Options{MaxPatterns: maxPatterns, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plainWall := time.Since(start)
	plainVisits, _ := specVisits(refRes)

	addrs := make([]string, 3)
	kills := make([]func(), 3)
	for i := range addrs {
		addrs[i], kills[i] = startWorker(t, padBin, dir, i)
	}

	// B: same walk, speculation distributed across the 3 worker processes.
	pool := service.NewShardPool(addrs, nil)
	start = time.Now()
	res, img, err := core.Optimize(w.Image, m,
		pa.Options{MaxPatterns: maxPatterns, Workers: 1, Shards: pool})
	if err != nil {
		t.Fatal(err)
	}
	shardWall := time.Since(start)
	replayVisits, remoteVisits := specVisits(res)
	if img.Hash() != refImg.Hash() {
		t.Fatalf("3-worker cross-process image hash %s differs from single-process %s",
			img.Hash(), refImg.Hash())
	}
	seeds, subtrees, fallbacks := shardStats(res)
	if seeds == 0 || subtrees == 0 {
		t.Fatalf("cross-process run used no shards (seeds=%d subtrees=%d)", seeds, subtrees)
	}

	// C: one worker process SIGKILLed shortly after the walk starts.
	pool2 := service.NewShardPool(addrs, nil)
	killTimer := time.AfterFunc(200*time.Millisecond, kills[1])
	defer killTimer.Stop()
	start = time.Now()
	res2, img2, err := core.Optimize(w.Image, m,
		pa.Options{MaxPatterns: maxPatterns, Workers: 1, Shards: pool2})
	if err != nil {
		t.Fatal(err)
	}
	faultWall := time.Since(start)
	if img2.Hash() != refImg.Hash() {
		t.Fatalf("image hash changed after SIGKILLing a worker mid-run: %s vs %s",
			img2.Hash(), refImg.Hash())
	}
	_, _, fallbacks2 := shardStats(res2)

	t.Logf("rijndael cross-process A/B (maxpatterns=%d, W=1, %d cores):", maxPatterns, runtime.NumCPU())
	t.Logf("  plain     : wall=%v replay_visits=%d", plainWall.Round(time.Millisecond), plainVisits)
	t.Logf("  3 shards  : wall=%v replay_visits=%d remote_spec_visits=%d seeds=%d subtrees=%d fallbacks=%d",
		shardWall.Round(time.Millisecond), replayVisits, remoteVisits, seeds, subtrees, fallbacks)
	t.Logf("  1 killed  : wall=%v fallbacks=%d", faultWall.Round(time.Millisecond), fallbacks2)
}
