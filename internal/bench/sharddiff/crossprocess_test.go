package sharddiff

// The cross-process A/B: rijndael — the suite's longest mine — and two
// small programs optimized in this process and by real `pad serve`
// daemons on loopback: one with a single job worker, given the programs
// one after another, and one with the default pool (one job per core),
// given all of them at once. The image hashes must match across all
// three. Wall clock is logged (run with -v) for reference only.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphpa/internal/bench"
	"graphpa/internal/core"
	"graphpa/internal/pa"
	"graphpa/internal/service"
)

// startPad boots one `pad serve` process on an ephemeral port with the
// given extra flags and returns its bound address.
func startPad(t *testing.T, padBin, dir, name string, flags ...string) string {
	t.Helper()
	addrFile := filepath.Join(dir, "addr-"+name)
	logFile, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	cmd := exec.Command(padBin, args...)
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		logFile.Close()
	})
	for j := 0; ; j++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 1 {
			return string(bytes.TrimSpace(data))
		}
		if j > 100 {
			t.Fatalf("pad %s never wrote its address", name)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// compact posts one benchmark to a pad daemon and returns the
// response's image hash.
func compact(addr, name string) (string, error) {
	src, err := bench.Source(name)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(&service.CompactRequest{
		Source:   src,
		Optimize: service.OptimizeOptions{Miner: "edgar", MaxPatterns: maxPatterns},
	})
	if err != nil {
		return "", err
	}
	resp, err := http.Post("http://"+addr+"/v1/compact", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: HTTP %d: %s", name, resp.StatusCode, data)
	}
	var cr service.CompactResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return "", err
	}
	return cr.ImageHash, nil
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
	corpus := []string{"rijndael", "crc", "search"}

	// A: in-process, serial walk.
	want := map[string]string{}
	start := time.Now()
	for _, name := range corpus {
		w, err := bench.Build(name, bench.DefaultCodegen())
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.MinerByName("edgar")
		if err != nil {
			t.Fatal(err)
		}
		_, img, err := core.Optimize(w.Image, m, pa.Options{MaxPatterns: maxPatterns})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = img.Hash()
	}
	inProcWall := time.Since(start)

	// B: a one-job daemon, the programs one after another.
	one := startPad(t, padBin, dir, "one", "-job-workers", "1")
	start = time.Now()
	for _, name := range corpus {
		got, err := compact(one, name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[name] {
			t.Fatalf("%s: one-job daemon image hash %s differs from in-process %s", name, got, want[name])
		}
	}
	oneWall := time.Since(start)

	// C: a default daemon, all programs at once.
	pool := startPad(t, padBin, dir, "pool")
	got := make([]string, len(corpus))
	errs := make([]error, len(corpus))
	start = time.Now()
	var wg sync.WaitGroup
	for i, name := range corpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = compact(pool, name)
		}()
	}
	wg.Wait()
	poolWall := time.Since(start)
	for i, name := range corpus {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[name] {
			t.Fatalf("%s: concurrent default daemon image hash %s differs from in-process %s", name, got[i], want[name])
		}
	}

	t.Logf("cross-process A/B, %v (maxpatterns=%d, %d cores):", corpus, maxPatterns, runtime.NumCPU())
	t.Logf("  in-process serial : wall=%v", inProcWall.Round(time.Millisecond))
	t.Logf("  one-job daemon    : wall=%v", oneWall.Round(time.Millisecond))
	t.Logf("  default daemon    : wall=%v (all at once)", poolWall.Round(time.Millisecond))
}
