// pad is the compaction-as-a-service binary: a daemon serving the
// internal/service HTTP API, and a client that submits one file to a
// running daemon and prints the savings report.
//
// Usage:
//
//	pad serve [-addr host:port] [-addr-file path] [-job-workers n]
//	          [-queue n] [-cache n] [-pprof]
//	pad submit [-addr host:port] [-miner edgar|dgspan|sfx|edgar-canon]
//	           [-asm] [-O] [-schedule] [-minsup n] [-maxfrag n]
//	           [-maxrounds n] [-maxpatterns n] [-greedy-mis]
//	           [-retries n] [-json] file.mc | -dir corpus/
//
// serve binds addr (use port 0 for an ephemeral port), optionally
// writes the bound address to -addr-file for scripts to discover, and
// shuts down gracefully on SIGINT/SIGTERM — in-flight jobs drain first.
// -job-workers jobs mine side by side (default: one per core), each
// with a serial lattice walk. -pprof exposes the net/http/pprof
// profiling endpoints under /debug/pprof/ on the same listener (the
// daemon equivalent of edgar's -cpuprofile/-memprofile); off by default
// since profiles expose internals.
// submit retries transient daemon failures (-retries, default 3) with
// exponential backoff and jitter before giving up with the final error.
// submit mirrors cmd/edgar's flags and prints the same report lines
// (minus the wall-clock suffix, which the service deliberately omits so
// cached responses are byte-identical to fresh ones). With -dir it packs
// every .mc and .s file under the directory into one POST /v1/batch
// submission, polls until the batch settles, and prints a per-program
// savings table (.s files are submitted as assembly).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux for serve -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"graphpa/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "submit":
		submit(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pad serve [flags] | pad submit [flags] file.mc")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pad:", err)
	os.Exit(1)
}

func serve(args []string) {
	fs := flag.NewFlagSet("pad serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address (port 0 = ephemeral)")
	addrFile := fs.String("addr-file", "", "write the bound address here once listening")
	jobWorkers := fs.Int("job-workers", 0, "jobs mined concurrently, each serially (0 = one per core)")
	queueDepth := fs.Int("queue", 0, "pending-job queue depth (0 = default 64)")
	cacheEntries := fs.Int("cache", 0, "result-cache entries (0 = default 128)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pad serve [flags]")
		os.Exit(2)
	}
	if *jobWorkers < 0 || *queueDepth < 0 || *cacheEntries < 0 {
		fmt.Fprintln(os.Stderr, "pad serve: flags must be non-negative")
		os.Exit(2)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	svc := service.New(service.Config{
		JobWorkers:   *jobWorkers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		Logger:       logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	logger.Info("listening", "addr", bound)

	handler := svc.Handler()
	if *pprofOn {
		// net/http/pprof registers on http.DefaultServeMux at import; route
		// its prefix there and everything else to the service, so profiling
		// shares the listener without touching the service's own mux.
		api := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
				http.DefaultServeMux.ServeHTTP(w, r)
				return
			}
			api.ServeHTTP(w, r)
		})
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpServer := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fatal(err)
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		logger.Error("drain", "err", err)
	}
}

func submit(args []string) {
	fs := flag.NewFlagSet("pad submit", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "daemon address")
	miner := fs.String("miner", "edgar", "sfx | dgspan | edgar | edgar-canon")
	asmIn := fs.Bool("asm", false, "input is assembly (must define _start; no runtime linked)")
	optimizeIR := fs.Bool("O", true, "compile with the IR optimizer (inlining, folding)")
	schedule := fs.Bool("schedule", true, "compile with the list scheduler")
	maxRounds := fs.Int("maxrounds", 0, "bound mine/extract rounds (0 = fixpoint)")
	minSup := fs.Int("minsup", 0, "minimum fragment frequency (default 2)")
	maxFrag := fs.Int("maxfrag", 0, "maximum fragment size in instructions (default 8)")
	maxPatterns := fs.Int("maxpatterns", 0, "bound mined patterns per round (default 100000)")
	greedyMIS := fs.Bool("greedy-mis", false, "use greedy instead of exact independent sets")
	rawJSON := fs.Bool("json", false, "print the raw JSON response instead of the report")
	dir := fs.String("dir", "", "submit every .mc/.s file under this directory as one batch")
	retries := fs.Int("retries", 3, "retry transient daemon failures (connect errors, 429, 5xx) this many times with exponential backoff")
	_ = fs.Parse(args)
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "pad submit: -retries must be non-negative")
		os.Exit(2)
	}
	opt := service.OptimizeOptions{
		Miner:       *miner,
		MinSupport:  *minSup,
		MaxFragment: *maxFrag,
		MaxRounds:   *maxRounds,
		MaxPatterns: *maxPatterns,
		GreedyMIS:   *greedyMIS,
	}
	co := &service.CompileOptions{Optimize: *optimizeIR, Schedule: *schedule}
	if *dir != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: pad submit [flags] -dir corpus/ (no file argument)")
			os.Exit(2)
		}
		submitBatch(*addr, *dir, co, opt, *rawJSON, *retries)
		return
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pad submit [flags] file.mc | -dir corpus/")
		os.Exit(2)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}

	req := service.CompactRequest{
		Source:   string(src),
		Asm:      *asmIn,
		Compile:  co,
		Optimize: opt,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		fatal(err)
	}
	code, respBody, err := postRetry("http://"+*addr+"/v1/compact", "application/json", body, *retries)
	if err != nil {
		fatal(err)
	}
	if code != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(respBody, &eb) == nil && eb.Error != "" {
			fatal(fmt.Errorf("HTTP %d: %s", code, eb.Error))
		}
		fatal(fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(respBody)))
	}
	if *rawJSON {
		os.Stdout.Write(respBody)
		return
	}
	var cr service.CompactResponse
	if err := json.Unmarshal(respBody, &cr); err != nil {
		fatal(err)
	}
	fmt.Print(cr.Summary)
}

// submitBatch packs the directory's programs into one POST /v1/batch,
// polls the batch until every program settles, and prints the
// per-program savings table.
func submitBatch(addr, dir string, co *service.CompileOptions, opt service.OptimizeOptions, rawJSON bool, retries int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	var req service.BatchRequest
	req.Compile, req.Optimize = co, opt
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		isAsm := strings.HasSuffix(name, ".s")
		if !isAsm && !strings.HasSuffix(name, ".mc") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			fatal(err)
		}
		req.Programs = append(req.Programs, service.BatchProgram{
			Name: name, Source: string(src), Asm: isAsm,
		})
	}
	if len(req.Programs) == 0 {
		fatal(fmt.Errorf("no .mc or .s files in %s", dir))
	}
	body, err := json.Marshal(&req)
	if err != nil {
		fatal(err)
	}
	code, ack, err := postRetry("http://"+addr+"/v1/batch", "application/json", body, retries)
	if err != nil {
		fatal(err)
	}
	if code != http.StatusAccepted {
		fatal(fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(ack)))
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &accepted); err != nil {
		fatal(err)
	}

	var status service.BatchStatusBody
	var raw []byte
	for {
		r, err := http.Get("http://" + addr + "/v1/batch/" + accepted.ID)
		if err != nil {
			fatal(err)
		}
		raw, err = io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("%s: %s", r.Status, strings.TrimSpace(string(raw))))
		}
		if err := json.Unmarshal(raw, &status); err != nil {
			fatal(err)
		}
		if status.State == "done" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if rawJSON {
		os.Stdout.Write(raw)
	} else {
		fmt.Printf("%-20s %8s %8s %8s %7s\n", "program", "before", "after", "saved", "cache")
		for _, p := range status.Programs {
			if p.State == "failed" {
				fmt.Printf("%-20s FAILED: %s\n", p.Name, p.Error)
				continue
			}
			fmt.Printf("%-20s %8d %8d %8d %7s\n", p.Name, p.Before, p.After, p.Saved, p.Cache)
		}
		fmt.Printf("%-20s %8s %8s %8d\n", "total", "", "", status.Totals.Saved)
	}
	if status.Totals.Failed > 0 {
		os.Exit(1)
	}
}
