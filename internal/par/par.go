// Package par is the shared worker-pool layer for running independent
// jobs side by side: bounded fan-out, ordered fan-in, error
// short-circuiting, panic propagation and context cancellation. The
// benchmark harness's build and workload×miner matrix run on
// OrderedMap, so the concurrency rules (and their tests) live in one
// place. Each optimizer run itself is serial.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n <= 0 selects GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// panicError carries a worker panic across goroutines so it can be
// re-raised on the calling goroutine with the worker's stack attached.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("par: worker panic: %v", p.val) }

// group is the shared bookkeeping of one fan-out: first error wins and
// cancels the rest.
type group struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

func (g *group) setErr(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
		g.cancel()
	}
	g.mu.Unlock()
}

func (g *group) firstErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// rethrow re-raises a captured worker panic on the caller.
func rethrow(err error) error {
	if pe, ok := err.(*panicError); ok {
		panic(fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", pe.val, pe.stack))
	}
	return err
}

// item is one produced result awaiting ordered consumption.
type item[T any] struct {
	i int
	v T
}

// OrderedMap runs produce(ctx, i) for every i in [0, n) on at most
// `workers` goroutines (0 = GOMAXPROCS) and delivers each result to
// consume in index order, on the calling goroutine — bounded parallel
// fan-out with deterministic serial fan-in. At most 2×workers results
// are outstanding, so a slow consumer bounds memory instead of letting
// producers race arbitrarily far ahead. An error from either side
// cancels outstanding work and is returned (producers in flight finish
// their current job first); worker panics are re-raised on the caller.
func OrderedMap[T any](ctx context.Context, workers, n int, produce func(ctx context.Context, i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	window := 2 * workers
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := &group{cancel: cancel}

	sem := make(chan struct{}, window) // released as results are consumed
	results := make(chan item[T], window)
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					g.setErr(&panicError{val: r, stack: debug.Stack()})
				}
			}()
			for {
				select {
				case sem <- struct{}{}:
				case <-cctx.Done():
					return
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				v, err := produce(cctx, i)
				if err != nil {
					g.setErr(err)
					return
				}
				select {
				case results <- item[T]{i, v}:
				case <-cctx.Done():
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	pending := make(map[int]T, window)
	expect := 0
consumeLoop:
	for expect < n {
		if v, ok := pending[expect]; ok {
			delete(pending, expect)
			if err := consume(expect, v); err != nil {
				g.setErr(err)
				break
			}
			expect++
			<-sem
			continue
		}
		select {
		case it := <-results:
			pending[it.i] = it.v
		case <-done:
			// Producers stopped (error, cancellation or exhaustion);
			// drain what was already delivered, then give up.
			for {
				select {
				case it := <-results:
					pending[it.i] = it.v
				default:
					if _, ok := pending[expect]; ok {
						continue consumeLoop
					}
					break consumeLoop
				}
			}
		}
	}
	cancel()
	<-done
	if err := g.firstErr(); err != nil {
		return rethrow(err)
	}
	return ctx.Err()
}
