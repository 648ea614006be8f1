package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkers covers the option resolution.
func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", got)
	}
}

// TestOrderedMapSaturation verifies the pool never runs more than its
// worker bound of producers at once and still delivers every result.
func TestOrderedMapSaturation(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 64
			var cur, max int64
			consumed := 0
			err := OrderedMap(context.Background(), workers, n,
				func(_ context.Context, i int) (int, error) {
					c := atomic.AddInt64(&cur, 1)
					for {
						m := atomic.LoadInt64(&max)
						if c <= m || atomic.CompareAndSwapInt64(&max, m, c) {
							break
						}
					}
					time.Sleep(time.Millisecond)
					atomic.AddInt64(&cur, -1)
					return i, nil
				},
				func(i, v int) error {
					consumed++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if consumed != n {
				t.Fatalf("consumed %d of %d results", consumed, n)
			}
			if max > int64(workers) {
				t.Fatalf("saturation: %d concurrent producers with %d workers", max, workers)
			}
		})
	}
}

// TestOrderedMapCancellation verifies cancelling the parent context
// mid-fan-out stops the remaining jobs and surfaces context.Canceled.
func TestOrderedMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	release := make(chan struct{})
	var once sync.Once
	err := OrderedMap(ctx, 2, 1000,
		func(ctx context.Context, i int) (int, error) {
			atomic.AddInt64(&started, 1)
			once.Do(func() {
				cancel()
				close(release)
			})
			<-release
			return i, nil
		},
		func(i, v int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := atomic.LoadInt64(&started); s == 1000 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}

// TestOrderedMapOrder verifies the fan-in delivers results strictly in
// index order even when jobs complete out of order.
func TestOrderedMapOrder(t *testing.T) {
	const n = 50
	var order []int
	err := OrderedMap(context.Background(), 8, n,
		func(_ context.Context, i int) (int, error) {
			// Earlier indices sleep longer, forcing out-of-order completion.
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			return i * i, nil
		},
		func(i, v int) error {
			if v != i*i {
				t.Errorf("consume(%d) got %d, want %d", i, v, i*i)
			}
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("consumed %d of %d results", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("out-of-order fan-in: position %d got index %d", i, got)
		}
	}
}

// TestOrderedMapConsumeError verifies a consumer error cancels the
// remaining producers.
func TestOrderedMapConsumeError(t *testing.T) {
	boom := errors.New("boom")
	var produced int64
	err := OrderedMap(context.Background(), 2, 1000,
		func(_ context.Context, i int) (int, error) {
			atomic.AddInt64(&produced, 1)
			return i, nil
		},
		func(i, v int) error {
			if i == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if p := atomic.LoadInt64(&produced); p == 1000 {
		t.Fatal("consumer error did not stop producers")
	}
}

// TestOrderedMapProduceError verifies a producer error is returned,
// short-circuits the jobs not yet started, and the consumer is not fed
// beyond it.
func TestOrderedMapProduceError(t *testing.T) {
	boom := errors.New("boom")
	var consumed []int
	var started int64
	err := OrderedMap(context.Background(), 4, 100,
		func(_ context.Context, i int) (int, error) {
			atomic.AddInt64(&started, 1)
			if i == 10 {
				return 0, boom
			}
			return i, nil
		},
		func(i, v int) error {
			consumed = append(consumed, i)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if s := atomic.LoadInt64(&started); s == 100 {
		t.Fatalf("error did not short-circuit: all %d jobs started", s)
	}
	for _, i := range consumed {
		if i >= 10 {
			// Results after the failed index must never reach the
			// consumer: delivery is in order and 10 was never produced.
			t.Fatalf("consumed index %d past the failed producer", i)
		}
	}
}

// TestOrderedMapPanic verifies a producer panic is re-raised on the
// calling goroutine with the worker's stack attached.
func TestOrderedMapPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("producer panic was swallowed")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "worker goroutine stack") {
			t.Fatalf("unexpected panic payload: %q", msg)
		}
	}()
	_ = OrderedMap(context.Background(), 4, 16,
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("kaboom")
			}
			return i, nil
		},
		func(i, v int) error { return nil })
}

// TestOrderedMapBoundedWindow verifies producers cannot race arbitrarily
// far ahead of a slow consumer.
func TestOrderedMapBoundedWindow(t *testing.T) {
	const workers = 2
	var maxAhead int64
	var consumedIdx int64 = -1
	err := OrderedMap(context.Background(), workers, 200,
		func(_ context.Context, i int) (int, error) {
			ahead := int64(i) - atomic.LoadInt64(&consumedIdx)
			for {
				m := atomic.LoadInt64(&maxAhead)
				if ahead <= m || atomic.CompareAndSwapInt64(&maxAhead, m, ahead) {
					break
				}
			}
			return i, nil
		},
		func(i, v int) error {
			time.Sleep(200 * time.Microsecond) // slow consumer
			atomic.StoreInt64(&consumedIdx, int64(i))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The window is 2*workers; allow slack for the claim/consume gap.
	if maxAhead > int64(4*workers+2) {
		t.Fatalf("producers ran %d ahead of the consumer (window %d)", maxAhead, 2*workers)
	}
}

// TestOrderedMapEmpty covers the n = 0 edge.
func TestOrderedMapEmpty(t *testing.T) {
	if err := OrderedMap(context.Background(), 4, 0,
		func(_ context.Context, i int) (int, error) { return 0, nil },
		func(i, v int) error { t.Fatal("consume called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
