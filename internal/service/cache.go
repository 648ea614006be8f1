package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// result is one completed compaction: the canonical JSON response body
// (no wall-clock fields, so cached and fresh responses are
// byte-identical), the human-readable report, and the accounting fields
// the stats surface aggregates.
type result struct {
	body      []byte
	report    string
	miner     string
	before    int
	after     int
	saved     int
	imageHash string
}

// flight is one in-progress mine other submissions of the same key wait
// on instead of mining again.
type flight struct {
	done chan struct{}
	val  *result
	err  error
}

// resultCache is the content-addressed LRU result cache with
// singleflight-style in-flight deduplication. Keys are hex SHA-256
// content addresses of (input bytes, compile options, optimize options);
// see CompactRequest.Key.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight

	hits, misses, dedups, evictions int64
}

type cacheEntry struct {
	key string
	val *result
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:     max,
		order:   list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// get is the fast path: a completed entry or nothing. It never waits.
func (c *resultCache) get(key string) (*result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	c.hits++
	return e.Value.(*cacheEntry).val, true
}

// peek reads an entry without touching recency or the hit/miss
// counters — for report lookups, which are not cache traffic.
func (c *resultCache) peek(key string) *result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e.Value.(*cacheEntry).val
	}
	return nil
}

// cacheStatus classifies how a do call was served, for the X-Cache
// response header and the stats counters.
type cacheStatus string

const (
	statusHit   cacheStatus = "hit"   // served from a completed entry
	statusMiss  cacheStatus = "miss"  // this call ran the mine
	statusDedup cacheStatus = "dedup" // joined another submission's mine
)

// do returns the cached result for key, joins an in-flight computation
// of it, or — as the single owner — runs compute and publishes the
// result. Identical concurrent submissions therefore mine exactly once.
// A waiter whose context is cancelled stops waiting with ctx's error; if
// the owner itself is cancelled, surviving waiters retry (one becomes
// the new owner) so one disconnecting client cannot fail the others.
func (c *resultCache) do(ctx context.Context, key string, compute func() (*result, error)) (*result, cacheStatus, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.order.MoveToFront(e)
			c.hits++
			v := e.Value.(*cacheEntry).val
			c.mu.Unlock()
			return v, statusHit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.dedups++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, statusDedup, ctx.Err()
			}
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue // owner disconnected; retry, maybe as owner
				}
				return nil, statusDedup, f.err
			}
			return f.val, statusDedup, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()

		f.val, f.err = compute()

		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, statusMiss, f.err
	}
}

func (c *resultCache) insertLocked(key string, v *result) {
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		e.Value.(*cacheEntry).val = v
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: v})
	for c.max > 0 && c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// cacheCounters is a stats snapshot.
type cacheCounters struct {
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Dedups    int64   `json:"dedups"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
}

func (c *resultCache) counters() cacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	cc := cacheCounters{
		Entries:   c.order.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Dedups:    c.dedups,
		Evictions: c.evictions,
	}
	if lookups := c.hits + c.misses; lookups > 0 {
		cc.HitRatio = float64(c.hits) / float64(lookups)
	}
	return cc
}
