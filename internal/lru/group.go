package lru

import (
	"context"
	"sync"
)

// Group deduplicates concurrent work by key (a singleflight): the first
// caller for a key becomes the leader and runs fn; callers that arrive
// while the leader is in flight wait for its result instead of running fn
// again. A waiter stops waiting when its own context ends; the leader's fn
// is governed by whatever context it closes over. Results are never
// latched: once the leader returns, the next caller for the key runs fn
// afresh, so a failure is retried rather than remembered. The zero Group is
// ready to use.
type Group[V any] struct {
	// Join, when set, runs for each waiter before it starts waiting. An
	// error fails that waiter alone; the leader and every other waiter are
	// untouched.
	Join func(ctx context.Context) error

	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do runs fn once per in-flight key and returns its result, with shared
// true when this caller waited on another caller's fn.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		if g.Join != nil {
			if err := g.Join(ctx); err != nil {
				return v, true, err
			}
		}
		select {
		case <-c.done:
			return c.v, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.v, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.v, false, c.err
}
