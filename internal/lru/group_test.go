package lru

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// A failed fill is not latched: the next Do for the key runs fn again.
func TestGroupFailureNotLatched(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	runs := 0
	if _, shared, err := g.Do(context.Background(), "k", func() (int, error) { runs++; return 0, boom }); err != boom || shared {
		t.Fatalf("first Do: err %v, shared %v", err, shared)
	}
	v, shared, err := g.Do(context.Background(), "k", func() (int, error) { runs++; return 7, nil })
	if err != nil || shared || v != 7 || runs != 2 {
		t.Fatalf("second Do: %d, %v, %v after %d runs; want 7 from a fresh run", v, shared, err, runs)
	}
}

type refuseKey struct{}

// Concurrent callers share one run; shared is true exactly for the waiters.
// A waiter whose Join fails, or whose ctx ends, fails alone: the leader and
// the other waiters still get the result.
func TestGroupWaiters(t *testing.T) {
	joinErr := errors.New("join refused")
	joined := make(chan struct{}, 8) // one send per joining waiter
	g := Group[int]{Join: func(ctx context.Context) error {
		if ctx.Value(refuseKey{}) != nil {
			return joinErr
		}
		joined <- struct{}{}
		return nil
	}}
	started, release := make(chan struct{}), make(chan struct{})
	runs := 0
	lead := func() (int, error) {
		runs++
		close(started)
		<-release
		return 42, nil
	}
	follow := func() (int, error) {
		t.Error("a waiter ran fn")
		return 0, nil
	}

	type result struct {
		v      int
		shared bool
		err    error
	}
	leader := make(chan result, 1)
	go func() {
		v, shared, err := g.Do(context.Background(), "k", lead)
		leader <- result{v, shared, err}
	}()
	<-started

	const waiters = 3
	var wg sync.WaitGroup
	got := make([]result, waiters)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", follow)
			got[i] = result{v, shared, err}
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-joined
	}

	// A waiter refused at the join seam fails at once.
	refused := context.WithValue(context.Background(), refuseKey{}, true)
	if _, shared, err := g.Do(refused, "k", follow); err != joinErr || !shared {
		t.Fatalf("refused waiter: shared %v, err %v", shared, err)
	}
	// A waiter whose ctx ends stops waiting with its own error.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", follow)
		cancelled <- err
	}()
	<-joined
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err %v", err)
	}

	close(release)
	wg.Wait()
	if r := <-leader; r.v != 42 || r.shared || r.err != nil {
		t.Fatalf("leader got %+v, want 42 unshared", r)
	}
	for i, r := range got {
		if r.v != 42 || !r.shared || r.err != nil {
			t.Fatalf("waiter %d got %+v, want 42 shared", i, r)
		}
	}
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	// The finished call is gone: the next Do leads a fresh run.
	if v, shared, _ := g.Do(context.Background(), "k", func() (int, error) { return 9, nil }); v != 9 || shared {
		t.Fatalf("Do after the leader returned: %d, shared %v; want a fresh run", v, shared)
	}
}
