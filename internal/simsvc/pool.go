package simsvc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// ErrClosed is returned for work submitted after the service shut down.
var ErrClosed = errors.New("simsvc: service closed")

// ErrOverloaded is returned when admission control sheds a job because the
// wait queue is full; the HTTP layer maps it to 429 + Retry-After.
var ErrOverloaded = errors.New("simsvc: worker queue full")

// OverloadedError is the concrete shed error: it wraps ErrOverloaded (so
// errors.Is keeps matching) and carries a load-aware Retry-After hint
// derived from the queue depth and observed simulation latency at shed
// time, instead of a hardcoded constant. Gateways and clients that honor
// the hint back off long enough for the queue to actually drain.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("simsvc: worker queue full, retry in %v", e.RetryAfter.Round(time.Second))
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// ErrPanic is the sentinel wrapped by every contained job panic, so callers
// can errors.Is-match the class without the concrete *PanicError.
var ErrPanic = errors.New("simsvc: job panicked")

// PanicError is a job panic caught by the worker pool: the worker survives
// and the submitter gets the panic value plus the goroutine stack instead
// of the whole process dying.
type PanicError struct {
	Val   interface{}
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("simsvc: job panicked: %v", e.Val) }

// Unwrap makes errors.Is(err, ErrPanic) hold.
func (e *PanicError) Unwrap() error { return ErrPanic }

// pool is a bounded worker pool: a fixed set of goroutines draining an
// unbuffered job queue, so at most `workers` simulations run at once no
// matter how many requests are in flight. Submissions waiting for a free
// worker count toward a bounded wait queue; externally-admitted work beyond
// that bound is shed with ErrOverloaded instead of queuing without limit.
type pool struct {
	jobs      chan func()
	quit      chan struct{}
	wg        sync.WaitGroup
	once      sync.Once
	workers   int
	maxQueued int64 // admission bound on waiting submissions; <=0 = unbounded
	m         *Metrics
	faults    *faultinject.Injector
}

func newPool(workers, maxQueued int, m *Metrics, faults *faultinject.Injector) *pool {
	p := &pool{
		jobs:      make(chan func()),
		quit:      make(chan struct{}),
		workers:   workers,
		maxQueued: int64(maxQueued),
		m:         m,
		faults:    faults,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case fn := <-p.jobs:
					fn()
				case <-p.quit:
					return
				}
			}
		}()
	}
	return p
}

// do hands fn to a worker and waits for it to finish, under admission
// control: if maxQueued submissions are already waiting, the job is shed
// with ErrOverloaded without blocking. It gives up (without running fn)
// when ctx is cancelled or the pool closes before a worker becomes free. A
// panic in fn is contained — the worker keeps serving and do returns a
// *PanicError.
func (p *pool) do(ctx context.Context, fn func()) error { return p.submit(ctx, fn, true) }

// doInternal is do without the admission bound, for service-internal
// fan-out (suite and sweep jobs): those bursts are generated by one
// already-admitted request and are bounded by its grid size, so shedding
// them would only shred the aggregate result.
func (p *pool) doInternal(ctx context.Context, fn func()) error { return p.submit(ctx, fn, false) }

func (p *pool) submit(ctx context.Context, fn func(), admit bool) error {
	depth := p.m.queued.Add(1)
	if admit && p.maxQueued > 0 && depth > p.maxQueued {
		p.m.queued.Add(-1)
		p.m.shed.Add(1)
		return &OverloadedError{RetryAfter: p.retryAfterHint(depth - 1)}
	}
	var jobErr error
	done := make(chan struct{})
	wrapped := func() {
		defer close(done)
		defer containPanic(p.m, &jobErr)
		if err := p.faults.Fire(ctx, faultinject.PointPoolPickup); err != nil {
			jobErr = err
			return
		}
		fn()
	}
	select {
	case p.jobs <- wrapped: // unbuffered: a worker has accepted the job
		p.m.queued.Add(-1)
	case <-p.quit:
		p.m.queued.Add(-1)
		return ErrClosed
	case <-ctx.Done():
		p.m.queued.Add(-1)
		return ctx.Err()
	}
	<-done
	return jobErr
}

// containPanic, deferred, turns a panic on its goroutine into a
// *PanicError in *errp, counted in m and logged with its stack, so the
// goroutine returns instead of taking the process down.
func containPanic(m *Metrics, errp *error) {
	if v := recover(); v != nil {
		stack := make([]byte, 64<<10)
		stack = stack[:runtime.Stack(stack, false)]
		*errp = &PanicError{Val: v, Stack: stack}
		m.panics.Add(1)
		log.Printf("simsvc: contained job panic: %v\n%s", v, stack)
	}
}

// retryAfterHint estimates how long a shed client should wait before the
// queue has plausibly drained: the waiting submissions divided across the
// workers, each costing roughly the observed mean simulation latency.
// Clamped to [1s, maxRetryAfterHint] and rounded up to whole seconds (the
// Retry-After header's resolution).
func (p *pool) retryAfterHint(depth int64) time.Duration {
	mean := p.m.meanLatency()
	if mean <= 0 {
		mean = time.Second // no observations yet: fall back to the old fixed hint
	}
	workers := int64(p.workers)
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(depth) * mean / time.Duration(workers)
	// Round up to whole seconds.
	est = (est + time.Second - 1) / time.Second * time.Second
	if est < time.Second {
		est = time.Second
	}
	if est > maxRetryAfterHint {
		est = maxRetryAfterHint
	}
	return est
}

// maxRetryAfterHint caps the load-derived Retry-After so a deep queue never
// tells clients to go away for minutes.
const maxRetryAfterHint = 30 * time.Second

// close stops the workers after their current jobs finish.
func (p *pool) close() {
	p.once.Do(func() {
		close(p.quit)
		p.wg.Wait()
	})
}
