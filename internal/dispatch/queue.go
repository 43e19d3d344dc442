package dispatch

import (
	"context"

	"xlnand/internal/controller"
)

// Queue is a submission/completion handle onto the dispatcher. Any
// number of queues may target one dispatcher from any number of
// goroutines. Every call runs on its caller's goroutine; calls from
// different goroutines run in parallel wherever they target different
// dies.
type Queue struct {
	d *Dispatcher
}

// NewQueue returns a submission handle. Queues are cheap: they carry no
// state beyond the dispatcher reference.
func (d *Dispatcher) NewQueue() *Queue { return &Queue{d: d} }

// Dispatcher returns the backing dispatcher.
func (q *Queue) Dispatcher() *Dispatcher { return q.d }

// Submit executes a batch on the calling goroutine, in request order,
// and returns when every request has completed (or been skipped after
// ctx was cancelled). The whole batch arrives at one instant of the
// modelled timeline, so requests on different dies overlap there while
// the shared bus and codec serialise them; booking in request order
// makes the stamps a function of the batch alone. Completions are
// returned in request order; per-request failures are reported in
// Completion.Err as *OpError values, so one bad request never fails the
// batch. The returned error is non-nil only for batch-level conditions:
// a closed sub-system (ErrClosed) or a cancelled context.
func (q *Queue) Submit(ctx context.Context, reqs []Request) ([]Completion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := q.d
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return nil, ErrClosed
	}
	arrival := d.Now()
	comps := make([]Completion, len(reqs))
	for i := range reqs {
		comps[i] = d.run(&job{ctx: ctx, req: reqs[i], arrival: arrival})
	}
	if err := ctx.Err(); err != nil {
		return comps, err
	}
	return comps, nil
}

// Do executes a single request synchronously. A request-level failure,
// a cancelled context included, is returned as a *OpError; a closed
// sub-system comes back as the bare ErrClosed with an empty Completion,
// exactly as Submit reports it.
func (q *Queue) Do(ctx context.Context, req Request) (Completion, error) {
	return q.do(&job{ctx: ctx, req: req})
}

// DoRead executes a single read synchronously without allocating: the
// decoded page lands in dst (when it is at least page-sized;
// Completion.Data and out.Data then alias dst) and the full result is
// written into out, which the caller owns and must keep stable until
// DoRead returns. Semantics — validation, calendar booking, error
// reporting — are identical to Do with an OpRead request.
func (q *Queue) DoRead(ctx context.Context, req Request, dst []byte, out *controller.ReadResult) (Completion, error) {
	return q.do(&job{ctx: ctx, req: req, dst: dst, rres: out})
}

// DoWrite is DoRead's write-side twin: a synchronous write whose result
// lands in the caller-owned out scratch instead of a fresh allocation.
func (q *Queue) DoWrite(ctx context.Context, req Request, out *controller.WriteResult) (Completion, error) {
	return q.do(&job{ctx: ctx, req: req, wres: out})
}

// do runs one job arriving at the current high-water mark.
func (q *Queue) do(j *job) (Completion, error) {
	if j.ctx == nil {
		j.ctx = context.Background()
	}
	d := q.d
	d.closeMu.RLock()
	defer d.closeMu.RUnlock()
	if d.closed {
		return Completion{}, ErrClosed
	}
	j.arrival = d.Now()
	c := d.run(j)
	return c, c.Err
}
