package dispatch

import (
	"context"
	"sync"

	"xlnand/internal/controller"
)

// Queue is a submission/completion handle onto the dispatcher. Any
// number of queues may target one dispatcher from any number of
// goroutines; per-die ordering follows submission order.
type Queue struct {
	d *Dispatcher
}

// NewQueue returns a submission handle. Queues are cheap: they carry no
// state beyond the dispatcher reference.
func (d *Dispatcher) NewQueue() *Queue { return &Queue{d: d} }

// Dispatcher returns the backing dispatcher.
func (q *Queue) Dispatcher() *Dispatcher { return q.d }

// submit fans a batch out to the die workers. deliver(i, c) is called
// exactly once per request, from worker goroutines or inline for
// requests that fail validation or hit a closing dispatcher; the
// returned WaitGroup drains when all completions have been delivered.
func (q *Queue) submit(ctx context.Context, reqs []Request, deliver func(int, Completion)) *sync.WaitGroup {
	if ctx == nil {
		ctx = context.Background()
	}
	arrival := q.d.Now()
	wg := &sync.WaitGroup{}
	for i := range reqs {
		req := reqs[i]
		if err := q.d.validate(&req); err != nil {
			c := Completion{Tag: req.Tag, Op: req.Op, Die: req.Die, Block: req.Block, Page: req.Page}
			c.Start, c.Finish = arrival, arrival
			c.Err = opErr(req, err)
			deliver(i, c)
			continue
		}
		idx := i
		wg.Add(1)
		j := &job{
			ctx:     ctx,
			req:     req,
			arrival: arrival,
			deliver: func(c Completion) {
				deliver(idx, c)
				wg.Done()
			},
		}
		if err := q.d.enqueue(req.Die, j); err != nil {
			wg.Done()
			c := Completion{Tag: req.Tag, Op: req.Op, Die: req.Die, Block: req.Block, Page: req.Page}
			c.Start, c.Finish = arrival, arrival
			c.Err = opErr(req, err)
			deliver(i, c)
		}
	}
	return wg
}

// Submit executes a batch and blocks until every request has completed
// (or been skipped after ctx was cancelled). Completions are returned in
// request order; per-request failures are reported in Completion.Err as
// *OpError values, so one bad request never fails the batch. The
// returned error is non-nil only for batch-level conditions: a closed
// sub-system (ErrClosed) or a cancelled context.
func (q *Queue) Submit(ctx context.Context, reqs []Request) ([]Completion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	q.d.closeMu.RLock()
	closed := q.d.closed
	q.d.closeMu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	comps := make([]Completion, len(reqs))
	q.submit(ctx, reqs, func(i int, c Completion) { comps[i] = c }).Wait()
	if err := ctx.Err(); err != nil {
		return comps, err
	}
	return comps, nil
}

// SubmitAsync executes a batch without blocking: completions stream onto
// the returned channel in finish order (not request order — use Tag to
// correlate) and the channel closes after the last one. Cancelling ctx
// skips not-yet-executed requests; their completions carry the context
// error.
func (q *Queue) SubmitAsync(ctx context.Context, reqs []Request) (<-chan Completion, error) {
	q.d.closeMu.RLock()
	closed := q.d.closed
	q.d.closeMu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	out := make(chan Completion, len(reqs))
	wg := q.submit(ctx, reqs, func(_ int, c Completion) { out <- c })
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// Do executes a single request synchronously. A request-level failure
// is returned as a *OpError; batch-level conditions (closed sub-system,
// cancelled context) come back as the bare sentinel with an empty
// Completion, exactly as Submit reports them.
func (q *Queue) Do(ctx context.Context, req Request) (Completion, error) {
	comps, err := q.Submit(ctx, []Request{req})
	if err != nil {
		return Completion{}, err
	}
	return comps[0], comps[0].Err
}

// DoRead executes a single read synchronously through the pooled
// allocation-free path: the decoded page lands in dst (when it is at
// least page-sized; Completion.Data and out.Data then alias dst) and
// the full result is written into out, which the caller owns and must
// keep stable until DoRead returns. Semantics — validation, calendar
// booking, error reporting — are identical to Do with an OpRead
// request.
func (q *Queue) DoRead(ctx context.Context, req Request, dst []byte, out *controller.ReadResult) (Completion, error) {
	return q.doLean(ctx, req, dst, out, nil)
}

// DoWrite is DoRead's write-side twin: a synchronous write whose result
// lands in the caller-owned out scratch instead of a fresh allocation.
func (q *Queue) DoWrite(ctx context.Context, req Request, out *controller.WriteResult) (Completion, error) {
	return q.doLean(ctx, req, nil, nil, out)
}

// doLean runs one request through a pooled job and the worker's
// scratch-result path. The job (and its completion channel) is reused
// across calls; the blocked caller reclaims it after the worker's
// hand-back send.
//
// When the target die is provably idle — nothing enqueued or executing
// on its worker — the request executes inline on the caller's goroutine
// under the die mutex instead: the synchronous single-client pattern
// (one FTL per die issuing one op at a time, the fleet hot path) then
// pays no channel hop and no goroutine wakeup per op. Ordering is
// preserved: an ordered submitter's previous op has fully drained
// (pending == 0) before the inline path is taken, and racing concurrent
// submitters never had a defined order between them.
func (q *Queue) doLean(ctx context.Context, req Request, dst []byte, rres *controller.ReadResult, wres *controller.WriteResult) (Completion, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	arrival := q.d.Now()
	if err := q.d.validate(&req); err != nil {
		c := Completion{Tag: req.Tag, Op: req.Op, Die: req.Die, Block: req.Block, Page: req.Page}
		c.Start, c.Finish = arrival, arrival
		c.Err = opErr(req, err)
		return c, c.Err
	}
	d := q.d
	if w := d.dies[req.Die]; w.pending.Load() == 0 && w.mu.TryLock() {
		if w.pending.Load() != 0 {
			// A job slipped onto the inbox between the check and the
			// lock; let the worker keep FIFO order.
			w.mu.Unlock()
		} else {
			// Hold the close guard for the duration: after Close returns,
			// no inline execution is in flight, matching the worker
			// drain guarantee.
			d.closeMu.RLock()
			if d.closed {
				d.closeMu.RUnlock()
				w.mu.Unlock()
				return Completion{}, ErrClosed
			}
			j := job{ctx: ctx, req: req, arrival: arrival, dst: dst, rres: rres, wres: wres}
			c := d.execute(w, &j)
			d.closeMu.RUnlock()
			w.mu.Unlock()
			d.bumpNow(c.Finish)
			return c, c.Err
		}
	}
	j := d.jobs.Get()
	j.ctx, j.req, j.arrival = ctx, req, arrival
	j.dst, j.rres, j.wres = dst, rres, wres
	if err := q.d.enqueue(req.Die, j); err != nil {
		j.ctx, j.req = nil, Request{}
		j.dst, j.rres, j.wres = nil, nil, nil
		d.jobs.Put(j)
		return Completion{}, err
	}
	c := <-j.sync
	j.ctx, j.req = nil, Request{}
	j.dst, j.rres, j.wres = nil, nil, nil
	d.jobs.Put(j)
	return c, c.Err
}
