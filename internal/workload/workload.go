// Package workload provides synthetic workload generation and trace
// replay through the dispatcher queue. The generators model the
// application classes the paper's §6.3 motivates: read-intensive
// multimedia streaming, mission-critical writes (OS upgrade, secure
// transactions) and mixed general-purpose traffic.
package workload

import (
	"context"
	"fmt"
	"time"

	"xlnand/internal/dispatch"
	"xlnand/internal/stats"
)

// OpKind is the request type of one trace record.
type OpKind int

const (
	OpWrite OpKind = iota
	OpRead
	OpErase
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpErase:
		return "erase"
	default:
		return "op?"
	}
}

// Request is one trace record. It carries no data (Replay writes one
// fixed page pattern), so traces stay compact.
type Request struct {
	Kind  OpKind
	Block int
	Page  int
}

// Trace is a replayable request sequence.
type Trace struct {
	Name     string
	Requests []Request
	Seed     uint64
}

// Profile parametrises the synthetic generator.
type Profile struct {
	Name string
	// ReadFraction in [0,1]: probability a data operation is a read.
	ReadFraction float64
	// Ops is the number of data operations to generate.
	Ops int
	// Blocks/PagesPerBlock bound the address space.
	Blocks, PagesPerBlock int
	// Sequential walks addresses in order; otherwise uniform random
	// reads over the written set.
	Sequential bool
}

// ReadIntensive returns the multimedia-streaming profile of §6.3.2
// (95% reads).
func ReadIntensive(ops, blocks, pages int) Profile {
	return Profile{Name: "read-intensive", ReadFraction: 0.95, Ops: ops,
		Blocks: blocks, PagesPerBlock: pages, Sequential: true}
}

// WriteIntensive returns a log/backup-style profile (80% writes).
func WriteIntensive(ops, blocks, pages int) Profile {
	return Profile{Name: "write-intensive", ReadFraction: 0.2, Ops: ops,
		Blocks: blocks, PagesPerBlock: pages}
}

// Mixed returns a balanced profile.
func Mixed(ops, blocks, pages int) Profile {
	return Profile{Name: "mixed", ReadFraction: 0.5, Ops: ops,
		Blocks: blocks, PagesPerBlock: pages}
}

// Generate builds a trace from the profile: writes fill pages (erasing
// blocks when they wrap), reads target previously written pages.
func Generate(p Profile, seed uint64) (Trace, error) {
	if p.Ops <= 0 || p.Blocks <= 0 || p.PagesPerBlock <= 0 {
		return Trace{}, fmt.Errorf("workload: invalid profile %+v", p)
	}
	if p.ReadFraction < 0 || p.ReadFraction > 1 {
		return Trace{}, fmt.Errorf("workload: read fraction %g outside [0,1]", p.ReadFraction)
	}
	rng := stats.NewRNG(seed)
	tr := Trace{Name: p.Name, Seed: seed}
	type addr struct{ b, pg int }
	var written []addr
	nextB, nextPg := 0, 0
	appendWrite := func() {
		// Wrapping past the end of a block requires an erase first when
		// re-entering it.
		if nextPg == 0 && len(written) >= p.Blocks*p.PagesPerBlock {
			tr.Requests = append(tr.Requests, Request{Kind: OpErase, Block: nextB})
			// Forget wiped pages.
			kept := written[:0]
			for _, a := range written {
				if a.b != nextB {
					kept = append(kept, a)
				}
			}
			written = kept
		}
		tr.Requests = append(tr.Requests, Request{Kind: OpWrite, Block: nextB, Page: nextPg})
		written = append(written, addr{nextB, nextPg})
		nextPg++
		if nextPg == p.PagesPerBlock {
			nextPg = 0
			nextB = (nextB + 1) % p.Blocks
		}
	}
	// Ensure at least one page exists before any read.
	appendWrite()
	for len(tr.Requests) < p.Ops {
		if len(written) > 0 && rng.Bernoulli(p.ReadFraction) {
			var a addr
			if p.Sequential {
				a = written[len(tr.Requests)%len(written)]
			} else {
				a = written[rng.Intn(len(written))]
			}
			tr.Requests = append(tr.Requests, Request{Kind: OpRead, Block: a.b, Page: a.pg})
		} else {
			appendWrite()
		}
	}
	return tr, nil
}

// Stats aggregates a trace replay on the modelled timeline.
type Stats struct {
	// Reads counts every read, Uncorrectable the ones that failed to
	// decode; Corrected sums the raw bit errors the reads repaired.
	Reads, Writes, Erases    int
	Corrected, Uncorrectable int
	// ReadTime and WriteTime sum each op's Completion.Latency(),
	// queueing included.
	ReadTime, WriteTime time.Duration
	// First and Last are the earliest Start and the latest Finish of the
	// replay's completions.
	First, Last time.Duration
}

// Replay drives a trace through the queue in batches of batch requests,
// which run in trace order. The trace addresses a flat block space that
// is striped round-robin across the dispatcher's dies. Every write
// carries one fixed page pattern: the device's injected errors do not
// depend on the data. An uncorrectable read is counted; any other failed
// request ends the replay with its error.
func Replay(q *dispatch.Queue, tr Trace, batch int) (Stats, error) {
	var st Stats
	if batch < 1 {
		return st, fmt.Errorf("workload: batch size %d < 1", batch)
	}
	geo := q.Dispatcher().Geometry()
	page := make([]byte, geo.PageDataBytes)
	for i := range page {
		page[i] = byte(i * 131)
	}
	ctx := context.Background()
	reqs := make([]dispatch.Request, 0, min(batch, len(tr.Requests)))
	for lo := 0; lo < len(tr.Requests); lo += batch {
		reqs = reqs[:0]
		for _, r := range tr.Requests[lo:min(lo+batch, len(tr.Requests))] {
			req := dispatch.Request{Die: r.Block % geo.Dies, Block: r.Block / geo.Dies, Page: r.Page}
			switch r.Kind {
			case OpWrite:
				req.Op, req.Data = dispatch.OpWrite, page
			case OpErase:
				req.Op = dispatch.OpErase
			default:
				req.Op = dispatch.OpRead
			}
			reqs = append(reqs, req)
		}
		comps, err := q.Submit(ctx, reqs)
		if err != nil {
			return st, err
		}
		for i, c := range comps {
			if lo+i == 0 || c.Start < st.First {
				st.First = c.Start
			}
			st.Last = max(st.Last, c.Finish)
			switch c.Op {
			case dispatch.OpRead:
				st.Reads++
				st.Corrected += c.Corrected
				st.ReadTime += c.Latency()
			case dispatch.OpWrite:
				st.Writes++
				st.WriteTime += c.Latency()
			case dispatch.OpErase:
				st.Erases++
			}
			if c.Err != nil {
				if c.Op == dispatch.OpRead && c.Read != nil {
					st.Uncorrectable++
					continue
				}
				return st, fmt.Errorf("workload: op %d (%v): %w", lo+i, c.Op, c.Err)
			}
		}
	}
	return st, nil
}
