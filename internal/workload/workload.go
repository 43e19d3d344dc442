// Package workload provides synthetic workload generation and trace-driven
// simulation over the full controller+device stack. The generators model
// the application classes the paper's §6.3 motivates: read-intensive
// multimedia streaming, mission-critical writes (OS upgrade, secure
// transactions) and mixed general-purpose traffic.
package workload

import (
	"fmt"
	"time"

	"xlnand/internal/controller"
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

// Request is one trace record. Data is lazily generated for writes from
// the trace's seed, so traces stay compact.
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

// Stats aggregates a trace replay.
type Stats struct {
	Reads, Writes, Erases int
	BitErrorsCorrected    int
	Uncorrectable         int
	ReadTime              time.Duration
	WriteTime             time.Duration
	EraseTime             time.Duration
	// Throughputs over the 4 KB payloads.
	ReadMBps, WriteMBps float64
}

// Run replays a trace against a controller, generating deterministic
// page contents from the trace seed and verifying data integrity on
// every read (mismatches beyond ECC are counted, not fatal).
func Run(c *controller.Controller, tr Trace) (Stats, error) {
	var st Stats
	pageBytes := c.Device().Calibration().PageDataBytes
	content := func(b, pg int) []byte {
		r := stats.NewRNG(tr.Seed ^ uint64(b)<<32 ^ uint64(pg))
		data := make([]byte, pageBytes)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		return data
	}
	for i, req := range tr.Requests {
		switch req.Kind {
		case OpWrite:
			wr, err := c.WritePage(req.Block, req.Page, content(req.Block, req.Page))
			if err != nil {
				return st, fmt.Errorf("workload: op %d (%v %d.%d): %w", i, req.Kind, req.Block, req.Page, err)
			}
			st.Writes++
			st.WriteTime += wr.Latency.Program // pipelined write path
		case OpRead:
			rd, err := c.ReadPageRetryInto(req.Block, req.Page, c.ReadRetry(), nil)
			st.ReadTime += rd.Latency.Total()
			if err != nil {
				st.Uncorrectable++
				continue
			}
			st.Reads++
			st.BitErrorsCorrected += rd.Corrected
		case OpErase:
			if err := c.EraseBlock(req.Block); err != nil {
				return st, fmt.Errorf("workload: op %d erase %d: %w", i, req.Block, err)
			}
			st.Erases++
			st.EraseTime += c.Device().Calibration().TEraseOp
		default:
			return st, fmt.Errorf("workload: op %d has unknown kind %d", i, int(req.Kind))
		}
	}
	if st.ReadTime > 0 {
		st.ReadMBps = float64(st.Reads*pageBytes) / st.ReadTime.Seconds() / 1e6
	}
	if st.WriteTime > 0 {
		st.WriteMBps = float64(st.Writes*pageBytes) / st.WriteTime.Seconds() / 1e6
	}
	return st, nil
}
