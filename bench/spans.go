package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer. N is the
// number of layer calls the span covers (1 for slow calls, a whole loop
// for nanosecond-scale ones, where two clock reads per call would be
// most of the measurement). ID is the op or batch the span belongs to.
type span struct {
	Name   uint16
	Parent int32
	N      int32
	Start  int64 // ns since the recorder was made
	End    int64
	ID     int64
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced runs call the same code.
type recorder struct {
	t0    time.Time
	names []string
	index map[string]uint16
	spans []span
	open  []int32 // stack of open spans; the top one is the parent of the next
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), index: map[string]uint16{}}
}

// name interns a span name so the hot loop passes an integer.
func (r *recorder) name(s string) uint16 {
	if r == nil {
		return 0
	}
	if i, ok := r.index[s]; ok {
		return i
	}
	i := uint16(len(r.names))
	r.names = append(r.names, s)
	r.index[s] = i
	return i
}

func (r *recorder) begin(name uint16, id int64) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Parent: parent, N: 1, ID: id, Start: int64(time.Since(r.t0))})
}

// end closes the innermost open span, which covered n layer calls.
func (r *recorder) end(n int) {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.t0))
	r.spans[i].N = int32(n)
}

// skip takes d out of the recorder's clock: time the benchmark spent on
// itself between two layer calls.
func (r *recorder) skip(d time.Duration) {
	if r != nil {
		r.t0 = r.t0.Add(d)
	}
}

// renameLast renames the span recorded last, for a call whose kind is
// only known once it has returned.
func (r *recorder) renameLast(name uint16) {
	if r != nil {
		r.spans[len(r.spans)-1].Name = name
	}
}

// spanSum is what the per-layer metrics are derived from: per span
// name, total and self time (duration minus the child spans inside it)
// and the number of layer calls covered.
type spanSum struct {
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	Calls   int64 `json:"calls"`
}

func (r *recorder) summary() map[string]spanSum {
	if r == nil {
		return nil
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanSum{}
	for i, s := range r.spans {
		sum := out[r.names[s.Name]]
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += s.End - s.Start - child[i]
		sum.Calls += int64(s.N)
		out[r.names[s.Name]] = sum
	}
	return out
}

// traceFileSpans bounds out/trace.json: a two-million-read run records
// millions of spans, all of which feed the summary, but only the first
// ones are written out for reading by eye.
const traceFileSpans = 20000

type traceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	ID      int64  `json:"id"`
	Calls   int32  `json:"calls"`
}

type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Recorded  int                `json:"spans_recorded"`
	Truncated int                `json:"spans_not_written"`
	Summary   map[string]spanSum `json:"summary"`
	Spans     []traceSpan        `json:"spans"`
}

// write stores the trace under out/ next to the benchmark's sources.
func (r *recorder) write(dir, workload string, seed uint64) error {
	tf := traceFile{Workload: workload, Seed: seed, Recorded: len(r.spans), Summary: r.summary()}
	n := min(len(r.spans), traceFileSpans)
	tf.Truncated = len(r.spans) - n
	for _, s := range r.spans[:n] {
		tf.Spans = append(tf.Spans, traceSpan{r.names[s.Name], s.Start, s.End, s.Parent, s.ID, s.N})
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
