package obs

import (
	"bufio"
	"bytes"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer collects virtual-time spans from every layer of a run and
// exports them as Chrome trace-event JSON ("chrome://tracing" or
// https://ui.perfetto.dev). Drives map to trace processes (pid = drive
// index + 1; the array front end is pid 0) and dies/bus/codec/tenants
// map to threads within them.
//
// Determinism and thread-safety come from the stream model: a Stream
// is an append-only event buffer owned by exactly one goroutine (a
// drive worker appends under the same lock that serializes its die, the
// array front end appends from its single scheduling goroutine), and
// WriteJSON emits streams in creation order within processes sorted by
// pid. Timestamps are virtual — the fleet clock for host streams, the
// drive's dispatcher clock for drive streams — never wall time, so two
// runs of the same seeded scenario serialize byte-identically.
//
// All hook methods tolerate nil receivers: a disabled tracer threads
// nil *Stream values through the stack and every Span/Instant call
// returns immediately without allocating.
type Tracer struct {
	mu    sync.Mutex
	procs []*Proc
	limit int
}

// NewTracer returns an empty tracer. Per-stream event buffers are
// capped at a generous default; SetStreamLimit adjusts it.
func NewTracer() *Tracer {
	return &Tracer{limit: 1 << 20}
}

// SetStreamLimit caps the number of events any single stream retains;
// events past the cap are counted as drops and surface in the exported
// metadata. Zero or negative means unlimited.
func (t *Tracer) SetStreamLimit(n int) {
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Process returns the trace process for pid, creating it (with the
// given display name) on first use. Creation order is part of the
// export only via pid sorting, so concurrent engine construction is
// safe.
func (t *Tracer) Process(pid int32, name string) *Proc {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.procs {
		if p.pid == pid {
			return p
		}
	}
	p := &Proc{t: t, pid: pid, name: name}
	t.procs = append(t.procs, p)
	return p
}

// Proc is one trace process (a drive, or the array front end).
type Proc struct {
	t    *Tracer
	pid  int32
	name string

	mu      sync.Mutex
	threads []thread
	streams []*Stream
}

type thread struct {
	tid  int32
	name string
}

// Thread registers a thread-name metadata record (idempotent per tid).
func (p *Proc) Thread(tid int32, name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, th := range p.threads {
		if th.tid == tid {
			return
		}
	}
	p.threads = append(p.threads, thread{tid: tid, name: name})
}

// Stream mints a new single-writer event buffer within the process.
// The caller owns it: all appends must come from one goroutine (or be
// externally serialized, as die streams are by the die mutex).
func (p *Proc) Stream() *Stream {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Stream{limit: p.t.limit}
	p.streams = append(p.streams, s)
	return s
}

// Event phases, following the trace-event format.
const (
	phaseSpan    = 'X' // complete event: ts + dur
	phaseInstant = 'i' // instant event
)

// Event is one trace record. Names and argument keys must be static
// strings (they are written verbatim into the export); values are
// virtual durations/integers, so appending never boxes or formats.
type Event struct {
	Name   string
	Ph     byte
	Tid    int32
	Ts     time.Duration // virtual timestamp (ns since run start)
	Dur    time.Duration // span length; unused for instants
	K1, K2 string        // optional static arg keys ("" = absent)
	V1, V2 int64
}

// Stream is an append-only event buffer owned by a single writer.
type Stream struct {
	events []Event
	drops  uint64
	limit  int
}

func (s *Stream) push(e Event) {
	if s.limit > 0 && len(s.events) >= s.limit {
		s.drops++
		return
	}
	s.events = append(s.events, e)
}

// Span records a complete event [ts, ts+dur) on thread tid. A nil
// stream (tracing disabled) returns immediately and never allocates.
func (s *Stream) Span(tid int32, name string, ts, dur time.Duration) {
	if s == nil {
		return
	}
	s.push(Event{Name: name, Ph: phaseSpan, Tid: tid, Ts: ts, Dur: dur})
}

// Span1 is Span with one static-keyed integer argument.
func (s *Stream) Span1(tid int32, name string, ts, dur time.Duration, k1 string, v1 int64) {
	if s == nil {
		return
	}
	s.push(Event{Name: name, Ph: phaseSpan, Tid: tid, Ts: ts, Dur: dur, K1: k1, V1: v1})
}

// Span2 is Span with two static-keyed integer arguments.
func (s *Stream) Span2(tid int32, name string, ts, dur time.Duration, k1 string, v1 int64, k2 string, v2 int64) {
	if s == nil {
		return
	}
	s.push(Event{Name: name, Ph: phaseSpan, Tid: tid, Ts: ts, Dur: dur, K1: k1, V1: v1, K2: k2, V2: v2})
}

// Instant1 records a zero-length marker at ts on thread tid with one
// static-keyed integer argument.
func (s *Stream) Instant1(tid int32, name string, ts time.Duration, k1 string, v1 int64) {
	if s == nil {
		return
	}
	s.push(Event{Name: name, Ph: phaseInstant, Tid: tid, Ts: ts, K1: k1, V1: v1})
}

// Instant2 is Instant1 with two static-keyed integer arguments.
func (s *Stream) Instant2(tid int32, name string, ts time.Duration, k1 string, v1 int64, k2 string, v2 int64) {
	if s == nil {
		return
	}
	s.push(Event{Name: name, Ph: phaseInstant, Tid: tid, Ts: ts, K1: k1, V1: v1, K2: k2, V2: v2})
}

// Events returns the total number of retained events across all
// processes, plus the number dropped to stream limits.
func (t *Tracer) Events() (kept, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.procs {
		p.mu.Lock()
		for _, s := range p.streams {
			kept += uint64(len(s.events))
			dropped += s.drops
		}
		p.mu.Unlock()
	}
	return kept, dropped
}

// WriteJSON serializes the trace in Chrome trace-event format:
// process_name/thread_name metadata first, then every stream's events
// in append order, streams in creation order, processes sorted by pid.
// The trace-event format does not require chronological order, so this
// fixed serialization order is what makes the export byte-stable.
// Timestamps are microseconds with fixed millinanosecond precision
// ("12.345"), derived from the integer virtual nanosecond clocks.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	t.mu.Lock()
	procs := append([]*Proc(nil), t.procs...)
	t.mu.Unlock()
	sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })

	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	comma := func() {
		if first {
			first = false
		} else {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
	}
	var buf []byte
	for _, p := range procs {
		p.mu.Lock()
		threads := append([]thread(nil), p.threads...)
		streams := append([]*Stream(nil), p.streams...)
		p.mu.Unlock()
		sort.Slice(threads, func(i, j int) bool { return threads[i].tid < threads[j].tid })

		comma()
		buf = buf[:0]
		buf = append(buf, `{"name":"process_name","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(p.pid), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = appendQuoted(buf, p.name)
		buf = append(buf, `}}`...)
		bw.Write(buf)

		for _, th := range threads {
			comma()
			buf = buf[:0]
			buf = append(buf, `{"name":"thread_name","ph":"M","pid":`...)
			buf = strconv.AppendInt(buf, int64(p.pid), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(th.tid), 10)
			buf = append(buf, `,"args":{"name":`...)
			buf = appendQuoted(buf, th.name)
			buf = append(buf, `}}`...)
			bw.Write(buf)
		}
		for _, s := range streams {
			for i := range s.events {
				e := &s.events[i]
				comma()
				buf = appendEvent(buf[:0], p.pid, e)
				bw.Write(buf)
			}
			if s.drops > 0 {
				comma()
				buf = buf[:0]
				buf = append(buf, `{"name":"events_dropped","ph":"M","pid":`...)
				buf = strconv.AppendInt(buf, int64(p.pid), 10)
				buf = append(buf, `,"args":{"count":`...)
				buf = strconv.AppendUint(buf, s.drops, 10)
				buf = append(buf, `}}`...)
				bw.Write(buf)
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// JSON returns the serialized trace as a byte slice.
func (t *Tracer) JSON() []byte {
	var b bytes.Buffer
	t.WriteJSON(&b)
	return b.Bytes()
}

func appendEvent(buf []byte, pid int32, e *Event) []byte {
	buf = append(buf, `{"name":`...)
	buf = appendQuoted(buf, e.Name)
	buf = append(buf, `,"ph":"`...)
	buf = append(buf, e.Ph)
	buf = append(buf, `","pid":`...)
	buf = strconv.AppendInt(buf, int64(pid), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendInt(buf, int64(e.Tid), 10)
	buf = append(buf, `,"ts":`...)
	buf = appendMicros(buf, e.Ts)
	if e.Ph == phaseSpan {
		buf = append(buf, `,"dur":`...)
		buf = appendMicros(buf, e.Dur)
	}
	if e.Ph == phaseInstant {
		buf = append(buf, `,"s":"t"`...)
	}
	if e.K1 != "" {
		buf = append(buf, `,"args":{`...)
		buf = appendQuoted(buf, e.K1)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, e.V1, 10)
		if e.K2 != "" {
			buf = append(buf, ',')
			buf = appendQuoted(buf, e.K2)
			buf = append(buf, ':')
			buf = strconv.AppendInt(buf, e.V2, 10)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}')
	return buf
}

// appendMicros renders a nanosecond duration as decimal microseconds
// with exactly three fractional digits — integer math only, so the
// text is identical across platforms and runs.
func appendMicros(buf []byte, d time.Duration) []byte {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	buf = strconv.AppendInt(buf, ns/1000, 10)
	frac := ns % 1000
	buf = append(buf, '.')
	buf = append(buf, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return buf
}

// appendQuoted writes a JSON string. Trace names are static ASCII
// identifiers; the escape handling covers the general case anyway.
func appendQuoted(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}
