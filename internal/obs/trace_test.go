package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func buildTrace() *Tracer {
	tr := NewTracer()
	host := tr.Process(0, "host")
	host.Thread(0, "scheduler")
	host.Thread(10, `tenant "a"`)
	hs := host.Stream()
	hs.Span(0, "round", 0, 10*time.Microsecond)
	hs.Span1(0, "qos_stall", 10*time.Microsecond, 2500*time.Nanosecond, "round", 1)
	hs.Instant1(0, "cache_hit", 4*time.Microsecond, "page", 42)
	drive := tr.Process(2, "drive 1")
	drive.Thread(10, "die 0")
	ds := drive.Stream()
	ds.Span2(10, "sense", time.Microsecond, 40*time.Microsecond, "step", 0, "soft", 0)
	drive0 := tr.Process(1, "drive 0")
	drive0.Thread(1, "bus")
	drive0.Stream().Span(1, "transfer", 0, 5*time.Microsecond)
	return tr
}

// TestTraceJSONDeterministic builds the same trace twice — with
// processes registered in different interleavings — and requires
// byte-identical exports.
func TestTraceJSONDeterministic(t *testing.T) {
	a := buildTrace().JSON()
	b := buildTrace().JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace export not byte-stable:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceJSONSchema parses the export and checks the trace-event
// contract: metadata names, pid sorting, microsecond timestamps.
func TestTraceJSONSchema(t *testing.T) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	raw := buildTrace().JSON()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, raw)
	}
	var procNames []string
	spans := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procNames = append(procNames, e.Args["name"].(string))
			}
		case "X":
			spans++
			if e.Dur <= 0 {
				t.Errorf("span %q has non-positive dur %v", e.Name, e.Dur)
			}
		}
	}
	if len(procNames) != 3 || procNames[0] != "host" || procNames[1] != "drive 0" || procNames[2] != "drive 1" {
		t.Fatalf("process metadata wrong or unsorted: %v", procNames)
	}
	if spans != 4 {
		t.Fatalf("want 4 spans, got %d", spans)
	}
	// qos_stall span: ts 10µs, dur 2.5µs, args {"round":1}.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == "qos_stall" {
			found = true
			if e.Ts != 10 || e.Dur != 2.5 || e.Args["round"].(float64) != 1 {
				t.Fatalf("qos_stall fields wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("qos_stall span missing")
	}
}

// TestDisabledTracerZeroAlloc pins the disabled-path contract: nil
// streams (what every layer holds when tracing is off) must cost no
// allocations on any hook.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var s *Stream
	if n := testing.AllocsPerRun(1000, func() {
		s.Span(1, "sense", 10, 20)
		s.Span1(1, "sense", 10, 20, "step", 3)
		s.Span2(1, "sense", 10, 20, "step", 3, "soft", 1)
		s.Instant1(0, "cache_hit", 5, "page", 9)
		s.Instant2(0, "cache_hit", 5, "page", 9, "drive", 2)
	}); n != 0 {
		t.Fatalf("disabled tracer hooks allocate %.1f/op", n)
	}
	var p *Proc
	if n := testing.AllocsPerRun(1000, func() {
		if p.Stream() != nil {
			t.Fatal("nil proc minted a stream")
		}
		p.Thread(1, "x")
	}); n != 0 {
		t.Fatalf("nil proc hooks allocate %.1f/op", n)
	}
}

func TestTraceStreamLimit(t *testing.T) {
	tr := NewTracer()
	tr.SetStreamLimit(2)
	s := tr.Process(0, "p").Stream()
	for i := 0; i < 5; i++ {
		s.Instant1(0, "e", time.Duration(i), "i", int64(i))
	}
	kept, dropped := tr.Events()
	if kept != 2 || dropped != 3 {
		t.Fatalf("kept %d dropped %d", kept, dropped)
	}
	var doc map[string]any
	if err := json.Unmarshal(tr.JSON(), &doc); err != nil {
		t.Fatalf("limited trace invalid: %v", err)
	}
}

func TestNilTracerWriteJSON(t *testing.T) {
	var tr *Tracer
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}
