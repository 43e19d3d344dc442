package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTrace hardens the trace parser against hostile input: for any
// byte stream — malformed rows, huge fields, truncated input, binary
// garbage — ReadTrace must return (Trace, error) without panicking, and
// any trace it accepts must survive a Write/Read round trip unchanged
// (the replay-across-tools contract of xlnand trace -record/-replay).
func FuzzReadTrace(f *testing.F) {
	// Seed corpus: a valid trace, then structured mutations of it.
	var valid bytes.Buffer
	tr, err := Generate(Mixed(32, 4, 8), 99)
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteTrace(&valid, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("#name,x\n#seed,1\nop,block,page\n"))
	f.Add([]byte("#name,x\n#seed,1\nop,block,page\nwrite,0,0\nread,0,0\nerase,0,0\n"))
	f.Add([]byte("#name,x\n#seed,not-a-number\nop,block,page\n"))
	f.Add([]byte("#name,x\n#seed,1\nop,block,page\nwrite,999999999999999999999,0\n"))
	f.Add([]byte("#name,x\n#seed,1\nop,block,page\nteleport,0,0\n"))
	f.Add([]byte("#name,x\n#seed,1\nop,block,page\nwrite,0\n"))
	f.Add([]byte("#seed,1\n#name,x\nop,block,page\n"))
	f.Add([]byte("\"unterminated\nquote,1,2\n"))
	f.Add([]byte("#name," + strings.Repeat("A", 1<<16) + "\n#seed,1\nop,block,page\n"))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, ','}, 512))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		// Accepted traces must round-trip bit-exactly.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace failed on accepted trace: %v", err)
		}
		tr2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-parse of serialised trace failed: %v\ntrace: %+v\nserialised:\n%s", err, tr, buf.String())
		}
		if tr2.Name != tr.Name || tr2.Seed != tr.Seed || len(tr2.Requests) != len(tr.Requests) {
			t.Fatalf("round trip changed trace: %+v -> %+v", tr, tr2)
		}
		for i := range tr.Requests {
			if tr.Requests[i] != tr2.Requests[i] {
				t.Fatalf("round trip changed request %d: %+v -> %+v", i, tr.Requests[i], tr2.Requests[i])
			}
		}
	})
}
