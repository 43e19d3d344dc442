package weakmap

import (
	"runtime"
	"sync"
	"testing"
)

type table struct{ rows [1 << 10]uint64 }

// TestMapSharesWhileHeld: racing holders get one value from one build,
// and once they all let go the next Get builds afresh (run under -race).
func TestMapSharesWhileHeld(t *testing.T) {
	var m Map[int, table]
	builds := 0
	build := func() *table { builds++; return new(table) } // runs under m's lock
	held := make([]*table, 8)
	var wg sync.WaitGroup
	for i := range held {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held[i] = m.Get(7, build)
		}()
	}
	wg.Wait()
	for _, v := range held {
		if v != held[0] {
			t.Fatal("concurrent holders got different values")
		}
	}
	if other := m.Get(8, build); other == held[0] || builds != 2 {
		t.Fatalf("second key: shared=%v builds=%d", other == held[0], builds)
	}
	clear(held)
	runtime.GC()
	runtime.GC()
	m.Get(7, build)
	if builds != 3 {
		t.Fatalf("%d builds: the dropped value was kept alive", builds)
	}
	if len(m.m) != 1 {
		t.Fatalf("%d entries after the sweep, want the live one only", len(m.m))
	}
}
