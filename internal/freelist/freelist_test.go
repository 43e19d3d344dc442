package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListKeepsObjects pins what sets a List apart from sync.Pool: what
// was put is what comes back, across a GC and a GOMAXPROCS change.
func TestListKeepsObjects(t *testing.T) {
	made := 0
	l := List[int]{New: func() *int { made++; return new(int) }}
	a, b := l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if x, y := l.Get(), l.Get(); x != b || y != a {
		t.Fatal("free list did not hand back the parked objects, newest first")
	}
	if made != 2 {
		t.Fatalf("built %d objects, want 2", made)
	}
}

// TestListConcurrent shares one list between goroutines the way
// concurrent dies share one codec (run under -race in CI): no object is
// ever held by two of them at once.
func TestListConcurrent(t *testing.T) {
	l := List[int]{New: func() *int { return new(int) }}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				x := l.Get()
				*x++
				if *x != 1 {
					t.Error("object handed to two holders at once")
				}
				*x--
				l.Put(x)
			}
		}()
	}
	wg.Wait()
}
