// Package freelist is a mutex-guarded free list of reusable scratch
// objects. It does the job sync.Pool does on the simulator's hot paths
// with one difference that matters there: it never forgets an object. A
// sync.Pool is emptied by the garbage collector and strands objects in
// another P's private slot when GOMAXPROCS drops, so a path that must be
// allocation-free in steady state (and is tested to be) allocates again
// at moments the program does not control. A List holds at most as many
// objects as were ever in use at once, for as long as its owner lives.
package freelist

import "sync"

// List hands out *T values and takes them back. The zero value with New
// set is ready to use; it is safe for concurrent use.
type List[T any] struct {
	// New builds an object when the list is empty.
	New func() *T

	mu   sync.Mutex
	free []*T
}

// Get returns a free object, or a new one when none is parked.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return l.New()
}

// Put parks x for reuse. The caller must not touch x afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
