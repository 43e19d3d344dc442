// Package weakmap shares immutable, expensive-to-build values — codec
// tables — between every holder alive at the same time, without keeping
// them once the last holder is gone. A strong process-wide cache would be
// simpler and is wrong here: a process that walks many geometries in turn
// (the lifetime catalog visits nearly every BCH capability) would pin the
// tables of all of them for ever.
package weakmap

import (
	"sync"
	"weak"
)

// Map finds the live value of a key. The zero value is ready to use; it
// is safe for concurrent use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]weak.Pointer[V]
}

// Get returns the value somebody still holds for key, or builds one and
// remembers it weakly. build runs under the map's lock, so holders racing
// for a value wait for one build instead of each making their own.
func (r *Map[K, V]) Get(key K, build func() *V) *V {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.m[key].Value(); v != nil {
		return v
	}
	// A miss is a build, so it can afford to sweep out the dead entries.
	for k, wp := range r.m {
		if wp.Value() == nil {
			delete(r.m, k)
		}
	}
	if r.m == nil {
		r.m = make(map[K]weak.Pointer[V])
	}
	v := build()
	r.m[key] = weak.Make(v)
	return v
}
