package exec

import (
	"reflect"
	"sync"
)

// Engine runs are short and numerous — a load sweep executes one engine
// run per (technique, load, worker) point — so the per-run scratch buffers
// are recycled. The non-generic buffers (Outcome, bool, Request) live in
// plain pools in machine.go and this file; the generic per-lookup state
// slices []S go through a per-state-type pool resolved once per run via
// reflection (the map lookup is nanoseconds against a run of thousands of
// simulated instructions).

// statePools maps a state type to the *sync.Pool recycling its []S buffers.
var statePools sync.Map

// GetStates returns a zeroed []S buffer of length n from the state-type's
// pool, plus the release function that recycles it (the engines defer it;
// the buffer must not be used afterwards).
func GetStates[S any](n int) ([]S, func()) {
	key := reflect.TypeOf((*S)(nil))
	pv, ok := statePools.Load(key)
	if !ok {
		pv, _ = statePools.LoadOrStore(key, &sync.Pool{})
	}
	pool := pv.(*sync.Pool)
	p := GetPooled[S](pool, n)
	return *p, func() { pool.Put(p) }
}

// GetPooled returns a zeroed []T buffer of length n from the given pool,
// which must hold *[]T values (and may start empty — a nil Get allocates).
// It is the one implementation of the recycle-or-grow-and-clear pattern
// every engine scratch buffer uses.
func GetPooled[T any](pool *sync.Pool, n int) *[]T {
	var p *[]T
	if v := pool.Get(); v != nil {
		p = v.(*[]T)
	} else {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	} else {
		*p = (*p)[:n]
		clear(*p)
	}
	return p
}

// requestPool recycles GP's per-slot Request buffers.
var requestPool sync.Pool

// getRequests returns a zeroed Request buffer of length n from the pool.
func getRequests(n int) *[]Request { return GetPooled[Request](&requestPool, n) }
