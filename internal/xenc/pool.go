// Package xenc implements Pathfinder's relational XML storage: documents
// are shredded into the XPath Accelerator encoding — one row per node with
// schema pre|size|level|kind|prop — with node properties (tag names, text
// content, attribute names and values) replaced by integer surrogates into
// shared, duplicate-free string pools, exactly as described in §3.1 of the
// paper. The same store also hosts fragments created at query time by
// element and text constructors (the ε and τ operators).
package xenc

import "sync"

// pool interns strings and hands out stable integer surrogates. Nodes with
// identical properties share the same surrogate, which both avoids string
// comparisons at query time and reduces storage (the paper's "surrogate
// sharing").
//
// Pools are store-wide and the parallel plan scheduler runs constructor
// operators (which intern new strings) concurrently with operators that
// resolve surrogates. Resolution (Get) is the per-node read of
// construction, serialization and StringValue, so it takes no lock: strs
// is an append-only array read through its published header. Interning
// and lookup by content go through index, a Go map, under mu.
//
// A pool restored from the persistent columnar store (internal/pfstore)
// starts without its lookup map: surrogate→string resolution needs only
// the slice, and the map is rebuilt lazily on the first Put or Lookup.
// Reopening a saved store therefore costs no per-string map inserts until
// a query actually interns or looks up by content.
//
// A scratch view's pool is a private tail over its base store's pool:
// surrogates below PrivateBase resolve in the base, the tail's own are
// numbered from PrivateBase, and a string goes into the tail only when
// the base does not have it.
type pool struct {
	base  *pool              // nil in a base store
	mu    sync.RWMutex       // guards index; serializes strs.push
	strs  appendOnly[string] // surrogate (minus PrivateBase in a tail) → string
	index map[string]int32   // nil until first content lookup on a restored pool or a tail
}

func newPool() *pool {
	return &pool{index: make(map[string]int32)}
}

// newPoolFromStrings adopts an already-deduplicated surrogate-ordered
// string slice (the persistent store's pool section) without building the
// lookup index.
func newPoolFromStrings(strs []string) *pool {
	p := &pool{}
	p.strs.adopt(strs)
	return p
}

// first is the surrogate of the pool's own first string: 0 in a base
// store, PrivateBase in a view's tail.
func (p *pool) first() int32 {
	if p.base != nil {
		return PrivateBase
	}
	return 0
}

// ensureIndexLocked builds the lookup map; callers hold the write lock.
func (p *pool) ensureIndexLocked() {
	if p.index != nil {
		return
	}
	strs := p.strs.view()
	p.index = make(map[string]int32, len(strs))
	for i, s := range strs {
		p.index[s] = p.first() + int32(i)
	}
}

// Put interns s and returns its surrogate. The pool keeps s itself, so a
// caller holding a slice of a larger string copies it first (the shredder's
// intern). A view's tail answers with the base's surrogate when the base
// has s.
func (p *pool) Put(s string) int32 {
	if p.base != nil {
		if id := p.base.Lookup(s); id >= 0 {
			return id
		}
	}
	if id, ok := p.cached(s); ok {
		return id
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureIndexLocked()
	if id, ok := p.index[s]; ok {
		return id
	}
	id := p.first() + p.strs.push(s)
	p.index[s] = id
	return id
}

// cached looks s up under the read lock. A restored pool without its index
// reports a miss, and Put builds the index.
func (p *pool) cached(s string) (int32, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	id, ok := p.index[s]
	return id, ok
}

// Lookup returns the surrogate for s, or -1 if s was never interned. Query
// compilation uses this to turn name tests into integer comparisons; a
// miss means the name test can never match.
func (p *pool) Lookup(s string) int32 {
	id, _ := p.ids(s)
	return id
}

// ids returns the surrogates s carries as seen from p: the base's first,
// then the tail's. They differ only when a view interned s before its
// base did; a pool without a tail, or a string only one side has, gives
// the one surrogate twice, and a string never interned -1 twice.
func (p *pool) ids(s string) (id, alias int32) {
	own := p.lookupOwn(s)
	if p.base == nil {
		return own, own
	}
	if id = p.base.lookupOwn(s); id < 0 {
		return own, own
	}
	if own < 0 {
		return id, id
	}
	return id, own
}

// lookupOwn is Lookup over the pool's own strings, not its base's.
func (p *pool) lookupOwn(s string) int32 {
	p.mu.RLock()
	if p.index != nil || p.base != nil {
		// A tail without an index has interned nothing.
		id, ok := p.index[s]
		p.mu.RUnlock()
		if ok {
			return id
		}
		return -1
	}
	p.mu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureIndexLocked()
	if id, ok := p.index[s]; ok {
		return id
	}
	return -1
}

// Get returns the string behind a surrogate.
func (p *pool) Get(id int32) string {
	if p.base != nil {
		if id < PrivateBase {
			return p.base.strs.at(id)
		}
		id -= PrivateBase
	}
	return p.strs.at(id)
}

// Len returns the number of distinct strings interned in the pool itself
// (a view's tail: its private strings only).
func (p *pool) Len() int { return p.strs.len() }

// snapshot copies the interned strings in surrogate order.
func (p *pool) snapshot() []string {
	return append([]string(nil), p.strs.view()...)
}

// bytes reports the heap footprint attributable to the pooled strings —
// used by the §3.1 storage-overhead report. Only payload bytes plus the
// per-entry slice header are charged; the lookup map is a load-time-only
// structure MonetDB would not persist.
func (p *pool) bytes() int64 {
	var n int64
	for _, s := range p.strs.view() {
		n += int64(len(s)) + 16 // string header
	}
	return n
}
