package xenc

import "sync/atomic"

// appendOnly is a growing array whose written prefix is read without a
// lock: the fragment registry and the four string pools, which
// construction, serialization, StringValue and the staircase join read
// once per node.
//
// The header is the pair (arr, n). A slot is written once, before the
// length covering it is published, and never changes afterwards; growth
// copies the prefix into a larger array and publishes that array before
// the new length. A reader loads n first and arr second, so the array it
// holds has at least n written slots — an older array is never paired
// with a newer length. The atomic store of n is the release that orders
// the slot write before any read that observed it, which is what the race
// detector checks in TestAppendOnlyRace.
//
// Writers are not synchronized here: each owner serializes push under its
// own mutex (Store.mu, pool.mu).
type appendOnly[T any] struct {
	arr atomic.Pointer[[]T] // backing array at full capacity; replaced on growth
	n   atomic.Int64        // published length: slots [0, n) are final
}

// view returns the published prefix. Callers must not write through it.
func (a *appendOnly[T]) view() []T {
	n := a.n.Load()
	if n == 0 {
		return nil
	}
	return (*a.arr.Load())[:n]
}

// at returns slot i, panicking like a slice index when i is not published.
func (a *appendOnly[T]) at(i int32) T { return a.view()[i] }

func (a *appendOnly[T]) len() int { return int(a.n.Load()) }

// push appends v and returns its index. The caller holds the owner's
// write lock.
func (a *appendOnly[T]) push(v T) int32 {
	n := int(a.n.Load())
	var arr []T
	if p := a.arr.Load(); p != nil {
		arr = *p
	}
	if n < len(arr) {
		arr[n] = v
	} else {
		// append's amortized growth; the copy leaves the old array intact
		// for readers still holding it.
		grown := append(arr[:n:n], v)
		grown = grown[:cap(grown)]
		a.arr.Store(&grown)
	}
	a.n.Store(int64(n + 1))
	return int32(n)
}

// adopt installs vals as the initial content without copying. The full
// slice expression caps the array at its length, so the first push
// reallocates instead of writing into the caller's spare capacity.
func (a *appendOnly[T]) adopt(vals []T) {
	vals = vals[:len(vals):len(vals)]
	a.arr.Store(&vals)
	a.n.Store(int64(len(vals)))
}
