// Package serialize implements the post-processor of the Pathfinder stack:
// it maps a relational query result — the iter|pos|item encoding of an
// item sequence — back to the XQuery data model and renders it as text
// (§2, "A simple post-processor then serializes the relational result").
package serialize

import (
	"fmt"

	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// Result renders a query result table (schema iter|pos|item) as the
// serialized item sequence. Items are emitted in (iter, pos) order; nodes
// serialize as XML subtrees, atomics by their string value, adjacent
// atomic items separated by a single space per the XQuery serialization
// rules.
//
// The text is assembled in a reused scratch buffer and copied out once, at
// its final size: a result allocates its own length, not the doublings of
// a buffer growing towards it.
func Result(store *xenc.Store, t *bat.Table) (string, error) {
	sorted, err := t.SortBy("iter", "pos")
	if err != nil {
		return "", fmt.Errorf("serialize: %w", err)
	}
	items, err := sorted.Col("item")
	if err != nil {
		return "", fmt.Errorf("serialize: %w", err)
	}
	scratch := getScratch()
	buf := (*scratch)[:0]
	// A node-typed result column — every constructor query's — serializes
	// straight off the refs, without boxing each into an Item.
	if nodes, ok := items.(bat.NodeVec); ok {
		for _, n := range nodes {
			buf = store.AppendSerialized(buf, n)
		}
	} else {
		prevAtomic := false
		for i := 0; i < sorted.Rows(); i++ {
			it := items.ItemAt(i)
			if it.Kind == bat.KNode {
				buf = store.AppendSerialized(buf, it.N)
				prevAtomic = false
				continue
			}
			if prevAtomic {
				buf = append(buf, ' ')
			}
			buf = append(buf, it.StringValue()...)
			prevAtomic = true
		}
	}
	out := string(buf)
	*scratch = buf
	putScratch(scratch)
	return out, nil
}

// freeScratch holds the buffers Result assembles its output in: up to
// four, as many as four cores run Results at once. It is a free list, not
// a sync.Pool, because a pool keeps a returned buffer in the returning
// P's private slot, out of reach of a Result that runs on another P — and
// the requests of a service run their Results on whichever P is free —
// so with a pool, on a two-CPU host, about every second reply regrew its
// buffer from nothing.
var freeScratch = make(chan *[]byte, 4)

// maxFreeScratch is the largest buffer the free list keeps: unlike a
// pool's, its buffers outlive collections.
const maxFreeScratch = 16 << 20

func getScratch() *[]byte {
	select {
	case b := <-freeScratch:
		return b
	default:
		return new([]byte)
	}
}

func putScratch(b *[]byte) {
	if cap(*b) > maxFreeScratch {
		return
	}
	select {
	case freeScratch <- b:
	default:
	}
}

// Items returns the result sequence as a flat item slice in (iter, pos)
// order; used by tests that inspect values rather than serialized text.
func Items(t *bat.Table) ([]bat.Item, error) {
	sorted, err := t.SortBy("iter", "pos")
	if err != nil {
		return nil, err
	}
	col, err := sorted.Col("item")
	if err != nil {
		return nil, err
	}
	out := make([]bat.Item, sorted.Rows())
	for i := range out {
		out[i] = col.ItemAt(i)
	}
	return out, nil
}
