// Package serialize implements the post-processor of the Pathfinder stack:
// it maps a relational query result — the iter|pos|item encoding of an
// item sequence — back to the XQuery data model and renders it as text
// (§2, "A simple post-processor then serializes the relational result").
package serialize

import (
	"fmt"
	"sync"

	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// Result renders a query result table (schema iter|pos|item) as the
// serialized item sequence. Items are emitted in (iter, pos) order; nodes
// serialize as XML subtrees, atomics by their string value, adjacent
// atomic items separated by a single space per the XQuery serialization
// rules.
//
// The text is assembled in a pooled scratch buffer and copied out once, at
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
	scratch := scratchPool.Get().(*[]byte)
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
	scratchPool.Put(scratch)
	return out, nil
}

// scratchPool holds the buffers Result assembles its output in.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

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
