// Package serialize implements the post-processor of the Pathfinder stack:
// it maps a relational query result — the iter|pos|item encoding of an
// item sequence — back to the XQuery data model and renders it as text
// (§2, "A simple post-processor then serializes the relational result").
package serialize

import (
	"fmt"
	"strings"

	"pathfinder/internal/bat"
	"pathfinder/internal/xenc"
)

// Result renders a query result table (schema iter|pos|item) as the
// serialized item sequence. Items are emitted in (iter, pos) order; nodes
// serialize as XML subtrees, atomics by their string value, adjacent
// atomic items separated by a single space per the XQuery serialization
// rules.
func Result(store *xenc.Store, t *bat.Table) (string, error) {
	sorted, err := t.SortBy("iter", "pos")
	if err != nil {
		return "", fmt.Errorf("serialize: %w", err)
	}
	items, err := sorted.Col("item")
	if err != nil {
		return "", fmt.Errorf("serialize: %w", err)
	}
	var sb strings.Builder
	// A node-typed result column — every constructor query's — serializes
	// straight off the refs, without boxing each into an Item.
	if nodes, ok := items.(bat.NodeVec); ok {
		for _, n := range nodes {
			store.SerializeTo(&sb, n)
		}
		return sb.String(), nil
	}
	prevAtomic := false
	for i := 0; i < sorted.Rows(); i++ {
		it := items.ItemAt(i)
		if it.Kind == bat.KNode {
			store.SerializeTo(&sb, it.N)
			prevAtomic = false
			continue
		}
		if prevAtomic {
			sb.WriteByte(' ')
		}
		sb.WriteString(it.StringValue())
		prevAtomic = true
	}
	return sb.String(), nil
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
