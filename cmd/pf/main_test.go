package main

import (
	"fmt"
	"runtime"
	"testing"

	"pathfinder/internal/engine"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// TestREPLForgetsPlans: a REPL session of 2 000 distinct lines on one
// engine keeps the live heap flat — each line's lowered plan leaves the
// engine's plan cache with its result.
func TestREPLForgetsPlans(t *testing.T) {
	eng := engine.New(xenc.NewStore())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 2000; i++ {
		q := fmt.Sprintf(`%d + 1`, i)
		if _, err := runOnce(q, eng.ForStore(eng.Store.Scratch(), eng.Collection), xqcore.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	if after.HeapAlloc > before.HeapAlloc+5<<20 {
		t.Errorf("live heap grew from %d to %d bytes over 2 000 REPL lines", before.HeapAlloc, after.HeapAlloc)
	}
}
