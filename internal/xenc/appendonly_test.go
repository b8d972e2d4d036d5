package xenc

import (
	"fmt"
	"sync"
	"testing"

	"pathfinder/internal/bat"
)

// TestAppendOnlyRace hammers the two lock-free read paths — Store.Frag
// against addFrag, pool.Get against Put — from 8 goroutines. Every reader
// re-reads the whole published prefix after each of its own writes, so any
// slot a writer fills is read by the others right behind it. The assertions
// check content; the proof of the publish-after-write rule is that the run
// is clean under `go test -race` (make race): publish the length before
// the slot is written and the detector reports the slot.
func TestAppendOnlyRace(t *testing.T) {
	const workers, rounds = 8, 300
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := fmt.Sprintf("w%d-%d", w, i)
				fb := NewFragBuilder(s)
				fb.StartElem(fmt.Sprintf("t%d", i%7))
				fb.AddText(text)
				fb.EndElem()
				id, err := fb.Finish()
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.StringValue(bat.NodeRef{Frag: id}); got != text {
					t.Errorf("fragment %d reads %q, want %q", id, got, text)
					return
				}
				for f := int32(s.FragCount()) - 1; f >= 0; f-- {
					if s.Frag(f) == nil || s.Frag(f).NodeCount() != 2 {
						t.Errorf("fragment %d published before it was complete", f)
						return
					}
				}
				for p := int32(s.texts.Len()) - 1; p >= 0; p-- {
					if s.texts.Get(p) == "" {
						t.Errorf("text %d published before it was written", p)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.FragCount(); got != workers*rounds {
		t.Errorf("%d fragments registered, want %d", got, workers*rounds)
	}
	if got := s.texts.Len(); got != workers*rounds {
		t.Errorf("%d texts interned, want %d", got, workers*rounds)
	}
}

// TestAppendOnlyAdoptDoesNotWriteThrough: a pool restored from the
// persistent store adopts the caller's slice; the first Put must not land
// in that slice's spare capacity.
func TestAppendOnlyAdoptDoesNotWriteThrough(t *testing.T) {
	backing := make([]string, 2, 8)
	backing[0], backing[1] = "a", "b"
	p := newPoolFromStrings(backing)
	if id := p.Put("c"); id != 2 || p.Get(2) != "c" || p.Len() != 3 {
		t.Fatalf("Put after adopt: id %d, Get %q, Len %d", id, p.Get(2), p.Len())
	}
	if spare := backing[:3][2]; spare != "" {
		t.Errorf("Put wrote %q into the adopted slice's spare capacity", spare)
	}
	if p.Get(0) != "a" || p.Get(1) != "b" {
		t.Error("adopted prefix lost")
	}
}
