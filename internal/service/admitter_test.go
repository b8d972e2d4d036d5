package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/xenc"
)

// acquireAsync starts an Acquire and reports its completion.
func acquireAsync(a *admitter, ctx context.Context, cost int64, heavy bool) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, cost, heavy)
		done <- err
	}()
	return done
}

func mustAdmitted(t *testing.T, done chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: never admitted", what)
	}
}

func mustQueued(t *testing.T, a *admitter, done chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s: expected to queue, returned %v", what, err)
	case <-time.After(20 * time.Millisecond):
	}
	if a.snapshot().Queued == 0 {
		t.Fatalf("%s: not in queue", what)
	}
}

func TestAdmitterInFlightBound(t *testing.T) {
	a := newAdmitter(2, 2, 4, 1<<30)
	ctx := context.Background()
	mustAdmitted(t, acquireAsync(a, ctx, 1, false), "first")
	mustAdmitted(t, acquireAsync(a, ctx, 1, false), "second")
	third := acquireAsync(a, ctx, 1, false)
	mustQueued(t, a, third, "third")
	a.Release(1, false)
	mustAdmitted(t, third, "third after release")
}

func TestAdmitterQueueFullRejects(t *testing.T) {
	a := newAdmitter(1, 1, 1, 1<<30)
	ctx := context.Background()
	mustAdmitted(t, acquireAsync(a, ctx, 1, false), "first")
	second := acquireAsync(a, ctx, 1, false)
	mustQueued(t, a, second, "second")
	if _, err := a.Acquire(ctx, 1, false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full acquire: want ErrOverloaded, got %v", err)
	}
	a.Release(1, false)
	mustAdmitted(t, second, "second after release")
	a.Release(1, false)
}

// TestAdmitterSkipScanLetsLightsPass is the no-head-of-line-blocking
// guarantee: a heavy parked on the heavy cap does not block the light
// queued behind it.
func TestAdmitterSkipScanLetsLightsPass(t *testing.T) {
	a := newAdmitter(2, 1, 8, 1<<30)
	ctx := context.Background()
	mustAdmitted(t, acquireAsync(a, ctx, 1, true), "heavy1")
	mustAdmitted(t, acquireAsync(a, ctx, 1, false), "light1")
	// Both slots busy: heavy2 waits on the heavy cap AND a slot, light2
	// (arriving later) waits on a slot only.
	heavy2 := acquireAsync(a, ctx, 1, true)
	mustQueued(t, a, heavy2, "heavy2")
	light2 := acquireAsync(a, ctx, 1, false)
	mustQueued(t, a, light2, "light2")

	// Freeing light1's slot must admit light2 past the queued heavy2,
	// which is still capped by the running heavy1.
	a.Release(1, false)
	mustAdmitted(t, light2, "light2 past queued heavy")
	select {
	case err := <-heavy2:
		t.Fatalf("heavy2 admitted past the heavy cap: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(1, true) // heavy1 done: heavy2's turn
	mustAdmitted(t, heavy2, "heavy2 after heavy slot freed")
}

func TestAdmitterCostGate(t *testing.T) {
	a := newAdmitter(8, 8, 8, 100)
	ctx := context.Background()
	mustAdmitted(t, acquireAsync(a, ctx, 60, false), "first 60")
	second := acquireAsync(a, ctx, 60, false)
	mustQueued(t, a, second, "second 60 over budget")
	a.Release(60, false)
	mustAdmitted(t, second, "second after budget freed")
	a.Release(60, false)

	// A plan costlier than the whole budget still runs when the engine is
	// idle: the gate degrades to serial execution, not starvation.
	mustAdmitted(t, acquireAsync(a, ctx, 1000, false), "oversized while idle")
	a.Release(1000, false)
}

func TestAdmitterCancelWhileQueued(t *testing.T) {
	a := newAdmitter(1, 1, 8, 1<<30)
	mustAdmitted(t, acquireAsync(a, context.Background(), 1, false), "first")
	ctx, cancel := context.WithCancel(context.Background())
	second := acquireAsync(a, ctx, 1, false)
	mustQueued(t, a, second, "second")
	cancel()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	if q := a.snapshot().Queued; q != 0 {
		t.Fatalf("canceled waiter still queued: %d", q)
	}
	// The slot is intact: release and re-acquire.
	a.Release(1, false)
	mustAdmitted(t, acquireAsync(a, context.Background(), 1, false), "after cancel")
	a.Release(1, false)
	if s := a.snapshot(); s.InFlight != 0 || s.CostInUse != 0 {
		t.Fatalf("leaked admission state: %+v", s)
	}
}

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"for $x in /a return $x", "for $x in /a return $x"},
		{"  for   $x\n\tin /a\n return $x ", "for $x in /a return $x"},
		{`"a  b"`, `"a  b"`},
		{`concat("x  y",   'p  q')`, `concat("x  y", 'p  q')`},
		{"a\r\nb", "a b"},
		// Doubled-quote escapes stay inside the literal.
		{`"a""b"  c`, `"a""b" c`},
		{`'p''q'   r`, `'p''q' r`},
		// Comments collapse to a token separator.
		{"for (: note :) $x", "for $x"},
		{"(:a:)(:b:)1", "1"},
		// Anything we cannot scan confidently keeps its raw text:
		// possible constructors, the lt operator, unterminated tokens.
		{"<a>x  y</a>", "<a>x  y</a>"},
		{"a  <  b", "a  <  b"},
		{`"abc`, `"abc`},
		{"(: abc", "(: abc"},
	}
	for _, c := range cases {
		if got := normalizeQuery(c.in); got != c.want {
			t.Errorf("normalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if normalizeQuery("for  $x") != normalizeQuery("for $x") {
		t.Error("reformatted copies must normalize equal")
	}
	if normalizeQuery(`"a  b"`) == normalizeQuery(`"a b"`) {
		t.Error("literal whitespace must stay significant")
	}
	if normalizeQuery(`"x ""a  b"" y"`) == normalizeQuery(`"x ""a b"" y"`) {
		t.Error("whitespace after an escaped quote must stay significant")
	}
	if normalizeQuery("<a>x  y</a>") == normalizeQuery("<a>x y</a>") {
		t.Error("constructor content whitespace must stay significant")
	}
	if normalizeQuery("for (:c:) $x in /a return $x") != normalizeQuery("for $x in /a return $x") {
		t.Error("comments must be insignificant")
	}
}

// TestPreparedCacheBounded: at MaxPrepared entries the cache flushes, so
// unbounded distinct query texts cannot grow it, and evicted queries
// still answer correctly on re-prepare.
func TestPreparedCacheBounded(t *testing.T) {
	svc := New(xenc.NewStore(), Config{MaxPrepared: 4})
	ctx := context.Background()
	for i := 1; i <= 12; i++ {
		q := fmt.Sprintf("count((1 to %d))", i)
		resp, err := svc.Query(ctx, Request{Query: q})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if want := fmt.Sprintf("%d", i); resp.Result != want {
			t.Fatalf("%s = %q, want %q", q, resp.Result, want)
		}
	}
	svc.preparedMu.Lock()
	n := len(svc.prepared)
	svc.preparedMu.Unlock()
	if n > 4 {
		t.Errorf("prepared cache grew to %d entries, cap 4", n)
	}
	if g := svc.Stats().PreparedPlans; g > 4 {
		t.Errorf("PreparedPlans gauge = %d, want <= 4", g)
	}
	resp, err := svc.Query(ctx, Request{Query: "count((1 to 1))"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result != "1" {
		t.Fatalf("re-run after eviction = %q, want 1", resp.Result)
	}
}

// TestEvictedPlansAreNotPinned: 2 000 distinct queries from 16 clients
// against a 4-entry cache and 2 execution slots, so entries are flushed
// while their requests wait for admission. Once the requests are done
// nothing holds their plans: the live heap after a collection stays
// where it started.
func TestEvictedPlansAreNotPinned(t *testing.T) {
	svc := New(xenc.NewStore(), Config{MaxPrepared: 4, MaxInFlight: 2})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const clients, queries = 16, 2000
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i <= queries; i = int(next.Add(1)) {
				q := fmt.Sprintf(`for $i in (1 to 4) where $i mod 2 = 0 return <a n="{$i}">{$i * %d}</a>`, i)
				if _, err := svc.Query(context.Background(), Request{Query: q}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	after := heap()
	runtime.KeepAlive(svc)
	if after > before+5<<20 {
		t.Errorf("live heap grew from %d to %d bytes over %d distinct queries", before, after, queries)
	}
	t.Logf("live heap %d bytes before, %d after", before, after)
}

// TestPreparedNoNegativeCache: compile failures occupy no cache slot, so
// a stream of distinct garbage cannot pin memory.
func TestPreparedNoNegativeCache(t *testing.T) {
	svc := New(xenc.NewStore(), Config{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.Query(ctx, Request{Query: fmt.Sprintf("for $x%d in", i)}); err == nil {
			t.Fatal("bad query succeeded")
		}
		svc.preparedMu.Lock()
		n := len(svc.prepared)
		svc.preparedMu.Unlock()
		if n != 0 {
			t.Fatalf("compile error left %d cache entries", n)
		}
	}
}
