package service_test

// Robustness tier: mixed concurrent clients, mid-query disconnects on
// both transports, server-side timeouts, admission saturation, and drain
// — each asserting the scheduler returns to idle (no leaked queries or
// workers) and that later queries still succeed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
	"pathfinder/internal/corpus"
	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
)

// slowQuery runs ~350ms on one core (640k-row cross product); the engine
// polls its context every few thousand rows, so cancellation lands fast.
const slowQuery = `count(for $x in (1 to 800) for $y in (1 to 800) return 1)`
const slowAnswer = "640000"

// tinyQuery is the light class: a point lookup on the miniature doc.
const tinyQuery = `count(/site/open_auctions/open_auction)`

func waitIdle(t *testing.T, svc *service.Service) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Engine().ActiveQueries() == 0 && svc.Engine().ActiveWorkers() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("engine never returned to idle: queries=%d workers=%d",
		svc.Engine().ActiveQueries(), svc.Engine().ActiveWorkers())
}

func newSvc(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("auction.xml", corpus.AuctionDoc); err != nil {
		t.Fatal(err)
	}
	return service.New(store, cfg)
}

// TestConcurrentMixedClients: M clients × mixed dialect + slow queries,
// all results correct, engine idle afterwards. The race tier runs this
// under -race.
func TestConcurrentMixedClients(t *testing.T) {
	h := newHarness(t, 8, auctionDocs)

	// The embedded engine's outputs, once.
	queries := corpus.Dialect[:12]
	cases := difftest.Agree("dialect", queries)
	want := difftest.Matrix{Docs: auctionDocs, Evals: []difftest.Evaluator{embedded(8)}}.Run(t, cases)
	difftest.NoErrors(t, cases, want)

	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Half the clients speak HTTP, half TCP.
			var exec func(q string) (string, error)
			if c%2 == 0 {
				exec = func(q string) (string, error) {
					return reply(h.postJSON(t, map[string]any{"query": q, "doc": "auction.xml"}))
				}
			} else {
				tcp := h.dialTCP(t)
				exec = func(q string) (string, error) { return tcp.ExecXQ(q, "auction.xml") }
			}
			for round := 0; round < 4; round++ {
				i := (c + round) % len(queries)
				got, err := exec(queries[i])
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: %v", c, round, err)
					return
				}
				if got != want[i].Got {
					errc <- fmt.Errorf("client %d round %d: %q != %q", c, round, got, want[i].Got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	waitIdle(t, h.svc)
}

// TestServerTimeoutCancelsPromptly: a query past its deadline dies with
// the documented timeout code, the scheduler drains, and the next query
// succeeds.
func TestServerTimeoutCancelsPromptly(t *testing.T) {
	svc := newSvc(t, service.Config{Engine: engine.Config{Workers: 4}})
	start := time.Now()
	_, err := svc.Query(context.Background(), service.Request{
		Query: slowQuery, ContextDoc: "auction.xml", Timeout: 50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	se := service.AsError(err)
	if err == nil || se.Code != service.CodeTimeout || se.Stage != "exec" {
		t.Fatalf("want exec-stage timeout, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout enforced only after %v", elapsed)
	}
	waitIdle(t, svc)
	if st := svc.Stats(); st.Queries.TimeoutExec != 1 {
		t.Fatalf("timeout_exec = %d, want 1", st.Queries.TimeoutExec)
	}
	resp, err := svc.Query(context.Background(), service.Request{Query: tinyQuery, ContextDoc: "auction.xml"})
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	if resp.Result == "" {
		t.Fatal("empty result after timeout")
	}
}

// TestHTTPDisconnectCancels: an HTTP client that goes away mid-query
// cancels the evaluation; the service records it and stays healthy.
func TestHTTPDisconnectCancels(t *testing.T) {
	h := newHarness(t, 4, auctionDocs)
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{"query": slowQuery, "doc": "auction.xml"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.httpSrv.URL+"/query", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("request survived its own cancellation")
	}
	waitIdle(t, h.svc)
	deadline := time.Now().Add(5 * time.Second)
	for svc := h.svc; svc.Stats().Queries.Canceled == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("cancellation not recorded: %+v", svc.Stats().Queries)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, got := h.queryText(t, tinyQuery, "doc=auction.xml"); code != http.StatusOK {
		t.Fatalf("query after disconnect: status=%d %q", code, got)
	}
}

// TestTCPDisconnectCancels: a TCP client that drops mid-XQ cancels the
// in-flight evaluation via the connection context.
func TestTCPDisconnectCancels(t *testing.T) {
	h := newHarness(t, 4, auctionDocs)
	conn, err := net.Dial("tcp", h.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "XQ %d auction.xml\n%s", len(slowQuery), slowQuery); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	conn.Close() // vanish mid-query

	waitIdle(t, h.svc)
	// The dropped session must be unregistered and later clients served.
	deadline := time.Now().Add(5 * time.Second)
	for h.svc.Stats().ActiveSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped session still registered: %d", h.svc.Stats().ActiveSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	tcp := h.dialTCP(t)
	if got, err := tcp.ExecXQ(slowQuery, "auction.xml"); err != nil || got != slowAnswer {
		t.Fatalf("query after disconnect: %q, %v", got, err)
	}
}

// TestAdmissionSaturation (the status-code contract): with one execution
// slot and one queue slot, a burst sees exactly the documented outcomes —
// the runner 200, the queued query 504 (stage queued) when its deadline
// fires first, the overflow 429.
func TestAdmissionSaturation(t *testing.T) {
	svc := newSvc(t, service.Config{
		Engine:      engine.Config{Workers: 4},
		MaxInFlight: 1,
		MaxQueue:    1,
		HeavyCost:   1 << 40, // classification out of the way: everything light
	})

	runnerDone := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), service.Request{Query: slowQuery, ContextDoc: "auction.xml"})
		runnerDone <- err
	}()
	waitFor(t, "runner in flight", func() bool { return svc.Stats().Admission.InFlight == 1 })

	queuedDone := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), service.Request{
			Query: tinyQuery, ContextDoc: "auction.xml", Timeout: 60 * time.Millisecond,
		})
		queuedDone <- err
	}()
	waitFor(t, "second query queued", func() bool { return svc.Stats().Admission.Queued == 1 })

	// Queue full: the third query is rejected immediately with 429.
	_, err := svc.Query(context.Background(), service.Request{Query: tinyQuery, ContextDoc: "auction.xml"})
	se := service.AsError(err)
	if err == nil || se.Code != service.CodeOverloaded || !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("overflow: want CodeOverloaded, got %v", err)
	}

	// The queued query's deadline fires while it waits: 504, stage queued.
	se = service.AsError(<-queuedDone)
	if se == nil || se.Code != service.CodeTimeout || se.Stage != "queued" {
		t.Fatalf("queued: want queued-stage timeout, got %v", se)
	}

	if err := <-runnerDone; err != nil {
		t.Fatalf("runner: %v", err)
	}
	waitIdle(t, svc)
	st := svc.Stats()
	if st.Queries.Rejected != 1 || st.Queries.TimeoutQueued != 1 || st.Queries.Completed != 1 {
		t.Fatalf("counter mismatch: %+v", st.Queries)
	}
}

// TestLightsBypassQueuedHeavies: with the heavy cap saturated and heavies
// queued, point lookups keep completing within a bound — the no-starvation
// guarantee the admission controller exists for.
func TestLightsBypassQueuedHeavies(t *testing.T) {
	svc := newSvc(t, service.Config{
		Engine:      engine.Config{Workers: 4},
		MaxInFlight: 4,
		MaxHeavy:    1,
		MaxQueue:    8,
		// Between the measured costs: the cross product (~426K units at
		// default UnknownRows) classifies heavy, the point lookup (~246K)
		// light.
		HeavyCost: 300_000,
	})

	const heavies = 3
	heavyDone := make(chan error, heavies)
	for i := 0; i < heavies; i++ {
		go func() {
			_, err := svc.Query(context.Background(), service.Request{Query: slowQuery, ContextDoc: "auction.xml"})
			heavyDone <- err
		}()
	}
	waitFor(t, "heavies queued behind the cap", func() bool {
		a := svc.Stats().Admission
		return a.HeavyInFlight == 1 && a.Queued == heavies-1
	})

	// While heavies queue, lights must flow: each completes well under the
	// time one heavy needs.
	for i := 0; i < 5; i++ {
		start := time.Now()
		resp, err := svc.Query(context.Background(), service.Request{
			Query: tinyQuery, ContextDoc: "auction.xml", Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatalf("light %d while heavies queued: %v", i, err)
		}
		if resp.Stats.Class != "light" {
			t.Fatalf("light %d classified %q (cost=%d)", i, resp.Stats.Class, resp.Stats.EstCost)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("light %d took %v", i, d)
		}
	}
	if q := svc.Stats().Admission.Queued; q == 0 {
		t.Log("note: heavies drained before the lights finished; bypass not exercised this run")
	}

	for i := 0; i < heavies; i++ {
		if err := <-heavyDone; err != nil {
			t.Fatalf("heavy: %v", err)
		}
	}
	waitIdle(t, svc)
	st := svc.Stats()
	if st.Classes["heavy"].Completed != heavies || st.Classes["light"].Completed != 5 {
		t.Fatalf("class counts: %+v", st.Classes)
	}
}

// TestDrainLifecycle: BeginDrain rejects new work with the draining code
// while letting admitted queries finish; Drain returns once they have.
func TestDrainLifecycle(t *testing.T) {
	svc := newSvc(t, service.Config{Engine: engine.Config{Workers: 4}})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := svc.Query(context.Background(), service.Request{Query: slowQuery, ContextDoc: "auction.xml"})
		done <- err
	}()
	<-started
	waitFor(t, "query admitted", func() bool { return svc.Stats().Admission.InFlight == 1 })

	svc.BeginDrain()
	_, err := svc.Query(context.Background(), service.Request{Query: tinyQuery, ContextDoc: "auction.xml"})
	if se := service.AsError(err); err == nil || se.Code != service.CodeDraining {
		t.Fatalf("query during drain: want CodeDraining, got %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}
	waitIdle(t, svc)
}

// TestDrainRace: queries racing BeginDrain+Drain must never trip the
// WaitGroup reuse panic, and once Drain returns nothing is executing —
// every racer was either drained to completion or rejected before it
// touched the engine. The race tier runs this under -race.
func TestDrainRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		svc := newSvc(t, service.Config{Engine: engine.Config{Workers: 2}})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, err := svc.Query(context.Background(),
					service.Request{Query: tinyQuery, ContextDoc: "auction.xml"})
				if err != nil && service.AsError(err).Code != service.CodeDraining {
					t.Errorf("racing query: %v", err)
				}
			}()
		}
		close(start)
		svc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := svc.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if n := svc.Engine().ActiveQueries(); n != 0 {
			t.Fatalf("query still executing after Drain returned: %d", n)
		}
		wg.Wait()
	}
}

// TestCompileErrorsAndCaching: bad queries 400 on every transport and the
// prepared cache counts hits across reformatted copies.
func TestCompileErrorsAndCaching(t *testing.T) {
	h := newHarness(t, 4, auctionDocs)
	if code, body := h.postJSON(t, map[string]any{"query": "for $x in", "doc": "auction.xml"}); code != http.StatusBadRequest {
		t.Fatalf("bad query: status=%d %q", code, body)
	}
	tcp := h.dialTCP(t)
	if _, err := tcp.ExecXQ("for $x in", "auction.xml"); err == nil {
		t.Fatal("bad query over TCP succeeded")
	}

	// Same query, three formattings: one prepared plan, two cache hits.
	// Normalization collapses whitespace runs (it does not remove them),
	// so these three differ only in run length and share one plan.
	variants := []string{
		"count( /site/open_auctions/open_auction )",
		"count(  /site/open_auctions/open_auction  )",
		"count(\n\t/site/open_auctions/open_auction\n)",
	}
	before := h.svc.Stats()
	for _, q := range variants {
		if code, body := h.queryText(t, q, "doc=auction.xml"); code != http.StatusOK {
			t.Fatalf("%q: status=%d %q", q, code, body)
		}
	}
	after := h.svc.Stats()
	if misses := after.Queries.CacheMisses - before.Queries.CacheMisses; misses != 1 {
		t.Errorf("cache misses for 3 formattings = %d, want 1", misses)
	}
	if hits := after.Queries.CacheHits - before.Queries.CacheHits; hits != 2 {
		t.Errorf("cache hits for 3 formattings = %d, want 2", hits)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueryPlanChecksItsLowering: a plan shipped over the wire as a MIL
// program is checked, on the lowering the engine would run, before it is
// admitted — a σ over a column the plan itself proves integer is a
// compile error, not a run.
func TestQueryPlanChecksItsLowering(t *testing.T) {
	svc := newSvc(t, service.Config{})
	lit := algebra.Lit(bat.MustTable("iter", bat.IntVec{1, 2}, "a", bat.IntVec{3, 4}))
	sel := algebra.Unchecked(algebra.OpSelect, []string{"iter", "a"}, lit)
	sel.Col = "a"
	prog, err := mil.Emit(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Query(context.Background(), service.Request{Query: prog, MIL: true})
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodeCompile || !strings.Contains(err.Error(), "as boolean") {
		t.Fatalf("MIL program (σ over an int column) = %v, want a compile error naming the type", err)
	}
}
