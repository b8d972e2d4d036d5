package engine_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// TestKernelPanicFailsQueryNotServer: kernels panic — on the host that
// runs them and on the goroutines of their morsel teams — while clients
// hammer the service over HTTP and TCP. Each panic fails its own query
// with a 500 naming the operator and kernel; the service keeps answering,
// the scheduler returns to idle, no goroutine is left behind, and once
// the kernels stop panicking every query answers what the reference
// engine does.
func TestKernelPanicFailsQueryNotServer(t *testing.T) {
	const doc = "xmark.xml"
	xml := xmark.GenerateString(0.002)
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString(doc, xml); err != nil {
		t.Fatal(err)
	}
	// Sixteen-row morsels split the XMark queries' steps and filters, and
	// four workers leave a kernel's host spare slots for a team.
	svc := service.New(store, service.Config{Engine: engine.Config{Workers: 4, MorselRows: 16}})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	milSrv := svc.NewMILServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go milSrv.Serve(l) //nolint:errcheck — closed below
	defer milSrv.Close()

	// XMark q01–q08 plus a filter and a map big enough to split.
	queries := []string{teamQuery}
	for n := 1; n <= 8; n++ {
		queries = append(queries, xmark.Query(n))
	}
	ref := seqEngine(t, doc, xml)
	want := make([]string, len(queries))
	for i, q := range queries {
		if want[i], err = runOptimized(t, q, ref, xqcore.Options{ContextDoc: doc}); err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
	}
	text := func(q string) (int, string) {
		resp, err := http.Post(hs.URL+"/query/text?doc="+doc, "application/xquery", strings.NewReader(q))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp.StatusCode, string(body)
	}

	goroutines := runtime.NumGoroutine()
	var kernels, hostPanics, teamPanics atomic.Int64
	eng := svc.Engine()
	eng.SetPanicHook(func(morsel int) {
		switch {
		case morsel < 0 && kernels.Add(1)%97 == 0:
			hostPanics.Add(1)
			panic("injected on the host")
		case morsel == 1:
			teamPanics.Add(1)
			panic(fmt.Sprintf("injected in morsel %d", morsel))
		}
	})

	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	var failed, answered atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tcp *mil.Client
			if c%2 == 1 {
				var err error
				if tcp, err = mil.Dial(l.Addr().String()); err != nil {
					t.Error(err)
					return
				}
				defer tcp.Close()
			}
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(queries)
				var got string
				var ok bool
				if tcp != nil {
					out, err := tcp.ExecXQ(queries[i], doc)
					got, ok = out, err == nil
					if err != nil && !strings.Contains(err.Error(), "kernel panic") {
						t.Errorf("TCP %q: %v", queries[i], err)
					}
				} else {
					code, body := text(queries[i])
					got, ok = body, code == http.StatusOK
					if !ok && (code != http.StatusInternalServerError || !strings.Contains(body, "kernel panic")) {
						t.Errorf("HTTP %q: %d %s", queries[i], code, body)
					}
				}
				if !ok {
					failed.Add(1)
					continue
				}
				answered.Add(1)
				if got != want[i] {
					t.Errorf("client %d: %q answered %q, want %q", c, queries[i], got, want[i])
				}
			}
		}(c)
	}
	wg.Wait()
	if hostPanics.Load() == 0 || teamPanics.Load() == 0 {
		t.Fatalf("panics injected: %d on hosts, %d in morsel teams; want both", hostPanics.Load(), teamPanics.Load())
	}
	if failed.Load() == 0 || answered.Load() == 0 {
		t.Fatalf("%d queries failed, %d answered; want some of each", failed.Load(), answered.Load())
	}
	t.Logf("%d host and %d morsel panics; %d queries failed, %d answered",
		hostPanics.Load(), teamPanics.Load(), failed.Load(), answered.Load())

	waitEngineIdle(t, eng)
	eng.SetPanicHook(nil)
	for i, q := range queries {
		resp, err := svc.Query(context.Background(), service.Request{Query: q, ContextDoc: doc})
		if err != nil {
			t.Fatalf("after the panics, %q: %v", q, err)
		}
		if resp.Result != want[i] {
			t.Errorf("after the panics, %q answered %q, want %q", q, resp.Result, want[i])
		}
	}
	hs.CloseClientConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the load, %d before", n, goroutines)
	}
}

// teamQuery's filter and map run on morsel teams at sixteen-row morsels.
const teamQuery = `count(for $i in 1 to 2000 where $i mod 7 = 0 return $i * 2)`

// TestKernelPanicNamesOperator: the error of a panicking kernel is a
// *KernelPanic naming the operator and its kernel, from the sequential
// runner and from a morsel team alike.
func TestKernelPanicNamesOperator(t *testing.T) {
	for _, c := range []struct {
		name   string
		panics func(morsel int) bool
		cfg    engine.Config
	}{
		{"sequential", func(m int) bool { return m < 0 }, engine.Config{Workers: 1}},
		// Every morsel past the first: some are claimed by the team.
		{"team", func(m int) bool { return m > 0 }, engine.Config{Workers: 4, MorselRows: 16, SeqThreshold: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := engine.NewWithConfig(xenc.NewStore(), c.cfg)
			eng.SetPanicHook(func(morsel int) {
				if c.panics(morsel) {
					panic("injected")
				}
			})
			_, err := runOptimized(t, teamQuery, eng, xqcore.Options{})
			kp, ok := err.(*engine.KernelPanic)
			if !ok {
				t.Fatalf("error %v (%T), want *engine.KernelPanic", err, err)
			}
			if kp.Kernel == "" || kp.Value != "injected" || !strings.Contains(err.Error(), "kernel panic: injected") {
				t.Errorf("error %q does not name its operator and kernel", err)
			}
			if eng.ActiveWorkers() != 0 || eng.ActiveQueries() != 0 {
				t.Errorf("engine not idle: %d workers, %d queries", eng.ActiveWorkers(), eng.ActiveQueries())
			}
		})
	}
}

func waitEngineIdle(t *testing.T, eng *engine.Engine) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for eng.ActiveQueries() != 0 || eng.ActiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine never returned to idle: queries=%d workers=%d", eng.ActiveQueries(), eng.ActiveWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
