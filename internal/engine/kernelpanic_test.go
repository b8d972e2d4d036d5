package engine_test

import (
	"context"
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

	"pathfinder/internal/difftest"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// TestKernelPanicFailsQueryNotServer: kernels panic on the scheduler
// workers that run them while clients hammer the service over HTTP and
// TCP. Each panic fails its own query
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
	svc := service.New(store, service.Config{Engine: engine.Config{Workers: 4}})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	milSrv := svc.NewMILServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go milSrv.Serve(l) //nolint:errcheck — closed below
	defer milSrv.Close()

	// XMark q01–q08 plus a filter and a map.
	queries := []string{pipelineQuery}
	for n := 1; n <= 8; n++ {
		queries = append(queries, xmark.Query(n))
	}
	ref := difftest.LoadEngine(t, difftest.SeqConfig, []difftest.Doc{{URI: doc, Text: xml}})
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
	var kernels, panics atomic.Int64
	eng := svc.Engine()
	eng.SetPanicHook(func() {
		if kernels.Add(1)%97 == 0 {
			panics.Add(1)
			panic("injected")
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
	if panics.Load() == 0 {
		t.Fatal("no panic was injected")
	}
	if failed.Load() == 0 || answered.Load() == 0 {
		t.Fatalf("%d queries failed, %d answered; want some of each", failed.Load(), answered.Load())
	}
	t.Logf("%d panics; %d queries failed, %d answered", panics.Load(), failed.Load(), answered.Load())

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

// pipelineQuery is a filter and a map over a range.
const pipelineQuery = `count(for $i in 1 to 2000 where $i mod 7 = 0 return $i * 2)`

// TestKernelPanicNamesOperator: the error of a panicking kernel is a
// *KernelPanic naming the operator and its kernel, from the sequential
// runner and from a scheduler worker alike.
func TestKernelPanicNamesOperator(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  engine.Config
	}{
		{"sequential", engine.Config{Workers: 1}},
		{"scheduler", engine.Config{Workers: 4, SeqThreshold: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := engine.NewWithConfig(xenc.NewStore(), c.cfg)
			eng.SetPanicHook(func() { panic("injected") })
			_, err := runOptimized(t, pipelineQuery, eng, xqcore.Options{})
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
