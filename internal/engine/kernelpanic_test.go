package engine_test

import (
	"context"
	"errors"
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

// TestKernelPanicFailsQueryNotServer: kernels panic on the request
// goroutines that run them while clients hammer the service over HTTP
// and TCP. Each panic fails its own query with a 500 naming the operator
// and kernel; the service keeps answering, the engine returns to idle, no
// goroutine is left behind, and once the kernels stop panicking every
// query answers what the reference engine does.
func TestKernelPanicFailsQueryNotServer(t *testing.T) {
	const doc = "xmark.xml"
	xml := xmark.GenerateString(0.002)
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString(doc, xml); err != nil {
		t.Fatal(err)
	}
	svc := service.New(store, service.Config{})
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
	ref := difftest.LoadEngine(t, difftest.CheckConfig, []difftest.Doc{{URI: doc, Text: xml}})
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
// *KernelPanic naming the operator and its kernel, whether the plan's
// first kernel panics (sequential) or one in its middle (mid-plan). It
// is returned on the goroutine that called the engine, which is where
// the kernel ran; through the service the request fails with it, and the
// next request is answered.
func TestKernelPanicNamesOperator(t *testing.T) {
	want, err := runOptimized(t, pipelineQuery, engine.New(xenc.NewStore()), xqcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kernels := 0
	counting := engine.New(xenc.NewStore())
	counting.SetPanicHook(func() { kernels++ })
	if _, err := runOptimized(t, pipelineQuery, counting, xqcore.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		at   int // the kernel that panics, 1-based
	}{
		{"sequential", 1},
		{"mid-plan", kernels / 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.at < 1 || c.at >= kernels {
				t.Fatalf("test premise broken: kernel %d of %d", c.at, kernels)
			}
			caller, ranOn := goroutineID(), ""
			hook := func() func() {
				n := 0
				return func() {
					if n++; n == c.at {
						ranOn = goroutineID()
						panic("injected")
					}
				}
			}
			eng := engine.New(xenc.NewStore())
			eng.SetPanicHook(hook())
			_, err := runOptimized(t, pipelineQuery, eng, xqcore.Options{})
			kp, ok := err.(*engine.KernelPanic)
			if !ok {
				t.Fatalf("error %v (%T), want *engine.KernelPanic", err, err)
			}
			if kp.Kernel == "" || kp.Value != "injected" || !strings.Contains(err.Error(), "kernel panic: injected") {
				t.Errorf("error %q does not name its operator and kernel", err)
			}
			if ranOn != caller {
				t.Errorf("the kernel panicked on goroutine %s, the caller is %s", ranOn, caller)
			}
			if eng.ActiveQueries() != 0 {
				t.Errorf("engine not idle: %d queries", eng.ActiveQueries())
			}

			svc := service.New(xenc.NewStore(), service.Config{})
			svc.Engine().SetPanicHook(hook())
			_, err = svc.Query(context.Background(), service.Request{Query: pipelineQuery})
			if !errors.As(err, &kp) || kp.Value != "injected" {
				t.Fatalf("service error %v, want a *engine.KernelPanic", err)
			}
			resp, err := svc.Query(context.Background(), service.Request{Query: pipelineQuery})
			if err != nil {
				t.Fatalf("the next request fails: %v", err)
			}
			if resp.Result != want {
				t.Errorf("the next request answered %q, want %q", resp.Result, want)
			}
		})
	}
}

// goroutineID is the running goroutine's number, from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	f := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
	return f[1] // "goroutine N [running]:"
}

func waitEngineIdle(t *testing.T, eng *engine.Engine) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for eng.ActiveQueries() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine never returned to idle: %d queries", eng.ActiveQueries())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
