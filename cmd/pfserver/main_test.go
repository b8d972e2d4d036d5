package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pathfinder/internal/pfstore"
	"pathfinder/internal/xenc"
)

// syncBuffer is a race-safe stderr sink: run writes from its goroutine
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServer runs the server in a goroutine and waits for readiness.
func startServer(t *testing.T, args ...string) (httpAddr string, sigs chan os.Signal, done chan error, stderr *syncBuffer) {
	t.Helper()
	ready := make(chan [2]string, 1)
	testHookReady = func(tcp, http string) { ready <- [2]string{tcp, http} }
	defer func() { testHookReady = nil }()

	stderr = &syncBuffer{}
	sigs = make(chan os.Signal, 1)
	done = make(chan error, 1)
	go func() { done <- run(args, stderr, sigs) }()

	select {
	case addrs := <-ready:
		return addrs[1], sigs, done, stderr
	case err := <-done:
		t.Fatalf("server exited before ready: %v\nstderr:\n%s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("server never became ready\nstderr:\n%s", stderr.String())
	}
	return
}

func postQuery(t *testing.T, httpAddr, query string) (int, string) {
	t.Helper()
	resp, err := http.Post("http://"+httpAddr+"/query/text", "application/xquery", strings.NewReader(query))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

// TestGracefulShutdown covers the drain path: a query in flight when the
// signal arrives completes with 200, run returns nil, and the listeners
// are closed afterwards.
func TestGracefulShutdown(t *testing.T) {
	httpAddr, sigs, done, stderr := startServer(t,
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-drain-timeout", "30s")

	// A query slow enough to plausibly still be running when the signal
	// lands (cross product polled by the engine's cancellation stride).
	type result struct {
		status int
		body   string
	}
	resc := make(chan result, 1)
	go func() {
		code, body := postQuery(t, httpAddr, `count(for $x in (1 to 1200) for $y in (1 to 1200) return 1)`)
		resc <- result{code, body}
	}()
	time.Sleep(20 * time.Millisecond)
	sigs <- syscall.SIGTERM

	r := <-resc
	if r.status != http.StatusOK || strings.TrimSpace(r.body) != "1440000" {
		t.Fatalf("in-flight query during drain: status=%d body=%q", r.status, r.body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not return after signal\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shut down") {
		t.Fatalf("missing shutdown line in stderr:\n%s", stderr.String())
	}
	if _, err := http.Get("http://" + httpAddr + "/healthz"); err == nil {
		t.Fatalf("http listener still accepting after shutdown")
	}
}

// TestSnapshotRoundTrip covers the snapshot file handling: written on
// first boot after preloading as a pfstore file, restored on the second
// boot, and the restored store answers queries identically.
func TestSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "store.pfc")
	query := `count(doc("xmark.xml")/site/regions/*/item)`

	httpAddr, sigs, done, _ := startServer(t,
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-gen", "xmark.xml=0.002", "-snapshot", snap)
	code, first := postQuery(t, httpAddr, query)
	if code != http.StatusOK {
		t.Fatalf("query on fresh store: status=%d body=%q", code, first)
	}
	sigs <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}
	img, err := os.ReadFile(snap)
	if err != nil || !bytes.HasPrefix(img, []byte("PFSTORE1")) {
		t.Fatalf("snapshot not written as a pfstore file: %v", err)
	}
	if _, _, err := pfstore.OpenBytes(img); err != nil {
		t.Fatalf("pfstore refuses the snapshot: %v", err)
	}

	httpAddr, sigs, done, stderr := startServer(t,
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-snapshot", snap)
	if !strings.Contains(stderr.String(), "restored store") {
		t.Fatalf("second boot did not restore:\n%s", stderr.String())
	}
	code, second := postQuery(t, httpAddr, query)
	if code != http.StatusOK || second != first {
		t.Fatalf("restored store answered differently: status=%d %q vs %q", code, second, first)
	}
	sigs <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// TestDamagedSnapshotFailsBoot: a -snapshot file that is not a whole
// pfstore file — cut short by a crash, empty, or from before the store
// had one on-disk format — makes run return an error naming the path,
// and the file is left as it was, never preloaded over.
func TestDamagedSnapshotFailsBoot(t *testing.T) {
	dir := t.TempDir()
	store := xenc.NewStore()
	if _, err := store.LoadDocumentString("a.xml", `<a><b x="1">t</b></a>`); err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, "whole.pfc")
	if err := pfstore.Save(whole, store, "", 0); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"half.pfc":  img[:len(img)/2],
		"empty.pfc": {},
		// The head of a file the gob snapshot format wrote.
		"gob.pfsnap": []byte("5\x7f\x03\x01\x01\bsnapshot\x01\xff\x80\x00\x01\x03\x01\x05Frags\x01\xff\x86\x00"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		// A run that went on to serve would stop at this signal and
		// return nil.
		sigs := make(chan os.Signal, 1)
		sigs <- syscall.SIGTERM
		err := run([]string{"-listen", "127.0.0.1:0", "-gen", "xmark.xml=0.002", "-snapshot", path}, io.Discard, sigs)
		if err == nil || !strings.Contains(err.Error(), "restore snapshot "+path) {
			t.Errorf("%s: run returned %v, want a restore error naming the path", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, content) {
			t.Errorf("%s: the file changed under a failed boot (%v)", name, err)
		}
	}
}

// TestRunRejectsEmptyConfig pins the nothing-to-serve error.
func TestRunRejectsEmptyConfig(t *testing.T) {
	err := run([]string{"-listen", "", "-http", ""}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "nothing to serve") {
		t.Fatalf("want nothing-to-serve error, got %v", err)
	}
}
