package service_test

// Regression tests for the two raw-error boundary leaks pfvet's errclass
// analyzer found: Collections forwarded the catalog's os error verbatim,
// and Drain returned a bare ctx.Err(). Both must come back as *Error so
// the HTTP layer maps them onto the documented status contract.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathfinder/internal/pfstore"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
)

// TestCollectionsErrorClassified: a failing catalog list crosses the
// boundary as a classified exec error, not a raw *fs.PathError.
func TestCollectionsErrorClassified(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(xenc.NewStore(), service.Config{
		Catalog: cat,
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Collections()
	if err == nil {
		t.Fatal("Collections over a removed catalog dir must fail")
	}
	var se *service.Error
	if !errors.As(err, &se) {
		t.Fatalf("Collections error is not a *service.Error: %T %v", err, err)
	}
	if se.Code != service.CodeExec {
		t.Errorf("Collections error code = %q, want %q", se.Code, service.CodeExec)
	}
}

// TestDrainTimeoutClassified: a drain that outlives its context reports a
// classified cancellation, and errors.Is still sees the cause.
func TestDrainTimeoutClassified(t *testing.T) {
	svc := newSvc(t, service.Config{})
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
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err := svc.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("Drain must fail while a query is still in flight")
	}
	var se *service.Error
	if !errors.As(err, &se) {
		t.Fatalf("Drain error is not a *service.Error: %T %v", err, err)
	}
	if se.Code != service.CodeCanceled {
		t.Errorf("Drain error code = %q, want %q", se.Code, service.CodeCanceled)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain error must unwrap to the context cause, got %v", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := svc.Drain(ctx2); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}
	waitIdle(t, svc)
}
