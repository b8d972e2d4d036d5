// Command pfserver is the production face of the engine: the §4
// front-end/back-end demonstration setup grown into a multi-tenant query
// service. One process owns one document store and serves it over two
// front doors sharing one admission-controlled engine:
//
//   - a MIL TCP listener (-listen) speaking the line-framed protocol
//     (LOAD/GEN/MIL/XQ/STORAGE/QUIT) for pfshell and plan-shipping
//     clients, and
//   - an HTTP listener (-http) with JSON and plain-text query endpoints
//     plus /stats and /healthz (see internal/service.Handler for the
//     status-code contract).
//
// SIGINT/SIGTERM drain gracefully: new queries are rejected with 503
// while in-flight ones run to completion (bounded by -drain-timeout),
// then the listeners close.
//
// Usage:
//
//	pfserver -listen :4242 -http :8042
//	pfserver -http :8042 -gen xmark.xml=0.01     # preload an XMark instance
//	pfserver -http :8042 -snapshot store.pfc     # persist/restore the store (a pfstore file)
//	pfserver -http :8042 -store ./collections    # persistent named collections
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pathfinder/internal/pfstore"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, sigs); err != nil {
		fmt.Fprintf(os.Stderr, "pfserver: %v\n", err)
		os.Exit(1)
	}
}

// testHookReady, when set, receives the bound listener addresses once both
// front doors are serving — the graceful-shutdown test uses it instead of
// scraping stderr. The smoke script scrapes the stderr lines.
var testHookReady func(tcpAddr, httpAddr string)

// run is main minus process concerns: flags in, classified error out,
// shutdown driven by whatever delivers on sigs. Tests call it directly
// with their own signal channel.
func run(args []string, stderr io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("pfserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen       = fs.String("listen", "127.0.0.1:4242", "MIL TCP address to listen on (empty disables)")
		httpAddr     = fs.String("http", "", "HTTP address to listen on (empty disables)")
		gen          = fs.String("gen", "", "preload a generated instance: uri=sf (e.g. xmark.xml=0.01)")
		load         = fs.String("load", "", "preload a document from disk: uri=path")
		snapshot     = fs.String("snapshot", "", "persisted store (a pfstore .pfc file): restored when the file exists, written after preloading otherwise")
		storeDir     = fs.String("store", "", "persistent collection catalog directory: enables named collections and the /collections endpoints")
		maxInFlight  = fs.Int("max-inflight", 0, "admission bound on concurrently executing queries (0 = service default)")
		maxQueue     = fs.Int("max-queue", 0, "admission queue bound; beyond it queries get 429 (0 = service default)")
		reqTimeout   = fs.Duration("request-timeout", 0, "default per-query timeout (0 = service default)")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight queries")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" && *httpAddr == "" {
		return errors.New("nothing to serve: both -listen and -http are empty")
	}

	store, err := restoreSnapshot(*snapshot, stderr)
	if err != nil {
		return err
	}
	if store == nil {
		store = xenc.NewStore()
		if err := preload(store, *gen, *load, stderr); err != nil {
			return err
		}
		if *snapshot != "" {
			if err := pfstore.Save(*snapshot, store, "", 0); err != nil {
				return fmt.Errorf("write snapshot: %w", err)
			}
			fmt.Fprintf(stderr, "pfserver: wrote snapshot %s\n", *snapshot)
		}
	}

	var cat *pfstore.Catalog
	if *storeDir != "" {
		if cat, err = pfstore.OpenCatalog(*storeDir); err != nil {
			return err
		}
		if infos, err := cat.List(); err == nil && len(infos) > 0 {
			names := make([]string, len(infos))
			for i, info := range infos {
				names[i] = info.Name
			}
			fmt.Fprintf(stderr, "pfserver: catalog %s: %d collection(s): %s\n",
				*storeDir, len(infos), strings.Join(names, ", "))
		}
	}

	svc := service.New(store, service.Config{
		Catalog:        cat,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *reqTimeout,
	})

	// Both front doors up before the readiness lines print.
	errc := make(chan error, 2)
	var tcpAddr, httpBound string
	milSrv := svc.NewMILServer()
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		tcpAddr = l.Addr().String()
		go func() { errc <- milSrv.Serve(l) }()
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		l, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			milSrv.Close()
			return err
		}
		httpBound = l.Addr().String()
		httpSrv = &http.Server{Handler: svc.Handler()}
		go func() {
			if err := httpSrv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- err
				return
			}
			errc <- nil
		}()
	}
	if tcpAddr != "" {
		fmt.Fprintf(stderr, "pfserver: listening on %s\n", tcpAddr)
	}
	if httpBound != "" {
		fmt.Fprintf(stderr, "pfserver: http on %s\n", httpBound)
	}
	if testHookReady != nil {
		testHookReady(tcpAddr, httpBound)
	}

	select {
	case sig := <-sigs:
		fmt.Fprintf(stderr, "pfserver: %v: draining\n", sig)
		svc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if httpSrv != nil {
			// Shutdown stops accepting and waits for active handlers —
			// which svc.Drain below also covers; the ctx bounds both.
			httpSrv.Shutdown(ctx) //nolint:errcheck — drain timeout is reported below
		}
		if err := svc.Drain(ctx); err != nil {
			fmt.Fprintf(stderr, "pfserver: drain timed out, aborting in-flight queries\n")
		}
		milSrv.Close()
		fmt.Fprintf(stderr, "pfserver: shut down\n")
		return nil
	case err := <-errc:
		milSrv.Close()
		return err
	}
}

// restoreSnapshot opens the pfstore file at path; it returns a nil store
// when path is empty or names no file.
func restoreSnapshot(path string, stderr io.Writer) (*xenc.Store, error) {
	if path == "" {
		return nil, nil
	}
	store, _, err := pfstore.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("restore snapshot %s: %w", path, err)
	}
	fmt.Fprintf(stderr, "pfserver: restored store from %s (%d fragments)\n", path, store.FragCount())
	return store, nil
}

// preload applies -gen and -load to a fresh store.
func preload(store *xenc.Store, gen, load string, stderr io.Writer) error {
	if gen != "" {
		uri, sfStr, ok := strings.Cut(gen, "=")
		if !ok {
			return fmt.Errorf("bad -gen %q (want uri=sf)", gen)
		}
		sf, err := strconv.ParseFloat(sfStr, 64)
		if err != nil || sf <= 0 {
			return fmt.Errorf("bad scale factor %q", sfStr)
		}
		doc := xmark.GenerateString(sf)
		if _, err := store.LoadDocumentString(uri, doc); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		fmt.Fprintf(stderr, "pfserver: preloaded %s (%d bytes, sf=%g)\n", uri, len(doc), sf)
	}
	if load != "" {
		uri, path, ok := strings.Cut(load, "=")
		if !ok {
			return fmt.Errorf("bad -load %q (want uri=path)", load)
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		defer f.Close()
		if _, err := store.LoadDocument(uri, f); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		fmt.Fprintf(stderr, "pfserver: preloaded %s from %s\n", uri, path)
	}
	return nil
}
