package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/mil"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/service"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// The service workloads: closed-loop HTTP clients (each waits for its reply
// before sending the next request, as pfserver's callers do) against an
// in-process service behind a loopback listener.

// A "pass" of a service workload is a block of consecutive requests of one
// client. Every block has the same composition, in a seeded order, so blocks
// compare and the realised mix does not depend on how many requests fit in
// the window. A block is long enough (a quarter of a second and more) that
// each holds several collector cycles, and short enough that a run has a
// hundred of them to take the quiet decile of.
const (
	mixedBlock = 300  // 240 point, 30 heavy, 30 miss
	churnBlock = 1500 // reads; two or three PUTs fall into each
)

// hotTexts is the size of the hot point-lookup pool; with the three heavy
// texts it fits the service's default MaxPrepared of 256 several times over.
const hotTexts = 64

func lookupText(id int, conjunct string) string {
	return fmt.Sprintf(`for $b in /site/people/person where $b/@id = "person%d"%s return $b/name/text()`, id, conjunct)
}

// request is one scripted HTTP request and the outputs that count as correct.
type request struct {
	class  string
	kind   string // what op_geomean_ms weights equally: the class, or "heavy:q08"
	method string
	path   string
	body   []byte
	accept []string // PUT: nil, any 200 is correct
}

func queryRequest(class, text, collection string, accept ...string) *request {
	q := map[string]any{"query": text}
	if collection != "" {
		q["collection"] = collection
	} else {
		q["doc"] = docURI
	}
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return &request{class: class, kind: class, method: http.MethodPost, path: "/query", body: body, accept: accept}
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	lat       samples   // by request kind
	blocks    []float64 // seconds per complete block
	queue     []float64 // RequestStats.QueueMs per query
	exec      map[string][]float64
	attempted int
	failed    []string
}

func newClientLog() *clientLog { return &clientLog{lat: samples{}, exec: map[string][]float64{}} }

// front is one running service behind its loopback HTTP server.
type front struct {
	svc *service.Service
	ts  *httptest.Server
	rec *recorder // nil: tracing off
	op  atomic.Int64

	// rssAfter, when set, makes closedLoop read the resident-set high-water
	// mark into rssMB as that many requests have been served.
	rssAfter int64
	served   atomic.Int64
	rssMB    float64
}

func newFront(store *xenc.Store, cat *pfstore.Catalog, clients int) *front {
	f := &front{svc: service.New(store, service.Config{Catalog: cat})}
	f.ts = httptest.NewServer(f.svc.Handler())
	f.ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = clients + 1
	return f
}

func (f *front) close() { f.ts.Close() }

// do sends one request and times it from send to the last byte of the reply.
// Decoding and checking the reply happen after the clock stops.
func (f *front) do(r *request, log *clientLog) (reply *service.Response, d time.Duration, ok bool) {
	log.attempted++
	req, err := http.NewRequest(r.method, f.ts.URL+r.path, bytes.NewReader(r.body))
	if err != nil {
		log.failed = append(log.failed, err.Error())
		return nil, 0, false
	}
	var root, opID int
	if f.rec != nil {
		opID = int(f.op.Add(1))
		root = f.rec.begin("request:"+r.class, opID, -1)
	}
	t0 := time.Now()
	resp, err := f.ts.Client().Do(req)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d = time.Since(t0)
	if f.rec != nil {
		f.rec.end(root)
	}
	if err != nil {
		log.failed = append(log.failed, fmt.Sprintf("%s: %v", r.class, err))
		return nil, d, false
	}
	if resp.StatusCode != http.StatusOK {
		log.failed = append(log.failed, fmt.Sprintf("%s: HTTP %d: %.200s", r.class, resp.StatusCode, payload))
		return nil, d, false
	}
	if r.accept == nil {
		log.lat.add(r.kind, d)
		return nil, d, true
	}
	reply = new(service.Response)
	if err := json.Unmarshal(payload, reply); err != nil {
		log.failed = append(log.failed, fmt.Sprintf("%s: reply: %v", r.class, err))
		return nil, d, false
	}
	for _, want := range r.accept {
		ok = ok || reply.Result == want
	}
	if !ok {
		log.failed = append(log.failed, fmt.Sprintf("%s: result %.80q is not the oracle's %.80q", r.class, reply.Result, r.accept))
		return nil, d, false
	}
	log.lat.add(r.kind, d)
	log.queue = append(log.queue, reply.Stats.QueueMs)
	log.exec[r.class] = append(log.exec[r.class], reply.Stats.ExecMs)
	if f.rec != nil {
		// The service's own accounting, as children of the client span.
		f.rec.add("service.queue", opID, root, time.Duration(reply.Stats.QueueMs*float64(time.Millisecond)))
		f.rec.add("service.exec", opID, root, time.Duration(reply.Stats.ExecMs*float64(time.Millisecond)))
	}
	return reply, d, true
}

// closedLoop runs one goroutine per script until the deadline and joins them
// all. A script yields its client's next request; after the reply it is
// told what came back. A script that times blocks runs past the deadline
// until its first block is complete, so a window of any length yields one.
type script interface {
	next() *request
	done(r *request, reply *service.Response, d time.Duration, ok bool, log *clientLog)
	timesBlocks() bool
}

func (f *front) closedLoop(scripts []script, window time.Duration) []*clientLog {
	logs := make([]*clientLog, len(scripts))
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i, sc := range scripts {
		logs[i] = newClientLog()
		wg.Add(1)
		go func(sc script, log *clientLog) {
			defer wg.Done()
			for time.Now().Before(deadline) || (sc.timesBlocks() && len(log.blocks) == 0) {
				r := sc.next()
				reply, d, ok := f.do(r, log)
				sc.done(r, reply, d, ok, log)
				if f.rssAfter > 0 && f.served.Add(1) == f.rssAfter {
					f.rssMB, _ = peakRSSMB() // on error stays 0: run falls back to the value at exit
				}
			}
		}(sc, logs[i])
	}
	wg.Wait()
	return logs
}

// twoHalves is the untraced window of a service workload: two closed loops
// of half the window each, with the second group of set-ups, which leaves a
// fresh service behind, between them. It returns the merged log and the
// bytes allocated inside the loops.
func (o *outcome) twoHalves(cfg config, setup func(rep int) error, half func(window time.Duration) []*clientLog) (*clientLog, uint64, error) {
	var logs []*clientLog
	var allocBytes uint64
	for i := 0; i < 2; i++ {
		if i == 1 {
			if err := o.timeSetup(cfg, setup); err != nil {
				return nil, 0, err
			}
		}
		a0 := totalAlloc()
		logs = append(logs, half(cfg.window/2)...)
		allocBytes += totalAlloc() - a0
		if _, have := o.metrics["peak_rss_mb"]; !have {
			// The first half's mark; on error run reads the mark at exit.
			if rss, err := peakRSSMB(); err == nil {
				o.metrics["peak_rss_mb"] = rss
			}
		}
	}
	log := merged(logs)
	o.absorb(log)
	return log, allocBytes, nil
}

// alternate spends the window in eight segments, tracing every second one,
// so that drift in the host's or the server's speed falls on the traced and
// the untraced requests alike. It returns the two merged logs.
func (f *front) alternate(newScripts func() []script, window time.Duration) (traced, plain *clientLog, plainWall time.Duration, rec *recorder) {
	const segments = 8
	rec = newRecorder()
	var tracedLogs, plainLogs []*clientLog
	for seg := 0; seg < segments; seg++ {
		if seg%2 == 1 {
			f.rec = rec
		}
		t0 := time.Now()
		logs := f.closedLoop(newScripts(), window/segments)
		if f.rec != nil {
			tracedLogs = append(tracedLogs, logs...)
		} else {
			plainLogs = append(plainLogs, logs...)
			plainWall += time.Since(t0)
		}
		f.rec = nil
	}
	return merged(tracedLogs), merged(plainLogs), plainWall, rec
}

// blockTimer turns a client's request stream into per-block wall times.
type blockTimer struct {
	size  int
	n     int
	start time.Time
}

// begin is called before each request is sent, tick after its reply.
func (b *blockTimer) begin() {
	if b.n == 0 {
		b.start = time.Now()
	}
}

func (b *blockTimer) tick(log *clientLog) {
	b.n++
	if b.n == b.size {
		log.blocks = append(log.blocks, time.Since(b.start).Seconds())
		b.n = 0
	}
}

// merged folds the clients' logs into one.
func merged(logs []*clientLog) *clientLog {
	m := newClientLog()
	for _, l := range logs {
		for k, xs := range l.lat {
			m.lat[k] = append(m.lat[k], xs...)
		}
		for k, xs := range l.exec {
			m.exec[k] = append(m.exec[k], xs...)
		}
		m.blocks = append(m.blocks, l.blocks...)
		m.queue = append(m.queue, l.queue...)
		m.attempted += l.attempted
		m.failed = append(m.failed, l.failed...)
	}
	return m
}

// absorb counts the clients' attempts and failures into the outcome.
func (o *outcome) absorb(logs ...*clientLog) {
	for _, log := range logs {
		o.attempted += log.attempted
		for _, msg := range log.failed {
			o.fail("%s", msg)
		}
	}
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

// ---------------------------------------------------------------- service_mixed

// mixedScript is one client's request stream: per block 240 point lookups
// over the hot pool, 30 heavy joins (q08, q09, q10 ten times each) and 30
// lookups whose text the server has never seen.
type mixedScript struct {
	rng     *rand.Rand
	hot     []*request
	hotIDs  []int
	answers map[int]string
	heavy   []*request
	fresh   *atomic.Int64
	block   []*request
	timer   blockTimer
	flushes *flushCounter
}

func (s *mixedScript) next() *request {
	if len(s.block) == 0 {
		tenth := s.timer.size / 10
		for i := 0; i < s.timer.size-2*tenth; i++ {
			s.block = append(s.block, s.hot[s.rng.Intn(len(s.hot))])
		}
		for i := 0; i < tenth; i++ {
			s.block = append(s.block, s.heavy[i%len(s.heavy)])
			// An always-true conjunct over a literal no earlier request used:
			// normalizeQuery cannot fold it into a hot text, so the prepared
			// cache misses and the query compiles, while the answer stays
			// the one the oracle has for that person.
			id, n := s.hotIDs[s.rng.Intn(len(s.hotIDs))], s.fresh.Add(1)
			s.block = append(s.block, queryRequest("miss", lookupText(id, fmt.Sprintf(" and %d = %d", n, n)), "", s.answers[id]))
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	s.timer.begin()
	r := s.block[len(s.block)-1]
	s.block = s.block[:len(s.block)-1]
	return r
}

func (s *mixedScript) done(r *request, _ *service.Response, _ time.Duration, _ bool, log *clientLog) {
	s.timer.tick(log)
	if r.class == "miss" {
		s.flushes.observe()
	}
}

func (s *mixedScript) timesBlocks() bool { return true }

// flushCounter counts prepared-cache flushes. A flush empties a cache that
// then takes hundreds of misses to refill, so looking at its size after
// every miss cannot skip one.
type flushCounter struct {
	svc  *service.Service
	mu   sync.Mutex
	last int64
	n    int
}

func (c *flushCounter) observe() {
	now := c.svc.Stats().PreparedPlans
	c.mu.Lock()
	if now < c.last {
		c.n++
	}
	c.last = now
	c.mu.Unlock()
}

// rssRequests is the amount of work after which service_mixed reads its
// peak resident set. Fragments constructed for heavy replies stay in the
// service's store for its lifetime, so its memory grows with the requests
// served; read at the end of a fixed window, a faster server would look
// like one that needs more memory. A run too slow to get this far (the
// smoke test) reports the value at exit.
const rssRequests = 12000

type mixed struct {
	cfg     config
	doc     string
	hotIDs  []int
	answers map[int]string
	hot     []*request
	heavy   []*request
	fresh   atomic.Int64
	f       *front
	shredMs []float64
	report  xenc.StorageReport // of the freshly shredded store
}

// mix is the composition of one block, as mixedScript.next builds it.
func (w *mixed) mix() map[string]int {
	size := w.cfg.block(mixedBlock)
	tenth := size / 10
	mix := map[string]int{"point": size - 2*tenth, "miss": tenth}
	for i := 0; i < tenth; i++ {
		mix[w.heavy[i%len(w.heavy)].kind]++
	}
	return mix
}

func (w *mixed) scripts(flushes *flushCounter) []script {
	scripts := make([]script, clientCount())
	for i := range scripts {
		scripts[i] = &mixedScript{
			rng: rand.New(rand.NewSource(w.cfg.seed*1000 + int64(i))),
			hot: w.hot, hotIDs: w.hotIDs, answers: w.answers, heavy: w.heavy,
			fresh: &w.fresh, flushes: flushes, timer: blockTimer{size: w.cfg.block(mixedBlock)},
		}
	}
	return scripts
}

// setupOnce is what an operator pays before the first request is timed:
// generate and shred the document, start the service, and send every hot
// and heavy text once so the prepared-plan cache is hot.
func (w *mixed) setupOnce(int) error {
	if w.f != nil {
		w.f.close()
	}
	w.doc = xmark.GenerateString(w.cfg.smallSF())
	store := xenc.NewStore()
	t0 := time.Now()
	if _, err := store.LoadDocumentString(docURI, w.doc); err != nil {
		return err
	}
	w.shredMs = append(w.shredMs, ms(time.Since(t0)))
	w.report = store.Report()
	w.f = newFront(store, nil, clientCount())
	log := newClientLog()
	for _, r := range append(append([]*request(nil), w.hot...), w.heavy...) {
		w.f.do(r, log)
	}
	if len(log.failed) > 0 {
		return fmt.Errorf("warm-up: %s", log.failed[0])
	}
	return nil
}

func runServiceMixed(cfg config) (*outcome, error) {
	w := &mixed{cfg: cfg, answers: map[int]string{}}
	out := newOutcome()

	// Oracle and request texts: untimed, and not part of setup_s.
	t0 := time.Now()
	or, err := newOracle(xmark.GenerateString(cfg.smallSF()))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	people := xmark.CountsFor(cfg.smallSF()).People
	w.hotIDs = rng.Perm(people)[:min(hotTexts, people)]
	opts := xqcore.Options{ContextDoc: docURI}
	for _, id := range w.hotIDs {
		text := lookupText(id, "")
		if w.answers[id], err = or.answer(text, opts); err != nil {
			return nil, err
		}
		w.hot = append(w.hot, queryRequest("point", text, "", w.answers[id]))
	}
	for _, n := range []int{8, 9, 10} {
		want, err := or.answer(xmark.Query(n), opts)
		if err != nil {
			return nil, err
		}
		r := queryRequest("heavy", xmark.Query(n), "", want)
		r.kind = fmt.Sprintf("heavy:q%02d", n)
		w.heavy = append(w.heavy, r)
	}
	w.fresh.Store(cfg.seed * 1_000_000)
	out.stamp["oracle_s"] = time.Since(t0).Seconds()

	if err := out.timeSetup(cfg, w.setupOnce); err != nil {
		return nil, err
	}
	defer func() { w.f.close() }()
	out.stamp["peak_rss_excludes_setup"] = resetPeakRSS()
	out.stamp["clients"] = clientCount()

	if !cfg.trace {
		log, allocBytes, err := out.twoHalves(cfg, w.setupOnce, func(window time.Duration) []*clientLog {
			w.f.rssAfter = rssRequests
			logs := w.f.closedLoop(w.scripts(&flushCounter{svc: w.f.svc}), window)
			if _, have := out.metrics["peak_rss_mb"]; !have && w.f.rssMB > 0 {
				out.metrics["peak_rss_mb"] = w.f.rssMB
			}
			return logs
		})
		if err != nil {
			return nil, err
		}
		if err := out.endToEnd(log.lat, w.mix(), log.blocks, float64(allocBytes)/mb/float64(max(len(log.lat.all()), 1))); err != nil {
			return nil, err
		}
		return out, out.timeSetup(cfg, w.setupOnce)
	}

	flushes := &flushCounter{svc: w.f.svc}
	before := w.f.svc.Stats().Queries
	log, ref, refWall, rec := w.f.alternate(func() []script { return w.scripts(flushes) }, cfg.window)
	after := w.f.svc.Stats().Queries

	out.absorb(log, ref)
	out.asMeasured(ref.lat.all(), refWall.Seconds())
	m := out.metrics
	m["service.point_p50_ms"] = median(log.lat["point"])
	m["service.point_p95_ms"] = quantile(log.lat["point"], 0.95)
	m["service.heavy_p50_ms"] = median(log.lat.class("heavy"))
	m["service.heavy_p95_ms"] = quantile(log.lat.class("heavy"), 0.95)
	m["service.miss_p50_ms"] = median(log.lat["miss"])
	m["service.queue_ms"] = median(log.queue)
	m["service.exec_ms"] = median(log.exec["point"])
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	m["service.plan_cache_hit_rate"] = float64(hits) / float64(hits+misses)
	m["service.rejected"] = float64(after.Rejected - before.Rejected)
	m["service.cache_flushes"] = float64(flushes.n)
	m["trace.coverage"] = rec.coverage()
	m["trace.overhead_frac"] = median(log.blocks)/median(ref.blocks) - 1
	out.shredMetrics(len(w.doc), median(w.shredMs), w.report)
	// What the store holds beyond the document: fragments constructed for
	// replies, which nothing releases.
	out.stamp["store_nodes_after_window"] = w.f.svc.Engine().Store.Report().Nodes
	out.stamp["samples"] = log.lat.counts()

	// The front doors are priced on a fresh service with the old one
	// collected. A door costs mostly what it allocates, and what allocation
	// costs depends on how often the collector runs: on a heap that still
	// holds the window's constructed fragments, nearly never.
	if err := w.setupOnce(0); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := w.frontDoors(out); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		return out, rec.writeJSONLines(cfg.traceOut)
	}
	return out, nil
}

// frontDoors prices the two front doors with one client and one hot point
// query: the same text through Service.Query directly, over HTTP, and over
// the MIL TCP protocol; then MIL's own emit and parse of the XMark plans.
func (w *mixed) frontDoors(out *outcome) error {
	const trips = 500
	m := out.metrics
	hot := lookupText(w.hotIDs[0], "")
	want := w.answers[w.hotIDs[0]]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := w.f.svc.NewMILServer()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	// One trip through each door in turn: evaluation on two cores varies by a
	// third from one stretch of requests to the next, and taken in turn all
	// three doors see the same stretches.
	var directMs, httpMs, milMs []float64
	err = func() error {
		c, err := mil.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		defer c.Close()
		log := newClientLog()
		for i := 0; i < trips; i++ {
			t0 := time.Now()
			reply, err := w.f.svc.Query(context.Background(), service.Request{Query: hot, ContextDoc: docURI})
			directMs = append(directMs, ms(time.Since(t0)))
			if err != nil || reply.Result != want {
				return fmt.Errorf("direct query: %v", err)
			}
			_, d, ok := w.f.do(w.hot[0], log)
			httpMs = append(httpMs, ms(d))
			if !ok {
				return fmt.Errorf("http query: %s", log.failed[0])
			}
			t0 = time.Now()
			got, err := c.ExecXQ(hot, docURI)
			milMs = append(milMs, ms(time.Since(t0)))
			if err != nil || got != want {
				return fmt.Errorf("mil query: got %.80q: %v", got, err)
			}
		}
		return nil
	}()
	srv.Close()
	if serr := <-served; err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return err
	}
	m["service.direct_query_ms"] = median(directMs)
	m["service.http_overhead_ms"] = median(httpMs) - median(directMs)
	m["mil.xq_roundtrip_ms"] = median(milMs)
	m["mil.overhead_ms"] = median(milMs) - median(directMs)

	var emitMs, parseMs []float64
	for rep := 0; rep < 5; rep++ {
		var emit, parse time.Duration
		for _, q := range xmarkQueries(allXMark()) {
			plan, err := compilePlan(q)
			if err != nil {
				return err
			}
			t0 := time.Now()
			prog, err := mil.Emit(plan)
			emit += time.Since(t0)
			if err != nil {
				return fmt.Errorf("mil emit %s: %w", q.kind, err)
			}
			t0 = time.Now()
			_, err = mil.Parse(prog)
			parse += time.Since(t0)
			if err != nil {
				return fmt.Errorf("mil parse %s: %w", q.kind, err)
			}
		}
		emitMs, parseMs = append(emitMs, ms(emit)), append(parseMs, ms(parse))
	}
	m["mil.emit_ms"] = median(emitMs)
	m["mil.parse_ms"] = median(parseMs)
	return nil
}

// ------------------------------------------------------------------ store_churn

const churnCollection = "auction"

// churnHot is the readers' pool of point lookups: small, so that after each
// generation bump every text is re-prepared within a few requests and the
// rest of the interval between two PUTs runs on a hot cache again.
const churnHot = 8

// variantScale is how much larger the writer's second document is: enough
// for one more person, so that countText tells the generations apart.
const variantScale = 1.2

// countText tells the two document variants apart.
const countText = `count(/site/people/person)`

type churn struct {
	cfg      config
	variants [2]string         // the two documents the writer alternates
	answers  [2]map[int]string // per variant, the oracle's answer per hot id
	counts   [2]string         // per variant, the oracle's answer to countText
	hotIDs   []int
	reads    []*request
	dir      string
	f        *front
	think    time.Duration
	current  atomic.Int32 // variant of the last acknowledged PUT
}

func (w *churn) put(variant int) *request {
	return &request{class: "put", kind: fmt.Sprintf("put:%d", variant), method: http.MethodPut, path: "/collections/" + churnCollection + "?doc=" + docURI, body: []byte(w.variants[variant])}
}

// writerScript PUTs the other variant, then thinks.
type writerScript struct {
	w    *churn
	late []float64
}

func (s *writerScript) next() *request { return s.w.put(1 - int(s.w.current.Load())) }

func (s *writerScript) done(_ *request, _ *service.Response, _ time.Duration, ok bool, _ *clientLog) {
	if ok {
		s.w.current.Store(1 - s.w.current.Load())
	}
	t0 := time.Now()
	time.Sleep(s.w.think)
	s.late = append(s.late, ms(time.Since(t0)-s.w.think))
}

func (s *writerScript) timesBlocks() bool { return false }

// readerScript looks hot ids up without think time. A reply whose plan was
// not cached is the first read of that text after a generation bump.
type readerScript struct {
	w     *churn
	rng   *rand.Rand
	timer blockTimer
}

func (s *readerScript) next() *request {
	s.timer.begin()
	return s.w.reads[s.rng.Intn(len(s.w.reads))]
}

func (s *readerScript) done(_ *request, reply *service.Response, d time.Duration, ok bool, log *clientLog) {
	s.timer.tick(log)
	if ok && !reply.Stats.CachedPlan {
		log.lat.add("read_after_put", d)
	}
}

func (s *readerScript) timesBlocks() bool { return true }

// setupOnce starts from an empty catalog directory: open it, start the
// service, PUT the first variant, and read every hot text once.
func (w *churn) setupOnce(rep int) error {
	if w.f != nil {
		w.f.close()
	}
	for i, sf := range []float64{w.cfg.smallSF(), w.cfg.smallSF() * variantScale} {
		w.variants[i] = xmark.GenerateString(sf)
	}
	w.dir = filepath.Join(w.cfg.tmp, fmt.Sprintf("catalog-%d", rep))
	cat, err := pfstore.OpenCatalog(w.dir)
	if err != nil {
		return err
	}
	w.f = newFront(xenc.NewStore(), cat, clientCount())
	log := newClientLog()
	w.f.do(w.put(0), log)
	w.current.Store(0)
	for _, r := range w.reads {
		w.f.do(r, log)
	}
	if len(log.failed) > 0 {
		return fmt.Errorf("warm-up: %s", log.failed[0])
	}
	return nil
}

func runStoreChurn(cfg config) (*outcome, error) {
	w := &churn{cfg: cfg, think: 200 * time.Millisecond}
	if cfg.smoke {
		w.think = 20 * time.Millisecond
	}
	out := newOutcome()

	t0 := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	people := xmark.CountsFor(cfg.smallSF()).People
	w.hotIDs = rng.Perm(people)[:churnHot]
	opts := xqcore.Options{ContextDoc: docURI}
	for i, sf := range []float64{cfg.smallSF(), cfg.smallSF() * variantScale} {
		or, err := newOracle(xmark.GenerateString(sf))
		if err != nil {
			return nil, err
		}
		w.answers[i] = map[int]string{}
		for _, id := range w.hotIDs {
			if w.answers[i][id], err = or.answer(lookupText(id, ""), opts); err != nil {
				return nil, err
			}
		}
		if w.counts[i], err = or.answer(countText, opts); err != nil {
			return nil, err
		}
	}
	if w.counts[0] == w.counts[1] {
		return nil, fmt.Errorf("the two variants both have %s persons: the restart check could not tell them apart", w.counts[0])
	}
	for _, id := range w.hotIDs {
		// A read races the writer, so either generation's answer is correct.
		w.reads = append(w.reads, queryRequest("read", lookupText(id, ""), churnCollection, w.answers[0][id], w.answers[1][id]))
	}
	out.stamp["oracle_s"] = time.Since(t0).Seconds()

	if err := out.timeSetup(cfg, w.setupOnce); err != nil {
		return nil, err
	}
	defer func() { w.f.close() }()
	out.stamp["peak_rss_excludes_setup"] = resetPeakRSS()

	readers := max(1, clientCount()-1)
	out.stamp["clients"] = map[string]int{"writers": 1, "readers": readers}
	newScripts := func() ([]script, *writerScript) {
		writer := &writerScript{w: w}
		scripts := []script{writer}
		for i := 0; i < readers; i++ {
			scripts = append(scripts, &readerScript{w: w, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i))), timer: blockTimer{size: cfg.block(churnBlock)}})
		}
		return scripts, writer
	}

	if !cfg.trace {
		log, allocBytes, err := out.twoHalves(cfg, w.setupOnce, func(window time.Duration) []*clientLog {
			scripts, _ := newScripts()
			return w.f.closedLoop(scripts, window)
		})
		if err != nil {
			return nil, err
		}
		delete(log.lat, "read_after_put") // those requests are in "read" already
		// A pass is a reader's block; the writer's PUTs count in
		// op_geomean_ms and in the allocation.
		if err := out.endToEnd(log.lat, map[string]int{"read": cfg.block(churnBlock)}, log.blocks, float64(allocBytes)/mb/float64(max(len(log.lat.all()), 1))); err != nil {
			return nil, err
		}
		if err := w.restartCheck(out); err != nil {
			return nil, err
		}
		return out, out.timeSetup(cfg, w.setupOnce)
	}

	var writers []*writerScript
	log, ref, refWall, rec := w.f.alternate(func() []script {
		scripts, writer := newScripts()
		writers = append(writers, writer)
		return scripts
	}, cfg.window)
	delete(ref.lat, "read_after_put") // those requests are in "read" already
	out.asMeasured(ref.lat.all(), refWall.Seconds())
	var late []float64
	for _, writer := range writers {
		late = append(late, writer.late...)
	}
	out.absorb(log, ref)
	m := out.metrics
	m["service.put_p50_ms"] = median(log.lat.class("put"))
	m["service.read_p50_ms"] = median(log.lat["read"])
	m["service.read_after_put_p50_ms"] = median(log.lat["read_after_put"])
	m["service.queue_ms"] = median(log.queue)
	m["service.exec_ms"] = median(log.exec["read"])
	m["service.writer_late_ms"] = median(late)
	m["trace.coverage"] = rec.coverage()
	m["trace.overhead_frac"] = median(log.blocks)/median(ref.blocks) - 1
	out.stamp["samples"] = log.lat.counts()
	if err := w.restartCheck(out); err != nil {
		return nil, err
	}
	if err := w.storeLayer(out); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		return out, rec.writeJSONLines(cfg.traceOut)
	}
	return out, nil
}

// restartCheck reopens the catalog directory with a fresh catalog and a
// fresh service, as a restarted pfserver would, and requires the answers of
// the last generation a PUT was acknowledged for.
func (w *churn) restartCheck(out *outcome) error {
	cat, err := pfstore.OpenCatalog(w.dir)
	if err != nil {
		return err
	}
	svc := service.New(xenc.NewStore(), service.Config{Catalog: cat})
	last := int(w.current.Load())
	ask := func(text, want string) {
		out.attempted++
		reply, err := svc.Query(context.Background(), service.Request{Query: text, Collection: churnCollection})
		switch {
		case err != nil:
			out.fail("restart check: %v", err)
		case reply.Result != want:
			out.fail("restart check: %s answers %.80q, the last acknowledged generation has %.80q", text, reply.Result, want)
		}
	}
	before := out.failed
	ask(countText, w.counts[last])
	for _, id := range w.hotIDs {
		ask(lookupText(id, ""), w.answers[last][id])
	}
	out.stamp["restart_check"] = "ok"
	if out.failed > before {
		out.stamp["restart_check"] = "FAILED"
	}
	return nil
}

// storeLayer times the persistence layer directly on the big document:
// shred, save, open, catalog put and hot get, and the operator's restart
// cost: a fresh catalog plus the first query on the persisted collection.
func (w *churn) storeLayer(out *outcome) error {
	const reopenTrials = 20
	m := out.metrics
	doc := xmark.GenerateString(w.cfg.bigSF())
	store := xenc.NewStore()
	t0 := time.Now()
	if _, err := store.LoadDocumentString(docURI, doc); err != nil {
		return err
	}
	out.shredMetrics(len(doc), ms(time.Since(t0)), store.Report())

	path := filepath.Join(w.cfg.tmp, "direct.pfc")
	var saveMs, openMs []float64
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		if err := pfstore.Save(path, store, "direct", 1); err != nil {
			return err
		}
		saveMs = append(saveMs, ms(time.Since(t0)))
		t0 = time.Now()
		if _, _, err := pfstore.Open(path); err != nil {
			return err
		}
		openMs = append(openMs, ms(time.Since(t0)))
	}
	m["pfstore.save_ms"] = median(saveMs)
	m["pfstore.open_ms"] = median(openMs)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["pfstore.file_bytes"] = float64(info.Size())
	m["pfstore.stored_bytes_per_xml_byte"] = float64(info.Size()) / float64(len(doc))

	dir := filepath.Join(w.cfg.tmp, "big")
	cat, err := pfstore.OpenCatalog(dir)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := cat.Put("big", store); err != nil {
		return err
	}
	m["pfstore.catalog_put_ms"] = ms(time.Since(t0))
	var getUs []float64
	for i := 0; i < 1000; i++ {
		t0 = time.Now()
		if _, _, err := cat.Collection("big"); err != nil {
			return err
		}
		getUs = append(getUs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	m["pfstore.catalog_hot_get_us"] = median(getUs)

	or, err := newOracle(doc)
	if err != nil {
		return err
	}
	want, err := or.answer(xmark.Query(1), xqcore.Options{ContextDoc: docURI})
	if err != nil {
		return err
	}
	var reopenMs []float64
	for i := 0; i < reopenTrials; i++ {
		t0 = time.Now()
		cat, err := pfstore.OpenCatalog(dir)
		if err != nil {
			return err
		}
		svc := service.New(xenc.NewStore(), service.Config{Catalog: cat})
		reply, err := svc.Query(context.Background(), service.Request{Query: xmark.Query(1), Collection: "big"})
		reopenMs = append(reopenMs, ms(time.Since(t0)))
		out.attempted++
		if err != nil || reply.Result != want {
			out.fail("reopen trial %d: %v", i, err)
		}
	}
	m["pfstore.reopen_first_query_ms"] = median(reopenMs)
	return nil
}
