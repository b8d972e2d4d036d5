// Package service turns the embedded engine into a multi-tenant query
// service: the §4 front-end/back-end setup grown into a front door.
// Concurrent sessions (HTTP and the MIL TCP protocol) share one engine
// and document store; every query — XQuery text, or a MIL program shipped
// over TCP — passes a prepared-statement cache that owns each lowered
// plan, then per-query admission control — a
// bounded in-flight count plus a memory-estimate gate derived from the
// physical plan's EstRows — before it reaches the evaluator. Timeouts,
// client disconnects, and server drain all propagate through the
// engine's existing context threading, so a query that loses its client
// releases its workers mid-operator instead of running to completion.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/algebra"
	"pathfinder/internal/check"
	"pathfinder/internal/core"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
	"pathfinder/internal/opt"
	"pathfinder/internal/pfstore"
	"pathfinder/internal/physical"
	"pathfinder/internal/serialize"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xqcore"
)

// Config sizes the service. The zero value gets sane production defaults
// from (*Config).withDefaults; tests pin explicit small numbers.
type Config struct {
	// Engine is the evaluator configuration (runtime checks); passed
	// through to engine.NewWithConfig.
	Engine engine.Config

	// Catalog, when set, backs named collections: queries may address
	// collections by name, and the /collections HTTP endpoints persist and
	// drop them. Nil disables both (requests naming a collection fail with
	// CodeNotFound).
	Catalog *pfstore.Catalog

	// MaxInFlight bounds concurrently executing queries. 0 = 8.
	MaxInFlight int
	// MaxHeavy bounds concurrently executing heavy-class queries.
	// 0 = max(1, MaxInFlight/4).
	MaxHeavy int
	// MaxQueue bounds queries waiting for admission; beyond it requests
	// are rejected with ErrOverloaded (HTTP 429). 0 = 8*MaxInFlight.
	MaxQueue int
	// HeavyCost classifies plans: estimated cost at or above it makes a
	// query heavy-class. 0 = costBudget/4, calibrated so the XMark point
	// lookups (~600K cost units at unknownRows) stay light while the join
	// queries (q8–q10: 1.8M–4M) classify heavy.
	HeavyCost int64

	// MaxPrepared bounds the prepared-plan cache (query texts and MIL
	// programs alike); when full, it is flushed. 0 = 256.
	MaxPrepared int
	// DefaultTimeout bounds queries that do not request a timeout; they
	// may request up to maxTimeout. 0 = 30s.
	DefaultTimeout time.Duration
}

const (
	// costBudget is the admission memory gate: the summed EstCost of
	// running queries stays under it (one query may exceed it alone).
	costBudget = 4 << 20
	// unknownRows is the cost charged per unknown-cardinality operator
	// when pricing a plan (physical.Plan.EstCost).
	unknownRows = 16384
	// maxTimeout caps the timeout a request may ask for.
	maxTimeout = 2 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxHeavy <= 0 {
		c.MaxHeavy = c.MaxInFlight / 4
		if c.MaxHeavy < 1 {
			c.MaxHeavy = 1
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8 * c.MaxInFlight
	}
	if c.HeavyCost <= 0 {
		c.HeavyCost = costBudget / 4
	}
	if c.MaxPrepared <= 0 {
		c.MaxPrepared = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	return c
}

// Code classifies a service error; the HTTP layer maps each code to a
// documented status (see Handler).
type Code string

const (
	CodeCompile    Code = "compile"    // parse/normalize/compile/validate failure → 400
	CodeNotFound   Code = "not_found"  // named collection does not exist → 404
	CodeOverloaded Code = "overloaded" // rejected: admission queue full → 429
	CodeTimeout    Code = "timeout"    // per-request deadline exceeded → 504
	CodeCanceled   Code = "canceled"   // client went away → 499
	CodeDraining   Code = "draining"   // server shutting down → 503
	CodeExec       Code = "exec"       // runtime evaluation failure → 500
)

// Error is a classified service failure. Stage records where the query
// died: "queued" (still waiting for admission) or "exec" (running).
type Error struct {
	Code  Code
	Stage string
	Err   error
}

func (e *Error) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("%s (%s): %v", e.Code, e.Stage, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Code, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// AsError extracts a *Error from err, or wraps it as CodeExec.
func AsError(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	return &Error{Code: CodeExec, Err: err}
}

// Request is one query submission.
type Request struct {
	Query      string        // XQuery source text, or a MIL program when MIL is set
	MIL        bool          // Query is a MIL program (the TCP MIL command): parsed, not compiled
	Collection string        // named catalog collection to evaluate against ("" = the default store)
	ContextDoc string        // document bound to absolute paths ("" = require fn:doc)
	Timeout    time.Duration // 0 = Config.DefaultTimeout; capped at maxTimeout
	Explain    bool          // collect per-kernel counts (traced evaluation)
	Session    *Session      // accounting session; nil = anonymous
}

// planKey identifies a prepared plan: the query text — normalized for
// XQuery, verbatim for a MIL program — plus the identity of the data it
// was compiled against. Collection identity includes the store
// generation, so republishing a collection changes the key and cached
// plans for the old content miss naturally. The zero Generation is the
// anonymous (non-catalog) store.
type planKey struct {
	Query      string
	MIL        bool
	Collection string
	Generation uint64
	ContextDoc string
}

// key derives the prepared-plan cache key for this request against the
// given collection generation. XQuery text is whitespace-normalized so
// textual variants share one entry; a MIL program is a plan already and
// keys as shipped.
func (r Request) key(generation uint64) planKey {
	k := planKey{Query: r.Query, MIL: r.MIL, Collection: r.Collection, Generation: generation}
	if !r.MIL {
		k.Query = normalizeQuery(r.Query)
	}
	if r.Collection == "" {
		k.ContextDoc = r.ContextDoc
	}
	return k
}

// RequestStats is the per-request accounting returned with every result.
type RequestStats struct {
	QueueMs    float64        `json:"queue_ms"`
	ExecMs     float64        `json:"exec_ms"`
	Rows       int            `json:"rows"`
	PlanOps    int            `json:"plan_ops"`
	EstCost    int64          `json:"est_cost"`
	Class      string         `json:"class"` // "light" | "heavy"
	CachedPlan bool           `json:"cached_plan"`
	RowsMat    int            `json:"rows_materialized,omitempty"`
	Kernels    map[string]int `json:"kernels,omitempty"`
}

// Response is a successful execution: the serialized result plus its
// accounting.
type Response struct {
	Result string       `json:"result"`
	Stats  RequestStats `json:"stats"`
}

// prepared is one cache entry and the only owner of its plan: the
// lowered, validated physical plan every request for the key runs, and
// its admission price. The once-guard makes concurrent first requests
// for the same key compile it exactly once. Dropping the entry drops the
// plan; a request already holding it finishes on it.
type prepared struct {
	once  sync.Once
	plan  *physical.Plan
	cost  int64
	heavy bool
	err   error
}

// Service is the multi-tenant query front door over one engine.
type Service struct {
	cfg Config
	eng *engine.Engine
	cat *pfstore.Catalog
	adm *admitter
	met metrics

	// catMu serializes collection mutations (PUT/DELETE): each Put is a
	// clone-modify-publish sequence, and two concurrent Puts of the same
	// collection could otherwise both clone the same base and lose one
	// document.
	catMu sync.Mutex

	preparedMu sync.Mutex
	prepared   map[planKey]*prepared // request-derived key → entry; bounded by MaxPrepared

	// drainMu orders the draining flag against inFlight.Add: begin()
	// holds it while registering work, BeginDrain while flipping the
	// flag, so no Add can start once a drain has begun — the WaitGroup
	// reuse rule ("Add must not race a Wait from zero") stays satisfied
	// and no query slips in after Drain reports completion.
	drainMu  sync.Mutex
	draining atomic.Bool
	inFlight sync.WaitGroup // tracks admitted work for Drain

	sessMu    sync.Mutex
	sessions  map[int64]*Session
	sessNext  atomic.Int64
	sessTotal atomic.Int64
}

// New builds a service over a fresh engine on the given store.
func New(store *xenc.Store, cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Catalog != nil && cfg.Engine.Catalog == nil {
		cfg.Engine.Catalog = cfg.Catalog
	}
	return &Service{
		cfg:      cfg,
		eng:      engine.NewWithConfig(store, cfg.Engine),
		cat:      cfg.Catalog,
		adm:      newAdmitter(cfg.MaxInFlight, cfg.MaxHeavy, cfg.MaxQueue, costBudget),
		prepared: map[planKey]*prepared{},
		sessions: map[int64]*Session{},
	}
}

// Engine exposes the underlying engine for preloading documents and for
// the tests' idle assertions.
func (s *Service) Engine() *engine.Engine { return s.eng }

// Session is one client's accounting scope: a TCP connection, or HTTP
// requests sharing an X-PF-Session header.
type Session struct {
	ID        int64     `json:"id"`
	Transport string    `json:"transport"`
	Started   time.Time `json:"started"`
	Queries   int64     `json:"queries"` // updated via atomic
}

// OpenSession registers a new session.
func (s *Service) OpenSession(transport string) *Session {
	sess := &Session{
		ID:        s.sessNext.Add(1),
		Transport: transport,
		Started:   time.Now(), //pfvet:allow determinism -- session accounting only
	}
	s.sessTotal.Add(1)
	s.sessMu.Lock()
	s.sessions[sess.ID] = sess
	s.sessMu.Unlock()
	return sess
}

// CloseSession unregisters a session.
func (s *Service) CloseSession(sess *Session) {
	if sess == nil {
		return
	}
	s.sessMu.Lock()
	delete(s.sessions, sess.ID)
	s.sessMu.Unlock()
}

// normalizeQuery collapses insignificant whitespace so trivially
// reformatted copies of one query share a prepared plan. It scans
// XQuery-aware: string literals keep their content exactly (including
// ""/” doubled-quote escapes), (: :) comments collapse to a single
// separator, and anything it cannot scan confidently falls back to the
// raw source text — in particular any '<', because a direct element
// constructor's content has significant whitespace (<a>x  y</a> differs
// from <a>x y</a>) and telling the constructor from the lt operator
// takes a parser. The fallback trades cache sharing for correctness:
// distinct queries must never share a key.
func normalizeQuery(src string) string {
	runes := []rune(src)
	var sb strings.Builder
	sb.Grow(len(src))
	space := false
	pad := func() {
		if space && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		space = false
	}
	for i := 0; i < len(runes); i++ {
		switch r := runes[i]; r {
		case ' ', '\t', '\n', '\r':
			space = true
		case '<':
			return src // possible direct constructor: don't normalize
		case '"', '\'':
			pad()
			sb.WriteRune(r)
			i++
			for {
				if i >= len(runes) {
					return src // unterminated literal
				}
				c := runes[i]
				sb.WriteRune(c)
				if c == r {
					if i+1 < len(runes) && runes[i+1] == r {
						// Doubled-quote escape: still inside the literal.
						sb.WriteRune(r)
						i += 2
						continue
					}
					break
				}
				i++
			}
		case '(':
			if i+1 < len(runes) && runes[i+1] == ':' {
				depth := 1
				i += 2
				for ; i < len(runes); i++ {
					if runes[i] == '(' && i+1 < len(runes) && runes[i+1] == ':' {
						depth++
						i++
					} else if runes[i] == ':' && i+1 < len(runes) && runes[i+1] == ')' {
						depth--
						i++
						if depth == 0 {
							break
						}
					}
				}
				if depth != 0 {
					return src // unterminated comment
				}
				space = true // a comment separates tokens like whitespace
				continue
			}
			pad()
			sb.WriteRune(r)
		default:
			pad()
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// prepare resolves a request to its cached plan, compiling (or, for a
// MIL program, parsing), statically validating, lowering and pricing it
// on first use. The cache is bounded: at MaxPrepared entries it is
// flushed, and compile failures are never kept, so arbitrary garbage
// input cannot grow the cache.
func (s *Service) prepare(req Request, generation uint64) (*prepared, bool, error) {
	// The key carries the collection's identity — name and store
	// generation — so re-persisting a collection naturally misses the
	// cache.
	key := req.key(generation)
	s.preparedMu.Lock()
	p, hit := s.prepared[key]
	if !hit {
		if len(s.prepared) >= s.cfg.MaxPrepared {
			// A workload that overflows the cap has no reuse worth
			// preserving; requests holding a flushed entry still run it.
			clear(s.prepared)
		}
		p = &prepared{}
		s.prepared[key] = p
	}
	s.preparedMu.Unlock()
	p.once.Do(func() {
		plan, err := compile(req)
		if err != nil {
			p.err = err
			return
		}
		lowered := physical.Lower(plan)
		if p.err = check.Error(check.Lowered(lowered)); p.err != nil {
			return
		}
		p.plan = lowered
		p.cost = lowered.EstCost(unknownRows)
		p.heavy = p.cost >= s.cfg.HeavyCost
	})
	if p.err != nil {
		// Don't negative-cache: drop the entry so failed compiles of
		// unbounded distinct garbage occupy no cache slot. Concurrent
		// waiters parked on the same entry still observe the error.
		s.preparedMu.Lock()
		if s.prepared[key] == p {
			delete(s.prepared, key)
		}
		s.preparedMu.Unlock()
		return nil, hit, p.err
	}
	return p, hit, nil
}

// compile turns a request's text into an optimized logical plan: a MIL
// program is parsed (it was optimized where it was emitted), XQuery is
// compiled and optimized.
func compile(req Request) (*algebra.Op, error) {
	if req.MIL {
		return mil.Parse(req.Query)
	}
	plan, _, err := core.CompileQuery(req.Query, xqcore.Options{ContextDoc: req.ContextDoc, Collection: req.Collection})
	if err != nil {
		return nil, err
	}
	return opt.Optimize(plan)
}

// Query runs one request end to end: resolve the collection → prepare →
// admit → evaluate → serialize. All failures return a classified *Error.
func (s *Service) Query(ctx context.Context, req Request) (*Response, error) {
	s.met.received.Add(1)
	if !s.begin() {
		s.met.drainRejected.Add(1)
		return nil, &Error{Code: CodeDraining, Err: errors.New("server is draining")}
	}
	defer s.inFlight.Done()

	// Bind the evaluation to its collection's store snapshot up front: the
	// view pins one generation for the whole request, so a concurrent
	// re-persist cannot swap the store mid-query.
	view, gen, err := s.eng.ForCollection(req.Collection)
	if err != nil {
		s.met.compileErrors.Add(1)
		// Absent collection (or no catalog at all) is the client's 404;
		// anything else — checksum mismatch, unsupported version, I/O
		// fault opening a damaged file — is a server-side failure.
		if errors.Is(err, pfstore.ErrNotFound) || s.cat == nil {
			return nil, &Error{Code: CodeNotFound, Err: err}
		}
		return nil, &Error{Code: CodeExec, Err: err}
	}

	p, hit, err := s.prepare(req, gen)
	if err != nil {
		s.met.compileErrors.Add(1)
		return nil, &Error{Code: CodeCompile, Err: err}
	}
	if hit {
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
	}
	return s.run(ctx, view, p, hit, req)
}

// run is the back half of Query: clamp the timeout, pass admission,
// evaluate the prepared plan on view (the engine bound to the request's
// collection), serialize, account.
func (s *Service) run(ctx context.Context, view *engine.Engine, p *prepared, cached bool, req Request) (*Response, error) {
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > maxTimeout {
		timeout = maxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	queueWait, err := s.adm.Acquire(ctx, p.cost, p.heavy)
	if err != nil {
		return nil, s.classifyAdmission(err)
	}
	defer s.adm.Release(p.cost, p.heavy)

	// The request evaluates against a scratch view of its store: what its
	// constructors build lives until the reply is serialized, and the
	// shared store never grows.
	eng := view.ForStore(view.Store.Scratch(), view.Collection)
	start := time.Now() //pfvet:allow determinism -- latency accounting only
	res, tr, err := eng.EvalPlan(ctx, p.plan, req.Explain)
	exec := time.Since(start) //pfvet:allow determinism -- latency accounting only
	if err != nil {
		return nil, s.classifyExec(ctx, err)
	}
	var (
		kernels map[string]int
		rowsMat int
	)
	if tr != nil {
		kernels = map[string]int{}
		for _, st := range tr.Stats {
			if st.Kernel != "" {
				kernels[st.Kernel]++
			}
			rowsMat += st.RowsMat
		}
	}
	out, err := serialize.Result(eng.Store, res)
	if err != nil {
		s.met.execErrors.Add(1)
		return nil, &Error{Code: CodeExec, Err: err}
	}

	s.met.completed.Add(1)
	cm := &s.met.light
	class := "light"
	if p.heavy {
		cm, class = &s.met.heavy, "heavy"
	}
	cm.observe(queueWait, exec, res.Rows())
	if req.Session != nil {
		atomic.AddInt64(&req.Session.Queries, 1)
	}

	return &Response{
		Result: out,
		Stats: RequestStats{
			QueueMs:    float64(queueWait.Microseconds()) / 1000,
			ExecMs:     float64(exec.Microseconds()) / 1000,
			Rows:       res.Rows(),
			PlanOps:    len(p.plan.Nodes),
			EstCost:    p.cost,
			Class:      class,
			CachedPlan: cached,
			RowsMat:    rowsMat,
			Kernels:    kernels,
		},
	}, nil
}

// classifyAdmission maps an Acquire failure: queue-full is a rejection,
// a dead context while queued is a queued-stage timeout or cancellation.
func (s *Service) classifyAdmission(err error) *Error {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.met.rejected.Add(1)
		return &Error{Code: CodeOverloaded, Stage: "queued", Err: err}
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeoutQueued.Add(1)
		return &Error{Code: CodeTimeout, Stage: "queued", Err: err}
	default:
		s.met.canceled.Add(1)
		return &Error{Code: CodeCanceled, Stage: "queued", Err: err}
	}
}

// classifyExec maps an evaluation failure. The engine wraps context
// errors in operator context, so the live ctx disambiguates deadline
// from disconnect.
func (s *Service) classifyExec(ctx context.Context, err error) *Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.met.timeoutExec.Add(1)
		return &Error{Code: CodeTimeout, Stage: "exec", Err: err}
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		s.met.canceled.Add(1)
		return &Error{Code: CodeCanceled, Stage: "exec", Err: err}
	default:
		s.met.execErrors.Add(1)
		return &Error{Code: CodeExec, Stage: "exec", Err: err}
	}
}

// Stats snapshots the service for /stats.
func (s *Service) Stats() Stats {
	s.sessMu.Lock()
	active := len(s.sessions)
	s.sessMu.Unlock()
	return Stats{
		Queries: s.met.queryStats(),
		Classes: map[string]ClassStats{
			"light": s.met.light.stats(),
			"heavy": s.met.heavy.stats(),
		},
		Admission:      s.adm.snapshot(),
		PreparedPlans:  s.preparedCount(),
		ActiveSessions: active,
		TotalSessions:  s.sessTotal.Load(),
		EngineQueries:  s.eng.ActiveQueries(),
		Draining:       s.draining.Load(),
	}
}

// preparedCount is the prepared-plan cache's size: entries settled or
// still compiling (a failed compile leaves as soon as it settles).
func (s *Service) preparedCount() int64 {
	s.preparedMu.Lock()
	defer s.preparedMu.Unlock()
	return int64(len(s.prepared))
}

// begin registers one query with the drain WaitGroup, refusing if a
// drain has begun. drainMu makes the flag check and the Add atomic with
// respect to BeginDrain — see the field comment.
func (s *Service) begin() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inFlight.Add(1)
	return true
}

// BeginDrain flips the service into drain mode: new queries are rejected
// with CodeDraining while admitted ones run to completion. After it
// returns, no new query can register with the drain WaitGroup.
func (s *Service) BeginDrain() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
}

// Draining reports whether the service is shutting down.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain waits until every in-flight query has finished or the context
// expires. Callers flip BeginDrain first.
func (s *Service) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return &Error{Code: CodeCanceled, Stage: "drain", Err: ctx.Err()}
	}
}
