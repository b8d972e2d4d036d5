package service

import (
	"sync/atomic"
	"time"
)

// classMetrics aggregates the outcomes of one admission class.
type classMetrics struct {
	completed   atomic.Int64
	rowsOut     atomic.Int64
	execNanos   atomic.Int64
	queueNanos  atomic.Int64
	maxExecNano atomic.Int64
}

func (c *classMetrics) observe(queueWait, exec time.Duration, rows int) {
	c.completed.Add(1)
	c.rowsOut.Add(int64(rows))
	c.execNanos.Add(int64(exec))
	c.queueNanos.Add(int64(queueWait))
	for {
		cur := c.maxExecNano.Load()
		if int64(exec) <= cur || c.maxExecNano.CompareAndSwap(cur, int64(exec)) {
			return
		}
	}
}

// ClassStats is the /stats rendering of one query class.
type ClassStats struct {
	Completed    int64   `json:"completed"`
	RowsOut      int64   `json:"rows_out"`
	AvgExecMs    float64 `json:"avg_exec_ms"`
	AvgQueueMs   float64 `json:"avg_queue_ms"`
	MaxExecMs    float64 `json:"max_exec_ms"`
	TotalExecSec float64 `json:"total_exec_sec"`
}

func (c *classMetrics) stats() ClassStats {
	n := c.completed.Load()
	s := ClassStats{
		Completed:    n,
		RowsOut:      c.rowsOut.Load(),
		MaxExecMs:    float64(c.maxExecNano.Load()) / 1e6,
		TotalExecSec: float64(c.execNanos.Load()) / 1e9,
	}
	if n > 0 {
		s.AvgExecMs = float64(c.execNanos.Load()) / float64(n) / 1e6
		s.AvgQueueMs = float64(c.queueNanos.Load()) / float64(n) / 1e6
	}
	return s
}

// metrics is the service-wide counter set backing /stats. Everything is
// atomic: the hot path never takes a lock for accounting.
type metrics struct {
	received      atomic.Int64
	completed     atomic.Int64
	compileErrors atomic.Int64
	execErrors    atomic.Int64
	rejected      atomic.Int64
	timeoutQueued atomic.Int64
	timeoutExec   atomic.Int64
	canceled      atomic.Int64
	drainRejected atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64

	light classMetrics
	heavy classMetrics
}

// QueryStats is the /stats rendering of the service-wide counters.
type QueryStats struct {
	Received      int64 `json:"received"`
	Completed     int64 `json:"completed"`
	CompileErrors int64 `json:"compile_errors"`
	ExecErrors    int64 `json:"exec_errors"`
	Rejected      int64 `json:"rejected"`
	TimeoutQueued int64 `json:"timeout_queued"`
	TimeoutExec   int64 `json:"timeout_exec"`
	Canceled      int64 `json:"canceled"`
	DrainRejected int64 `json:"drain_rejected"`
	CacheHits     int64 `json:"plan_cache_hits"`
	CacheMisses   int64 `json:"plan_cache_misses"`
}

// Stats is the full service snapshot surfaced on /stats.
type Stats struct {
	Queries        QueryStats            `json:"queries"`
	Classes        map[string]ClassStats `json:"classes"`
	Admission      admissionState        `json:"admission"`
	PreparedPlans  int64                 `json:"prepared_plans"`
	ActiveSessions int                   `json:"active_sessions"`
	TotalSessions  int64                 `json:"total_sessions"`
	EngineQueries  int64                 `json:"engine_active_queries"`
	Draining       bool                  `json:"draining"`
}

func (m *metrics) queryStats() QueryStats {
	return QueryStats{
		Received:      m.received.Load(),
		Completed:     m.completed.Load(),
		CompileErrors: m.compileErrors.Load(),
		ExecErrors:    m.execErrors.Load(),
		Rejected:      m.rejected.Load(),
		TimeoutQueued: m.timeoutQueued.Load(),
		TimeoutExec:   m.timeoutExec.Load(),
		Canceled:      m.canceled.Load(),
		DrainRejected: m.drainRejected.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
	}
}
