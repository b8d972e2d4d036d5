package service

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is returned when a query cannot even be queued: the
// admission queue is at its configured bound. The HTTP layer maps it to
// 429 Too Many Requests.
var ErrOverloaded = errors.New("service overloaded: admission queue full")

// admitter is the per-service admission controller. It enforces three
// bounds over the shared engine:
//
//   - in-flight limit: at most MaxInFlight queries execute concurrently,
//     so a traffic burst queues instead of oversubscribing the cores
//     (each query runs its plan on its own request goroutine, so the
//     requests are the only parallelism and this bound is its budget);
//   - heavy cap: at most MaxHeavy queries whose estimated cost classifies
//     them as heavy run at once, so one XMark q11 per slot cannot occupy
//     every in-flight slot while a thousand point lookups wait;
//   - cost gate: the summed EstRows-derived cost of running queries stays
//     under costBudget — the memory-estimate gate. A query costlier than
//     the whole budget is still admitted when the engine is otherwise
//     idle, so an oversized plan runs alone instead of starving
//     forever.
//
// Waiters park in arrival order; on every release the queue is scanned in
// order and every waiter whose bounds now pass is admitted. The scan
// deliberately skips blocked waiters, so a queued heavy never
// head-of-line-blocks the point lookups behind it.
type admitter struct {
	maxInFlight int
	maxHeavy    int
	maxQueue    int
	budget      int64

	mu            sync.Mutex
	inFlight      int
	heavyInFlight int
	costInUse     int64
	queue         []*waiter
}

type waiter struct {
	ch       chan struct{}
	cost     int64
	heavy    bool
	admitted bool
	canceled bool
}

func newAdmitter(maxInFlight, maxHeavy, maxQueue int, budget int64) *admitter {
	return &admitter{
		maxInFlight: maxInFlight,
		maxHeavy:    maxHeavy,
		maxQueue:    maxQueue,
		budget:      budget,
	}
}

// canAdmitLocked applies the three bounds to one candidate.
func (a *admitter) canAdmitLocked(cost int64, heavy bool) bool {
	if a.inFlight >= a.maxInFlight {
		return false
	}
	if heavy && a.heavyInFlight >= a.maxHeavy {
		return false
	}
	if a.costInUse+cost > a.budget && a.inFlight > 0 {
		return false
	}
	return true
}

func (a *admitter) admitLocked(cost int64, heavy bool) {
	a.inFlight++
	if heavy {
		a.heavyInFlight++
	}
	a.costInUse += cost
}

// Acquire blocks until the query may run, the context is done, or the
// queue bound rejects it outright. It returns the time spent queued.
func (a *admitter) Acquire(ctx context.Context, cost int64, heavy bool) (time.Duration, error) {
	a.mu.Lock()
	if a.canAdmitLocked(cost, heavy) {
		a.admitLocked(cost, heavy)
		a.mu.Unlock()
		return 0, nil
	}
	if len(a.queue) >= a.maxQueue {
		a.mu.Unlock()
		return 0, ErrOverloaded
	}
	w := &waiter{ch: make(chan struct{}), cost: cost, heavy: heavy}
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	start := time.Now() //pfvet:allow determinism -- queue-wait accounting only
	select {
	case <-w.ch:
		return time.Since(start), nil //pfvet:allow determinism -- queue-wait accounting only
	case <-ctx.Done():
		a.mu.Lock()
		if w.admitted {
			// Raced with an admit: the slot is ours, give it back.
			a.mu.Unlock()
			a.Release(cost, heavy)
			return 0, ctx.Err()
		}
		w.canceled = true
		a.removeLocked(w)
		a.mu.Unlock()
		return 0, ctx.Err()
	}
}

// Release returns a query's slots and wakes every queued waiter that now
// fits, in arrival order.
func (a *admitter) Release(cost int64, heavy bool) {
	a.mu.Lock()
	a.inFlight--
	if heavy {
		a.heavyInFlight--
	}
	a.costInUse -= cost
	a.wakeLocked()
	a.mu.Unlock()
}

func (a *admitter) wakeLocked() {
	kept := a.queue[:0]
	for _, w := range a.queue {
		if w.canceled {
			continue
		}
		if a.canAdmitLocked(w.cost, w.heavy) {
			a.admitLocked(w.cost, w.heavy)
			w.admitted = true
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	// Zero the tail so dropped waiters are collectable.
	for i := len(kept); i < len(a.queue); i++ {
		a.queue[i] = nil
	}
	a.queue = kept
}

func (a *admitter) removeLocked(w *waiter) {
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return
		}
	}
}

// snapshot reports the controller's live state for /stats.
type admissionState struct {
	InFlight      int   `json:"in_flight"`
	HeavyInFlight int   `json:"heavy_in_flight"`
	Queued        int   `json:"queued"`
	CostInUse     int64 `json:"cost_in_use"`
	CostBudget    int64 `json:"cost_budget"`
	MaxInFlight   int   `json:"max_in_flight"`
	MaxHeavy      int   `json:"max_heavy"`
	MaxQueue      int   `json:"max_queue"`
}

func (a *admitter) snapshot() admissionState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return admissionState{
		InFlight:      a.inFlight,
		HeavyInFlight: a.heavyInFlight,
		Queued:        len(a.queue),
		CostInUse:     a.costInUse,
		CostBudget:    a.budget,
		MaxInFlight:   a.maxInFlight,
		MaxHeavy:      a.maxHeavy,
		MaxQueue:      a.maxQueue,
	}
}
