package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one query or
// request share an op id; parent is the index of the span that caused it
// (-1 for the op's root span). Times are offsets from the recorder's epoch.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out (if at all) only
// when the run ends, so recording costs two clock reads and an append.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the service's
// own queue/exec accounting), placed at the start of its parent.
func (r *recorder) add(name string, op, parent int, d time.Duration) {
	r.mu.Lock()
	start := r.spans[parent].Start
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: start + d})
	r.mu.Unlock()
}

// coverage is the share of root-span time covered by child spans: one
// minus the roots' self time over their duration.
func (r *recorder) coverage() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total, covered time.Duration
	for _, s := range r.spans {
		d := s.End - s.Start
		switch {
		case s.Parent < 0:
			total += d
		case r.spans[s.Parent].Parent < 0:
			covered += d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// writeJSONLines dumps every span, one JSON object per line.
func (r *recorder) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
