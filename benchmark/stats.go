package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts a copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quiet is the quantile every end-to-end timing is reported at: the tenth of
// an operation kind's samples that went fastest. The host is a few cores of a
// shared machine. For tens of seconds at a time its neighbours take a third
// and more of the speed away, and nothing ever adds speed: the noise is
// one-sided, a median follows whichever state filled more than half of the
// run, and the quiet decile is what repeats. It needs only a few quiet
// seconds anywhere in the window, and an operation shorter than the
// scheduler's time slice often enough runs undisturbed even in a loud one.
// What it costs is in README.md, "What the quiet decile hides".
func quiet(xs []float64) float64 { return quantile(xs, 0.10) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean; every input must be positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// samples holds one latency list (in ms) per operation kind.
type samples map[string][]float64

func (s samples) add(kind string, d time.Duration) { s[kind] = append(s[kind], ms(d)) }

func (s samples) all() []float64 {
	var out []float64
	for _, xs := range s {
		out = append(out, xs...)
	}
	return out
}

// class returns the latencies of every kind in a request class: kind
// "heavy:q08" belongs to class "heavy", kind "point" to class "point".
func (s samples) class(class string) []float64 {
	var out []float64
	for kind, xs := range s {
		if kind == class || strings.HasPrefix(kind, class+":") {
			out = append(out, xs...)
		}
	}
	return out
}

// kinds lists the operation kinds in a fixed order.
func (s samples) kinds() []string {
	out := make([]string, 0, len(s))
	for kind := range s {
		out = append(out, kind)
	}
	sort.Strings(out)
	return out
}

// counts renders the sample count behind every kind for the stamp.
func (s samples) counts() map[string]int {
	out := make(map[string]int, len(s))
	for k, xs := range s {
		out[k] = len(xs)
	}
	return out
}

// totalAlloc reads the cumulative allocated bytes. ReadMemStats stops the
// world, so callers keep it outside timed regions.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeap returns the heap bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

const mb = 1 << 20

// resetPeakRSS makes peak_rss_mb cover the timed window only. Set-up grows
// the heap from nothing, and how far the collector lets it overshoot while
// doing so differs from run to run by a third (630 to 850 MB on xmark_join)
// and is never reached again afterwards. Free pages go back to the system
// and the kernel restarts the high-water mark; where it will not (no
// /proc/self/clear_refs), the mark keeps covering set-up.
func resetPeakRSS() (reset bool) {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
