// Command benchmark is the repository's one benchmark: five workloads over
// the whole Pathfinder stack, each measured end to end (tracing off) and
// layer by layer (tracing on), every output checked against an oracle.
// BENCHMARK.json at the repository root declares the workloads and the
// metrics; README.md in this directory says what each is for.
//
//	go run ./benchmark                         # every workload, both modes, full report
//	go run ./benchmark --workload xmark_join --seed 1 --seconds 15 --trace 0
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// run's stamp (host, pass and sample counts). Everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pathfinder/internal/xenc"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	smoke    bool   // SF 0.002 documents, for the smoke test
	root     string // repository root: BENCHMARK.json and the golden files
	tmp      string // directory for on-disk catalogs, removed by the caller
	traceOut string // write the spans here as JSON lines ("" = don't)
}

// Scale factors. The generator is deterministic per scale factor.
func (c config) bigSF() float64 {
	if c.smoke {
		return 0.002
	}
	return 0.1
}

func (c config) smallSF() float64 {
	if c.smoke {
		return 0.002
	}
	return 0.01
}

// block is the length of a service workload's block of n requests; the smoke
// test runs a tenth.
func (c config) block(n int) int {
	if c.smoke {
		return n / 10
	}
	return n
}

// setupReps is how many times in a row a run sets up: before its window,
// again halfway through it, and again after it.
const setupReps = 3

// outcome is what a workload measured.
type outcome struct {
	metrics   map[string]float64
	setups    []float64 // seconds per set-up
	attempted int
	failed    int
	stamp     map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, stamp: map[string]any{}}
}

// fail counts one failed operation (or one failed whole-run check).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

// timeSetup runs a workload's set-up setupReps times (the run then uses the
// last one) and updates setup_s: the quiet decile of every set-up timed so
// far. A run calls it before its window, halfway through and afterwards, so
// that one of the three groups falls outside a stretch in which the host is
// slow. The smoke test sets up once.
func (o *outcome) timeSetup(cfg config, once func(rep int) error) error {
	reps := setupReps
	if cfg.smoke {
		reps = 1 - len(o.setups)
	}
	for i := 0; i < reps; i++ {
		rep := len(o.setups)
		t0 := time.Now()
		if err := once(rep); err != nil {
			return err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = quiet(o.setups)
	o.stamp["setups"] = len(o.setups)
	return nil
}

// endToEnd fills the end-to-end timings every workload shares. lat holds the
// latencies of the correct operations by kind, mix how many operations of
// each kind make one pass. Each kind is priced at its quiet-decile latency;
// a pass, and the median operation of a pass, are composed from those
// prices, so they are as steady as the steadiest thing measured: one
// operation. passWallS, the passes as they actually went, is for the stamp.
func (o *outcome) endToEnd(lat samples, mix map[string]int, passWallS []float64, allocMBPerOp float64) error {
	var prices, perOp []float64
	for _, kind := range lat.kinds() {
		price := quiet(lat[kind])
		prices = append(prices, price)
		for i := 0; i < mix[kind]; i++ {
			perOp = append(perOp, price)
		}
	}
	for kind := range mix {
		if len(lat[kind]) == 0 {
			return fmt.Errorf("no %s operation succeeded", kind)
		}
	}
	m := o.metrics
	m["pass_s"] = sum(perOp) / 1000
	m["op_geomean_ms"] = geomean(prices) // q08 weighs like q11
	m["req_p50_ms"] = median(perOp)
	m["alloc_mb_per_op"] = allocMBPerOp
	o.stamp["passes"] = len(passWallS)
	o.stamp["ops_per_pass"] = len(perOp)
	o.stamp["pass_wall_s_quartiles"] = []float64{quantile(passWallS, 0.25), median(passWallS), quantile(passWallS, 0.75)}
	o.stamp["pass_wall_s_quiet"] = quiet(passWallS) // against pass_s: what pricing by operation leaves out
	o.stamp["samples"] = lat.counts()
	return nil
}

// asMeasured fills the two numbers a user of a busy host sees and a gate on
// this one cannot hold: the rate and the tail as they were over the untraced
// operations of a traced run, in the loud stretches and the quiet alike.
func (o *outcome) asMeasured(latMs []float64, wallS float64) {
	o.metrics["ops_per_s"] = float64(len(latMs)) / wallS
	o.metrics["req_p95_ms"] = quantile(latMs, 0.95)
	o.stamp["p95_samples"] = len(latMs)
}

// shredMetrics fills the xenc layer from one shredded document.
func (o *outcome) shredMetrics(xmlBytes int, shredMs float64, rep xenc.StorageReport) {
	m := o.metrics
	m["xenc.shred_ms"] = shredMs
	m["xenc.shred_mb_per_s"] = float64(xmlBytes) / 1e6 / (shredMs / 1000)
	m["xenc.nodes"] = float64(rep.Nodes)
	m["xenc.encoded_bytes_per_xml_byte"] = float64(rep.Total()) / float64(xmlBytes)
}

// metricSpec and spec mirror BENCHMARK.json, which is the one place that
// says which metrics exist, in what unit, and how far each may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// ungated are the workloads this program runs that BENCHMARK.json does not
// declare, so the full report and the smoke test have them and the driver's
// check does not. The check makes 4 + 22 runs per declared workload inside a
// fixed hour, and the host's loud stretches last half a minute: a window must
// be longer than that to hold quiet seconds every time, which the hour allows
// for three workloads. xmark_path shares its layers with xmark_join, and
// store_churn's mix of reads and writes depends on the host's speed by
// design (its writer thinks for a fixed time), so those two are the ones
// whose numbers are for paired comparisons only.
var ungated = []workloadSpec{{
	Name: "xmark_path",
	Why:  "XMark q01-q07 and q13-q20 run cold at SF 0.1: staircase, aggregation, construction and serialization do the work, the front end is a visible minority, joins do nothing",
}, {
	Name: "store_churn",
	Why:  "one writer re-PUTs a persisted collection while readers query it: shred, save, generation bumps and re-prepare beside reads, then a restart check",
}}

// all lists every workload: the declared ones, then the ungated.
func (s *spec) all() []workloadSpec {
	return append(append([]workloadSpec(nil), s.Workloads...), ungated...)
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) declared(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// run dispatches one workload and adds the process-wide measurements.
func run(cfg config) (*outcome, error) {
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "xmark_path":
		out, err = runXMark(cfg, pathQueries, 2)
	case "xmark_join":
		out, err = runXMark(cfg, joinQueries, 1)
	case "compile_only":
		out, err = runCompileOnly(cfg)
	case "service_mixed":
		out, err = runServiceMixed(cfg)
	case "store_churn":
		out, err = runStoreChurn(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if _, set := out.metrics["peak_rss_mb"]; !cfg.trace && !set {
		if out.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report turns an outcome into the result line: every declared metric of
// the mode exactly once. A workload that measured a name the spec does not
// declare, or left an end-to-end metric out, is a bug and an error; a layer
// a workload does not exercise reports 0.
func report(s *spec, trace bool, out *outcome) (*resultLine, error) {
	res := &resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range s.declared(trace) {
		v, ok := out.metrics[m.Name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		case !trace && (!ok || v <= 0):
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		known[m.Name] = true
	}
	for name := range out.metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s was measured but BENCHMARK.json does not declare it", name)
		}
	}
	return res, nil
}

// hostStamp records where and how a run was made.
func hostStamp(cfg config, out *outcome) map[string]any {
	st := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"window_s":   cfg.window.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(cfg.root),
	}
	for k, v := range out.stamp {
		st[k] = v
	}
	return st
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the result line (default: run them all)")
		seed     = flag.Int64("seed", 1, "seed for pass permutations, the request mix, the hot-id pool and the fresh-text stream")
		seconds  = flag.Float64("seconds", 0, "measuring window per run (default: run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		traceOut = flag.String("trace-out", "", "with --trace 1: write the recorded spans to this file as JSON lines")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	// The isolation every number is taken under: at most four cores, the
	// default collector setting.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(s.RunSeconds)
	}
	window := time.Duration(*seconds * float64(time.Second))

	if *workload == "" {
		os.Exit(runAll(s, root, *seed, *seconds))
	}

	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fatal(err)
	}
	cfg := config{
		workload: *workload, seed: *seed, window: window, trace: *trace != 0,
		root: root, tmp: tmp, traceOut: *traceOut,
	}
	out, err := run(cfg)
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	res, err := report(s, cfg.trace, out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(hostStamp(cfg, out)); err != nil {
		fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}
