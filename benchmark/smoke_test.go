package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload, declared in BENCHMARK.json or not, in both
// modes, on SF 0.002 documents with a short window and in this process. It checks
// that the benchmark and its declaration agree and that the workloads
// compute correct answers; it measures nothing worth keeping.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("BENCHMARK.json declares %s twice", m.Name)
		}
		seen[m.Name] = true
	}

	// smoke runs one workload in one mode; report fails on a declared metric
	// that is missing or not finite and on a measured one that is not declared.
	smoke := func(t *testing.T, workload string, trace bool) map[string]metricValue {
		t.Helper()
		cfg := config{
			workload: workload, seed: 1, window: 300 * time.Millisecond, trace: trace,
			smoke: true, root: root, tmp: t.TempDir(),
		}
		out, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := report(s, trace, out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		return res.Metrics
	}

	// Counts that must not change between two invocations of one build.
	exact := map[string][]string{
		"compile_only": {"core.ops", "core.equi_joins", "core.theta_joins", "opt.ops_out", "opt.rewrites", "physical.nodes", "physical.breakers", "physical.chains"},
		"store_churn":  {"pfstore.stored_bytes_per_xml_byte", "pfstore.file_bytes", "xenc.nodes"},
	}
	// What tells the workloads apart: the layers each must, or must not, use.
	busy := map[string][]string{
		"xmark_path":    {"engine.eval_ms", "engine.staircase_ms", "serialize.bytes_out", "xenc.shred_ms"},
		"xmark_join":    {"engine.eval_ms", "engine.product_ms", "core.theta_joins", "engine.workers1_eval_ms"},
		"compile_only":  {"xquery.parse_ms", "opt.pipeline_ms", "physical.lower_ms", "opt.alloc_mb"},
		"service_mixed": {"service.point_p50_ms", "service.miss_p50_ms", "service.direct_query_ms", "mil.xq_roundtrip_ms", "mil.emit_ms"},
		"store_churn":   {"service.put_p50_ms", "service.read_p50_ms", "pfstore.save_ms", "pfstore.reopen_first_query_ms"},
	}
	idle := map[string][]string{
		"compile_only":  {"engine.eval_ms", "serialize.result_ms", "xenc.shred_ms"},
		"service_mixed": {"pfstore.save_ms", "service.put_p50_ms"},
		"store_churn":   {"mil.xq_roundtrip_ms", "service.heavy_p50_ms"},
	}

	for _, w := range s.all() {
		t.Run(w.Name, func(t *testing.T) {
			smoke(t, w.Name, false)
			layers := smoke(t, w.Name, true)
			if layers["trace.coverage"].Value <= 0 {
				t.Errorf("trace.coverage = %v, want it computed", layers["trace.coverage"].Value)
			}
			for _, name := range busy[w.Name] {
				if layers[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", name, layers[name].Value, w.Name)
				}
			}
			for _, name := range idle[w.Name] {
				if layers[name].Value != 0 {
					t.Errorf("%s = %v, want 0 on %s", name, layers[name].Value, w.Name)
				}
			}
			if names := exact[w.Name]; names != nil {
				again := smoke(t, w.Name, true)
				for _, name := range names {
					if layers[name].Value != again[name].Value || layers[name].Value == 0 {
						t.Errorf("%s = %v, then %v: want the same non-zero count twice", name, layers[name].Value, again[name].Value)
					}
				}
			}
		})
	}
}
