package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// commit names the source the numbers were taken from, when git knows.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload in its own process, so that no workload inherits
// another's heap, caches or resident-set high-water mark, and returns its
// stamp and result lines.
func child(workload string, seed int64, seconds float64, trace int) (stamp map[string]any, res *resultLine, err error) {
	cmd := exec.Command(os.Args[0],
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("%s --trace %d printed no result: %v", workload, trace, runErr)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &stamp); err != nil {
		return nil, nil, fmt.Errorf("%s: stamp line: %w", workload, err)
	}
	res = new(resultLine)
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return stamp, res, nil
}

// runAll is the one command: every workload, first with tracing off and then
// traced, each in a child process; every metric printed by name with its
// unit, direction and bound; a JSON summary last. It returns the exit code:
// non-zero on any wrong output, failed check or missing metric.
func runAll(s *spec, root string, seed int64, seconds float64) int {
	type row struct {
		Stamp   map[string]any         `json:"stamp"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	summary := map[string]map[string]row{}
	code := 0
	for _, w := range s.all() {
		summary[w.Name] = map[string]row{}
		for trace, mode := range []string{"end_to_end", "per_layer"} {
			fmt.Fprintf(os.Stderr, "benchmark: %s, %s ...\n", w.Name, mode)
			stamp, res, err := child(w.Name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				continue
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed\n", w.Name, res.Failed, res.Attempted)
				code = 1
			}
			summary[w.Name][mode] = row{Stamp: stamp, Metrics: res.Metrics}
			fmt.Printf("\n%s (%s): %s\n  %d operations, %d failed\n", w.Name, mode, w.Why, res.Attempted, res.Failed)
			for _, m := range s.declared(trace == 1) {
				v, ok := res.Metrics[m.Name]
				if !ok {
					fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s is missing\n", w.Name, m.Name)
					code = 1
					continue
				}
				bound := ""
				if trace == 0 {
					bound = fmt.Sprintf("  may worsen by %g%%", 100*m.Bound)
				}
				fmt.Printf("  %-36s %14.6g %-6s %s is better%s\n", m.Name, v.Value, m.Unit, m.Better, bound)
			}
		}
	}
	// This command measures; a claim needs a parent and a change, ten
	// alternating pairs, and the rule in README.md.
	out, err := json.Marshal(struct {
		Seed      int64                     `json:"seed"`
		Seconds   float64                   `json:"seconds"`
		Commit    string                    `json:"commit"`
		Workloads map[string]map[string]row `json:"workloads"`
		Claim     *string                   `json:"claim"`
	}{seed, seconds, commit(root), summary, nil})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("\n%s\n", out)
	return code
}
