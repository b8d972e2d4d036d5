// Command pfvet is the repository's source analyzer: project-specific
// correctness checks go vet cannot know about, built on go/ast and
// go/types alone (no analysis framework, no module downloads). It
// type-checks the module from source and enforces two layers.
//
// Per-package checks:
//
//   - batmut: no element writes into shared bat column vectors outside
//     internal/bat (vectors are shared across views, plan-cache hits and
//     scheduler workers)
//   - determinism: no clock or randomness in kernel packages
//   - ctxpoll: context-taking engine functions with nested row loops
//     must poll the context
//   - mutexval: no value receivers on types holding sync state
//   - maporder: no map-iteration-order dependence in optimizer passes
//
// Interprocedural suite (call graph + dataflow over the whole module):
//
//   - lockorder: mutex acquisition order is acyclic; shared locks are
//     never held across file or network I/O
//   - colown: columnar state adopted on a publish path is cloned, not
//     mutated in place
//   - golifecycle: every goroutine joins or polls cancellation;
//     WaitGroup Add does not race Wait reuse
//   - errclass: every error crossing the service boundary carries the
//     documented status contract
//
// Deliberate exceptions carry a `//pfvet:allow <check> -- reason`
// directive on the same or preceding line.
//
// Usage:
//
//	pfvet                           # analyze the whole module
//	pfvet ./internal/engine         # per-package checks on one package
//	pfvet -rules lockorder,errclass # run a subset
//	pfvet -sarif pfvet.sarif        # also write SARIF for CI annotation
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// suiteRules are the interprocedural analyzers; they always run over the
// whole module (their facts are call-graph-wide even when the findings
// land in one package).
var suiteRules = []string{"lockorder", "colown", "golifecycle", "errclass"}

var packageRules = []string{"batmut", "determinism", "ctxpoll", "mutexval", "maporder"}

func main() {
	var (
		rulesFlag = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		sarifFlag = flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
	)
	flag.Parse()

	rules, err := parseRules(*rulesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfvet: %v\n", err)
		os.Exit(2)
	}

	root, name, err := findModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfvet: %v\n", err)
		os.Exit(2)
	}
	l := newLoader(root, name)

	var paths []string
	if flag.NArg() > 0 {
		for _, arg := range flag.Args() {
			abs, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
			if err != nil {
				fmt.Fprintf(os.Stderr, "pfvet: %v\n", err)
				os.Exit(2)
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				fmt.Fprintf(os.Stderr, "pfvet: %s is outside module %s\n", arg, name)
				os.Exit(2)
			}
			p := name
			if rel != "." {
				p += "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, p)
		}
	} else {
		paths, err = l.modulePackages()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfvet: %v\n", err)
			os.Exit(2)
		}
	}

	var all []finding
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, name), "/")
		dir := filepath.Join(root, rel)
		pi, err := l.loadDir(dir, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfvet: %v\n", err)
			os.Exit(2)
		}
		all = append(all, runChecks(l.fset, pi, checksFor(path).restrict(rules))...)
	}

	if anySuiteRule(rules) {
		fs, err := runSuite(l, rules)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfvet: %v\n", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}

	sort.Slice(all, func(a, b int) bool {
		if all[a].pos.Filename != all[b].pos.Filename {
			return all[a].pos.Filename < all[b].pos.Filename
		}
		if all[a].pos.Line != all[b].pos.Line {
			return all[a].pos.Line < all[b].pos.Line
		}
		return all[a].check < all[b].check
	})

	if *sarifFlag != "" {
		// SARIF wants original (absolute) paths relativized itself; write
		// before the display pass rewrites filenames.
		b, err := sarifBytes(root, all)
		if err == nil {
			err = os.WriteFile(*sarifFlag, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfvet: sarif: %v\n", err)
			os.Exit(2)
		}
	}

	for _, f := range all {
		if rel, err := filepath.Rel(root, f.pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "pfvet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// parseRules validates a -rules subset; empty means every rule.
func parseRules(csv string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, r := range packageRules {
		known[r] = true
	}
	for _, r := range suiteRules {
		known[r] = true
	}
	if csv == "" {
		return known, nil
	}
	out := map[string]bool{}
	for _, r := range strings.Split(csv, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !known[r] {
			var names []string
			for n := range known {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown rule %q (known: %s)", r, strings.Join(names, ", "))
		}
		out[r] = true
	}
	if len(out) == 0 {
		return known, nil
	}
	return out, nil
}

// restrict masks a checkSet down to the enabled rules.
func (cs checkSet) restrict(rules map[string]bool) checkSet {
	cs.batmut = cs.batmut && rules["batmut"]
	cs.determinism = cs.determinism && rules["determinism"]
	cs.ctxpoll = cs.ctxpoll && rules["ctxpoll"]
	cs.mutexval = cs.mutexval && rules["mutexval"]
	cs.maporder = cs.maporder && rules["maporder"]
	return cs
}

func anySuiteRule(rules map[string]bool) bool {
	for _, r := range suiteRules {
		if rules[r] {
			return true
		}
	}
	return false
}

// runSuite loads every module package, builds the interprocedural suite,
// and runs the enabled analyzers under the production scope.
func runSuite(l *loader, rules map[string]bool) ([]finding, error) {
	paths, err := l.modulePackages()
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.moduleName), "/")
		if _, err := l.loadDir(filepath.Join(l.moduleRoot, rel), path); err != nil {
			return nil, err
		}
	}
	s := newSuite(l.fset, l.moduleRoot, l.pkgs)
	cfg := defaultSuiteConfig(l.moduleName)
	return s.run(cfg, rules), nil
}

// run executes the enabled suite analyzers and applies allow-directive
// suppression package by package.
func (s *suite) run(cfg suiteConfig, rules map[string]bool) []finding {
	var fs []finding
	if rules["lockorder"] {
		fs = append(fs, s.lockorder(cfg)...)
	}
	if rules["colown"] {
		fs = append(fs, s.colown(cfg)...)
	}
	if rules["golifecycle"] {
		fs = append(fs, s.golifecycle(cfg)...)
	}
	if rules["errclass"] {
		fs = append(fs, s.errclass(cfg)...)
	}
	for _, pi := range s.pkgs {
		fs = suppressAllowed(s.fset, pi, fs)
	}
	sort.Slice(fs, func(a, b int) bool {
		if fs[a].pos.Filename != fs[b].pos.Filename {
			return fs[a].pos.Filename < fs[b].pos.Filename
		}
		if fs[a].pos.Line != fs[b].pos.Line {
			return fs[a].pos.Line < fs[b].pos.Line
		}
		return fs[a].check < fs[b].check
	})
	return fs
}
