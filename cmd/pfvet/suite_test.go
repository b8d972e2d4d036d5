package main

// The interprocedural suite runs over one fixture package per analyzer,
// each reproducing the historical bug class it encodes (the pre-fix
// Catalog.Put lock-across-Save, the PR 7 reseal race, the PR 6 drain
// race, the raw-error boundary leak) plus negative and allow-suppressed
// shapes. Diagnostics are pinned byte for byte against golden files;
// regenerate with `go test ./cmd/pfvet -run Fixture -update`.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadSuiteFixture type-checks testdata/<name> and builds the suite over
// it, rooted at the module root so message paths match CI output.
func loadSuiteFixture(t *testing.T, name string) *suite {
	t.Helper()
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, module)
	if _, err := l.loadDir(filepath.Join("testdata", name), "fixture/"+name); err != nil {
		t.Fatal(err)
	}
	return newSuite(l.fset, root, l.pkgs)
}

// checkGolden compares rendered findings against testdata/golden/<name>.golden.
func checkGolden(t *testing.T, name string, s *suite, fs []finding) {
	t.Helper()
	var lines []string
	for _, f := range fs {
		if rel, err := filepath.Rel(s.root, f.pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.pos.Filename = filepath.ToSlash(rel)
		}
		lines = append(lines, f.String())
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestLockorderFixture(t *testing.T) {
	s := loadSuiteFixture(t, "lockorder")
	cfg := suiteConfig{lockPkgs: map[string]bool{"fixture/lockorder": true}}
	checkGolden(t, "lockorder", s, s.run(cfg, map[string]bool{"lockorder": true}))
}

func TestColownFixture(t *testing.T) {
	s := loadSuiteFixture(t, "colown")
	cfg := suiteConfig{
		colownCols: map[string]bool{"fixture/colown": true},
		colownPubs: map[string]bool{"NewStoreFromParts": true},
	}
	checkGolden(t, "colown", s, s.run(cfg, map[string]bool{"colown": true}))
}

func TestGolifecycleFixture(t *testing.T) {
	s := loadSuiteFixture(t, "golifecycle")
	cfg := suiteConfig{lifePkgs: map[string]bool{"fixture/golifecycle": true}}
	checkGolden(t, "golifecycle", s, s.run(cfg, map[string]bool{"golifecycle": true}))
}

func TestErrclassFixture(t *testing.T) {
	s := loadSuiteFixture(t, "errclass")
	cfg := suiteConfig{errPkg: "fixture/errclass", errType: "Error"}
	checkGolden(t, "errclass", s, s.run(cfg, map[string]bool{"errclass": true}))
}

// TestRulesFlag pins the -rules contract: unknown names are rejected,
// subsets mask both layers, empty means everything.
func TestRulesFlag(t *testing.T) {
	if _, err := parseRules("lockorder,nosuchrule"); err == nil {
		t.Error("unknown rule must be rejected")
	}
	all, err := parseRules("")
	if err != nil || len(all) != len(packageRules)+len(suiteRules) {
		t.Errorf("empty -rules must enable every rule, got %v (%v)", all, err)
	}
	sub, err := parseRules("lockorder,batmut")
	if err != nil {
		t.Fatal(err)
	}
	if !sub["lockorder"] || !sub["batmut"] || sub["errclass"] || sub["ctxpoll"] {
		t.Errorf("subset mask wrong: %v", sub)
	}
	cs := checksFor("pathfinder/internal/engine").restrict(sub)
	if !cs.batmut || cs.ctxpoll {
		t.Errorf("restrict must mask per-package checks: %+v", cs)
	}
	if !anySuiteRule(sub) || anySuiteRule(map[string]bool{"batmut": true}) {
		t.Error("anySuiteRule must detect exactly the interprocedural rules")
	}
}

// TestPfvetSelfClean: the analyzer's own package passes its per-package
// checks — pfvet must hold itself to the repo's standards.
func TestPfvetSelfClean(t *testing.T) {
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, module)
	path := module + "/cmd/pfvet"
	pi, err := l.loadDir(filepath.Join(root, "cmd", "pfvet"), path)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range runChecks(l.fset, pi, checksFor(path)) {
		t.Errorf("pfvet is not self-clean: %s", f)
	}
}

// TestRepoSuiteIsClean runs the interprocedural suite over the real tree
// under the production scope — the CI gate for the four new analyzers.
func TestRepoSuiteIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module typecheck is slow")
	}
	root, module, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, module)
	paths, err := l.modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		if _, err := l.loadDir(filepath.Join(root, rel), path); err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
	}
	s := newSuite(l.fset, root, l.pkgs)
	rules := map[string]bool{}
	for _, r := range suiteRules {
		rules[r] = true
	}
	for _, f := range s.run(defaultSuiteConfig(module), rules) {
		t.Errorf("%s", f)
	}
}
