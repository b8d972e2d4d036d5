package main

// The checks run over testdata/fixture, whose `// want <check>` markers
// declare exactly which lines must be flagged — the go vet testing
// idiom, kept stdlib-only.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T) (*loader, *pkgInfo) {
	t.Helper()
	root, name, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, name)
	pi, err := l.loadDir(filepath.Join("testdata", "fixture"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	return l, pi
}

// wantMarkers reads the `// want <check>` annotations of every fixture
// file as a set of "file:line:check" keys.
func wantMarkers(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fixture", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	want := map[string]bool{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, check := range strings.Fields(marker) {
				want[fmt.Sprintf("%s:%d:%s", filepath.Base(path), i+1, check)] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture has no want markers")
	}
	return want
}

func TestChecksAgainstFixture(t *testing.T) {
	l, pi := loadFixture(t)
	all := checkSet{batmut: true, determinism: true, ctxpoll: true, mutexval: true, maporder: true}
	got := map[string]bool{}
	for _, f := range runChecks(l.fset, pi, all) {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.pos.Filename), f.pos.Line, f.check)] = true
	}
	want := wantMarkers(t)
	for k := range want {
		if !got[k] {
			t.Errorf("expected finding %s was not reported", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
}

// TestChecksForScoping pins which checks run where: batmut everywhere
// except the bat package itself, determinism in kernel packages only.
func TestChecksForScoping(t *testing.T) {
	bat := checksFor("pathfinder/internal/bat")
	if bat.batmut {
		t.Error("batmut must not run inside internal/bat (vectors are built there)")
	}
	if !bat.determinism {
		t.Error("determinism must cover internal/bat")
	}
	eng := checksFor("pathfinder/internal/engine")
	if !eng.batmut || !eng.determinism || !eng.ctxpoll || !eng.mutexval {
		t.Errorf("engine package must run all checks, got %+v", eng)
	}
	cli := checksFor("pathfinder/cmd/pf")
	if cli.determinism || cli.ctxpoll {
		t.Errorf("cmd packages are not kernel code, got %+v", cli)
	}
	if !cli.batmut || !cli.mutexval {
		t.Errorf("batmut/mutexval are repo-wide, got %+v", cli)
	}
	optPkg := checksFor("pathfinder/internal/opt")
	if !optPkg.maporder {
		t.Error("maporder must cover the optimizer's rewrite passes")
	}
	if eng.maporder || cli.maporder {
		t.Error("maporder is scoped to internal/opt; other packages range maps freely")
	}
}

// TestRepoIsClean runs pfvet's own checks over the whole module — the
// same gate CI enforces, expressed as a test so `go test ./...` fails
// the moment a kernel regression lands.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module typecheck is slow")
	}
	root, name, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(root, name)
	paths, err := l.modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, name), "/")
		pi, err := l.loadDir(filepath.Join(root, rel), path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, f := range runChecks(l.fset, pi, checksFor(path)) {
			t.Errorf("%s", f)
		}
	}
}
