package pathfinder_test

// End-to-end tests of the shipped command-line tools: the binaries are
// built once into a temp dir and driven the way a user would drive them
// (xmlgen → pf, pfserver ↔ pfshell).

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathfinder/internal/xmark"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "pathfinder-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"pf", "xmlgen", "pfserver", "pfshell", "xmarkbench"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", tool, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIXmlgenAndPf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	doc := filepath.Join(dir, "auction.xml")
	runTool(t, "xmlgen", "-sf", "0.002", "-o", doc)

	if got := strings.TrimSpace(runTool(t, "pf", "-doc", doc, "count(//person)")); got != "60" {
		t.Errorf("pf count = %q", got)
	}
	got := strings.TrimSpace(runTool(t, "pf", "-doc", doc,
		`for $p in /site/people/person where $p/@id = "person0" return $p/name/text()`))
	if got == "" {
		t.Error("person0 lookup returned nothing")
	}
	// Introspection modes produce their artifacts.
	if out := runTool(t, "pf", "-show", "core", "1 + 1"); !strings.Contains(out, "op +") {
		t.Errorf("core mode: %q", out)
	}
	if out := runTool(t, "pf", "-show", "plan", "1 + 1"); !strings.Contains(out, "operators)") {
		t.Errorf("plan mode: %q", out)
	}
	// -show plan is the plan as compiled, -show opt the plan as optimized:
	// on Q8 the pipeline removes operators, so the first count is larger.
	opsOf := func(mode string) int {
		out := runTool(t, "pf", "-doc", doc, "-show", mode, xmark.Query(8))
		m := regexp.MustCompile(`\((\d+) operators\)\n$`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-show %s prints no operator count:\n%s", mode, lastLines(out, 4))
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if compiled, optimized := opsOf("plan"), opsOf("opt"); compiled <= optimized {
		t.Errorf("Q8: -show plan has %d operators, -show opt %d; want the compiled plan larger", compiled, optimized)
	}
	if out := runTool(t, "pf", "-show", "mil", "1 + 1"); !strings.Contains(out, "return v") {
		t.Errorf("mil mode: %q", out)
	}
	if out := runTool(t, "pf", "-show", "sql", "1 + 1"); !strings.HasPrefix(out, "WITH") {
		t.Errorf("sql mode: %q", out)
	}
	if out := runTool(t, "pf", "-show", "dot", "1 + 1"); !strings.Contains(out, "digraph plan") {
		t.Errorf("dot mode: %q", out)
	}
	if out := runTool(t, "pf", "-show", "physical", "1 + 1"); !strings.Contains(out, "digraph physical") ||
		!strings.Contains(out, "scan") {
		t.Errorf("physical mode: %q", out)
	}
	if out := runTool(t, "pf", "-doc", doc, "-show", "explain", "count(//person)"); !strings.Contains(out, "mat ") {
		t.Errorf("explain mode lacks kernel annotations: %q", out)
	}
	// The explain footer names the pool size the operators above it ran
	// on — GOMAXPROCS when -workers is left at 0, never "0 workers" — and
	// Q11's join under count($l) is answered without emitting a pair.
	q11 := `for $p in /site/people/person
	        let $l := for $i in /site/open_auctions/open_auction/initial
	                  where $p/profile/@income > 5000 * $i return $i
	        return <items name="{$p/name/text()}">{count($l)}</items>`
	out := runTool(t, "pf", "-doc", doc, "-show", "explain", q11)
	if want := fmt.Sprintf(" operators, %d workers, ", runtime.GOMAXPROCS(0)); !strings.Contains(out, want) {
		t.Errorf("explain footer lacks %q:\n%s", want, lastLines(out, 24))
	}
	if !regexp.MustCompile(`theta join #1: bitem gt aitem — merge-thetacount\[float\], \d+ rows probed, 0 pairs emitted, \d+ counted\n`).MatchString(out) ||
		strings.Contains(out, "ϱ s2") {
		t.Errorf("Q11 did not run as a count-only theta join:\n%s", lastLines(out, 24))
	}
	// Every operator is its own scheduler unit: the footer counts
	// breakers and theta joins, and no line names a multi-operator unit.
	out = runTool(t, "pf", "-show", "explain", `for $i in 1 to 10000 where $i mod 7 = 0 and $i mod 3 = 0 return $i * 2`)
	if !regexp.MustCompile(`(?m)^\(\d+ operators, \d+ workers, \d+ pipeline breakers, 0 theta joins\)$`).MatchString(out) ||
		strings.Contains(out, "chain") {
		t.Errorf("explain footer of a range pipeline:\n%s", lastLines(out, 14))
	}
	if out := runTool(t, "pf", "-doc", doc, "-workers", "3", "-show", "explain", "count(//person)"); !strings.Contains(out, " operators, 3 workers, ") {
		t.Errorf("explain footer with -workers 3:\n%s", lastLines(out, 4))
	}
	if out := runTool(t, "pf", "-doc", doc, "-show", "trace", "count(//person)"); !strings.Contains(out, "rows") {
		t.Errorf("trace mode: %q", out)
	}
	// The naive (tree-unaware) engine agrees with the staircase engine.
	a := runTool(t, "pf", "-doc", doc, "count(//text())")
	b := runTool(t, "pf", "-naive", "-doc", doc, "count(//text())")
	if a != b {
		t.Errorf("naive/staircase disagree: %q vs %q", a, b)
	}
}

// lastLines is the tail of a tool's output, for failure messages.
func lastLines(out string, n int) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

func TestCLIServerShell(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	// Pick a free port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv := exec.Command(filepath.Join(dir, "pfserver"), "-listen", addr, "-gen", "xmark.xml=0.002")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = srv.Process.Kill()
		_ = srv.Wait()
	}()
	// Wait for the listener.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pfserver did not come up")
		}
		time.Sleep(50 * time.Millisecond)
	}

	out := runTool(t, "pfshell", "-addr", addr, `count(doc("xmark.xml")//person)`)
	if strings.TrimSpace(out) != "60" {
		t.Errorf("pfshell result = %q", out)
	}
	out2 := runTool(t, "pfshell", "-addr", addr, "-doc", "xmark.xml",
		`sum(for $p in /site/closed_auctions/closed_auction return 1)`)
	if strings.TrimSpace(out2) != "24" {
		t.Errorf("pfshell sum = %q", out2)
	}
}

func TestCLIInteractiveMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	doc := filepath.Join(dir, "auction.xml")
	runTool(t, "xmlgen", "-sf", "0.002", "-o", doc)
	cmd := exec.Command(filepath.Join(buildTools(t), "pf"), "-i", "-doc", doc)
	cmd.Stdin = strings.NewReader("count(//person)\nbad syntax here(\n1 to 3\nquit\n")
	out, err := cmd.Output() // stderr carries prompts and the error
	if err != nil {
		t.Fatalf("repl: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "60\n1 2 3" {
		t.Errorf("repl output = %q", got)
	}
}

// TestCLIInteractiveCheck: -i runs on the engine built from the flags, so
// -check validates every REPL query's plans (and asserts them on live
// intermediates) exactly as it does for a single query.
func TestCLIInteractiveCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cmd := exec.Command(filepath.Join(buildTools(t), "pf"), "-i", "-check")
	cmd.Stdin = strings.NewReader("count(1 to 5000)\nfor $i in 1 to 3 return $i * 2\nquit\n")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("repl: %v\n%s", err, stderr.String())
	}
	if got := strings.TrimSpace(string(out)); got != "5000\n2 4 6" {
		t.Errorf("repl output = %q", got)
	}
	if n := strings.Count(stderr.String(), "pf: check ok ("); n != 2 {
		t.Errorf("want a check report per query, got %d:\n%s", n, stderr.String())
	}
}

func TestCLIServerSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildTools(t)
	snap := filepath.Join(t.TempDir(), "store.pfdb")

	runServer := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		srv := exec.Command(filepath.Join(dir, "pfserver"),
			"-listen", addr, "-gen", "xmark.xml=0.002", "-snapshot", snap)
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = srv.Process.Kill()
			_ = srv.Wait()
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("pfserver did not come up")
			}
			time.Sleep(50 * time.Millisecond)
		}
		return strings.TrimSpace(runTool(t, "pfshell", "-addr", addr,
			`count(doc("xmark.xml")//closed_auction)`))
	}

	first := runServer() // generates and writes the snapshot
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	second := runServer() // restores from the snapshot
	if first != second || first != "24" {
		t.Errorf("snapshot round trip: %q vs %q", first, second)
	}
}

func TestCLIXmarkbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out := runTool(t, "xmarkbench",
		"-sfs", "0.001", "-queries", "1,6", "-budget", "30s", "-report", "table3")
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "  1 |") {
		t.Errorf("xmarkbench output:\n%s", out)
	}
}
