package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, id := range []string{"table1", "table2", "fig8", "fig10"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list missing %s:\n%s", id, out.String())
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-exp", "table1", "-scale", "0.01", "-recall-sample", "50"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Errorf("missing Table I output:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "table42"}, &out, &errOut); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestRunWithDataDirAndKCap(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	err := run([]string{"-exp", "fig9", "-scale", "0.01", "-recall-sample", "50",
		"-kcap", "5", "-data-dir", dir}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "fig9_") {
			found = true
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Errorf("%s is empty", e.Name())
			}
		}
	}
	if !found {
		t.Error("no fig9 series dumped")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-scale", "notanumber"}, &out, &errOut); err == nil {
		t.Error("bad flag value must fail")
	}
}

// TestCompareDetectsRegression pins the -compare gate: a baseline with an
// absurdly fast ns/op must fail the run with a nonzero-exit error, and a
// generous baseline must pass. The bench subset is filtered to keep the
// test fast.
func TestCompareDetectsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "new.json")

	fast := filepath.Join(dir, "fast.json")
	if err := os.WriteFile(fast, []byte(`{"schema":"kiff/bench/v1","benches":[
		{"name":"rcs-build","ns_per_op":1,"bytes_per_op":0,"allocs_per_op":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-bench-out", outPath, "-bench-names", "rcs-build", "-compare", fast}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("impossible baseline must report a regression, got err = %v", err)
	}
	// The fresh record must have been written even though the gate failed,
	// and contain only the filtered bench.
	data, readErr := os.ReadFile(outPath)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !strings.Contains(string(data), "rcs-build") || strings.Contains(string(data), "kiff-build") {
		t.Fatalf("filtered record wrong:\n%s", data)
	}

	slow := filepath.Join(dir, "slow.json")
	if err := os.WriteFile(slow, []byte(`{"schema":"kiff/bench/v1","benches":[
		{"name":"rcs-build","ns_per_op":1e15,"bytes_per_op":0,"allocs_per_op":0},
		{"name":"not-measured-here","ns_per_op":1,"bytes_per_op":0,"allocs_per_op":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench-out", outPath, "-bench-names", "rcs-build", "-compare", slow}, &out, &errOut); err != nil {
		t.Fatalf("generous baseline must pass, got %v", err)
	}
}

// TestCompareRequiresBenchOut: the compare/filter flags are meaningless
// without -bench-out and must be rejected rather than ignored.
func TestCompareRequiresBenchOut(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-compare", "x.json"}, &out, &errOut); err == nil {
		t.Error("-compare without -bench-out must fail")
	}
	if err := run([]string{"-bench-names", "rcs-build"}, &out, &errOut); err == nil {
		t.Error("-bench-names without -bench-out must fail")
	}
	if err := run([]string{"-recall-floor", "0.9"}, &out, &errOut); err == nil {
		t.Error("-recall-floor without -bench-out must fail")
	}
}

// TestUnknownBenchName: a typo in -bench-names must fail the run (so CI
// never silently measures nothing) and the error must list the valid
// names so the fix is obvious from the failure output alone.
func TestUnknownBenchName(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "out.json")
	var out, errOut bytes.Buffer
	err := run([]string{"-bench-out", outPath, "-bench-names", "rcs-build,kiff-biuld"}, &out, &errOut)
	if err == nil {
		t.Fatal("unknown bench name must fail")
	}
	if !strings.Contains(err.Error(), "kiff-biuld") {
		t.Errorf("error %q must quote the offending name", err)
	}
	for _, name := range validBenchNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error must list valid name %q:\n%v", name, err)
		}
	}
	if _, statErr := os.Stat(outPath); statErr == nil {
		t.Error("no bench record must be written on a bad name")
	}
}

// TestComparePerBenchTolerance: a baseline bench's own tolerance
// overrides the global flag in both directions — a tight bound on a
// stable bench fails inside the global slack, and a loose bound on a
// noisy bench passes beyond it.
func TestComparePerBenchTolerance(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"schema":"kiff/bench/v1","benches":[
		{"name":"stable","ns_per_op":100,"tolerance":1.2},
		{"name":"noisy","ns_per_op":100,"tolerance":3.0},
		{"name":"global","ns_per_op":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	report := benchReport{Benches: []benchResult{
		{Name: "stable", NsPerOp: 150}, // 1.5x: within the 1.6 global, beyond its own 1.2
		{Name: "noisy", NsPerOp: 250},  // 2.5x: beyond the global, within its own 3.0
		{Name: "global", NsPerOp: 150}, // 1.5x: no per-bench bound, global 1.6 applies
	}}
	var errOut bytes.Buffer
	err := compareAgainst(base, report, 1.6, &errOut)
	if err == nil {
		t.Fatal("stable bench beyond its per-bench tolerance must regress")
	}
	if !strings.Contains(err.Error(), "stable") {
		t.Errorf("regression list %v must name the stable bench", err)
	}
	if strings.Contains(err.Error(), "noisy") || strings.Contains(err.Error(), "global") {
		t.Errorf("regression list %v must flag only the stable bench", err)
	}
}

// TestCompareReportsNewBenches: a bench the baseline lacks is listed as
// new in the delta table, never gated and never dropped silently.
func TestCompareReportsNewBenches(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(base, []byte(`{"schema":"kiff/bench/v1","benches":[
		{"name":"old","ns_per_op":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	report := benchReport{Benches: []benchResult{
		{Name: "old", NsPerOp: 100},
		{Name: "fresh", NsPerOp: 1e9},
	}}
	var errOut bytes.Buffer
	if err := compareAgainst(base, report, 1.5, &errOut); err != nil {
		t.Fatalf("a bench without a baseline must not regress: %v", err)
	}
	var line string
	for _, l := range strings.Split(errOut.String(), "\n") {
		if strings.Contains(l, "fresh") {
			line = l
		}
	}
	if !strings.HasSuffix(line, "(new)") {
		t.Fatalf("delta table must list the unbaselined bench as new:\n%s", errOut.String())
	}
}

// TestBenchBuildsOnlySelectedRows: selecting the serving cold build alone
// must neither build nor report the bucketed builder (its recall line is
// printed only when it ran) or the standard KIFF row.
func TestBenchBuildsOnlySelectedRows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	outPath := filepath.Join(t.TempDir(), "out.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-bench-out", outPath, "-bench-names", "maintainer-build"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	if strings.Contains(errOut.String(), "bucketed") {
		t.Errorf("bucketed builder reported without being selected:\n%s", errOut.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"maintainer-build"`) ||
		strings.Contains(string(data), "kiff-build-bucketed") || strings.Contains(string(data), "kiff-build-wiki05") {
		t.Fatalf("record must hold exactly the selected row:\n%s", data)
	}
}
