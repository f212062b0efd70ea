package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rows ...benchResult) string {
	t.Helper()
	data, err := json.Marshal(benchReport{Benchmarks: rows})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareReportsNewRows: a row the baseline lacks (a diagnostic such
// as hfta-rows added after the baseline was written) is listed as new
// and never fails the gate, while a regressed row still does.
func TestCompareReportsNewRows(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "old.json", benchResult{Name: "hfta-merge", NsPerOp: 100})
	cand := writeReport(t, dir, "new.json",
		benchResult{Name: "hfta-merge", NsPerOp: 105},
		benchResult{Name: "hfta-rows", NsPerOp: 250000, AllocsPerOp: 4})
	var out bytes.Buffer
	if err := compareBenchReports(base, cand, 0.25, &out); err != nil {
		t.Fatalf("a row new to the baseline failed the gate: %v\n%s", err, out.String())
	}
	var newLine string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "hfta-rows") {
			newLine = l
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(newLine), "new") {
		t.Errorf("hfta-rows not reported as new:\n%s", out.String())
	}

	slow := writeReport(t, dir, "slow.json", benchResult{Name: "hfta-merge", NsPerOp: 200})
	if err := compareBenchReports(base, slow, 0.25, &bytes.Buffer{}); err == nil {
		t.Error("a 2x ns/op regression passed the gate")
	}
}
