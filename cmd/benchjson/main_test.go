package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodValidateJSON = `{
  "backend": "analytical",
  "operators": [{"operator": "scan"}],
  "cross_check": {
    "speedup": 120.5,
    "pass": true,
    "operators": [
      {"operator": "scan", "mean_disagreement": 0.001, "tolerance": 0.02, "pass": true}
    ]
  }
}`

func TestCheckValidateFile(t *testing.T) {
	write := func(t *testing.T, body string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "BENCH_validate.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := checkValidateFile(write(t, goodValidateJSON)); err != nil {
		t.Fatalf("good artifact rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(s string) string
		wantErr string
	}{
		{"trace backend", func(s string) string {
			return strings.Replace(s, `"analytical"`, `"trace"`, 1)
		}, "want analytical"},
		{"missing cross-check", func(s string) string {
			return strings.Replace(s, `"cross_check"`, `"cross_check_gone"`, 1)
		}, "no cross_check"},
		{"operator over tolerance", func(s string) string {
			return strings.Replace(s, `"pass": true}`, `"pass": false}`, 1)
		}, "exceeds its committed tolerance"},
		{"speedup below floor", func(s string) string {
			return strings.Replace(s, "120.5", "7.3", 1)
		}, "below the committed"},
		{"overall fail flag", func(s string) string {
			return strings.Replace(s, `"pass": true,`, `"pass": false,`, 1)
		}, "recorded as failing"},
	}
	for _, tc := range cases {
		err := checkValidateFile(write(t, tc.mutate(goodValidateJSON)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}

	if err := checkValidateFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// -check gates every pattern's tree-vs-IR speedup against its floor
// and fails when a gated pattern is missing.
func TestCheckAcceptance(t *testing.T) {
	passing := func() Report {
		var rep Report
		for _, c := range checkMinSpeedups {
			rep.Speedups = append(rep.Speedups, Speedup{Pattern: c.pattern, Speedup: 2 * c.min})
		}
		return rep
	}
	ok := passing()
	if err := ok.checkAcceptance(); err != nil {
		t.Fatalf("passing report rejected: %v", err)
	}
	for i, c := range checkMinSpeedups {
		slow := passing()
		slow.Speedups[i].Speedup = c.min * 0.9
		if err := slow.checkAcceptance(); err == nil || !strings.Contains(err.Error(), c.pattern) {
			t.Errorf("%s below its floor: error %v", c.pattern, err)
		}
		missing := passing()
		missing.Speedups = append(missing.Speedups[:i:i], missing.Speedups[i+1:]...)
		if err := missing.checkAcceptance(); err == nil || !strings.Contains(err.Error(), "no "+c.pattern) {
			t.Errorf("%s missing: error %v", c.pattern, err)
		}
	}
	allocating := passing()
	allocating.Benchmarks = []Benchmark{{Name: "Evaluate/ir/quicksort", AllocsPerOp: 1}}
	if err := allocating.checkAcceptance(); err == nil || !strings.Contains(err.Error(), "want 0") {
		t.Errorf("allocating IR benchmark: error %v", err)
	}
}
