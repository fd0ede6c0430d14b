package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenReports pins the exact table output of the deterministic
// experiments: F1 (the machine-derived Figure 1 diagram), E7 (the
// good-node census) and the quick asynchronous and baseline tables
// (E2's adversaries, among them skew, overwriter and drift, which no
// benchmark workload runs; E3; E10–E13) are pure functions of the seed,
// so their reports must be byte-stable across refactors of the driver,
// the engines, the harness table renderer and the graph generators.
// Regenerate with
// `go test ./cmd/experiments -run Golden -update` after an intentional
// change.
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"F1", []string{"-exp", "F1", "-seed", "1"}},
		{"E7_quick", []string{"-exp", "E7", "-quick", "-seed", "1"}},
		{"E2_quick", []string{"-exp", "E2", "-quick", "-seed", "1"}},
		{"E3_quick", []string{"-exp", "E3", "-quick", "-seed", "1"}},
		{"E10_quick", []string{"-exp", "E10", "-quick", "-seed", "1"}},
		{"E11_quick", []string{"-exp", "E11", "-quick", "-seed", "1"}},
		{"E12_quick", []string{"-exp", "E12", "-quick", "-seed", "1"}},
		{"E13_quick", []string{"-exp", "E13", "-quick", "-seed", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tc.args, &sb); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if sb.String() != string(want) {
				t.Fatalf("report drifted from %s (regenerate with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
					golden, sb.String(), want)
			}
		})
	}
}
