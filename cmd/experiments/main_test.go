package main

import (
	"strings"
	"testing"
)

func TestRegistryCoversAllExperiments(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range registry() {
		ids[e.id] = true
	}
	for _, want := range []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestRunSelectedQuickExperiments(t *testing.T) {
	// E7 (pure census) and E8 (exact cross-check) are fast and
	// deterministic — they smoke-test the whole driver path.
	var sb strings.Builder
	if err := run([]string{"-exp", "e7,E8", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E7", "Good-node", "E8", "states equal", "| yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "E99"}, &sb); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRunWritesToFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/out.md"
	var sb strings.Builder
	if err := run([]string{"-exp", "E7", "-quick", "-out", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatal("stdout written despite -out")
	}
}
