package main

import (
	"runtime"
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

	// The whole quick report renders, every experiment contributes a
	// table with at least one row, and the bytes do not depend on how
	// many goroutines the campaign pool runs.
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var sb strings.Builder
		if err := run([]string{"-quick", "-seed", "1"}, &sb); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return sb.String()
	}
	one, four := render(1), render(4)
	if one != four {
		t.Fatalf("quick report differs between GOMAXPROCS=1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", one, four)
	}
	sections := map[string]string{}
	for _, sec := range strings.Split("\n"+one, "\n# ")[1:] {
		id, _, _ := strings.Cut(sec, " ")
		sections[id] = sec
	}
	for _, e := range registry() {
		sec, ok := sections[e.id]
		if !ok {
			t.Errorf("report has no # %s section", e.id)
			continue
		}
		// A table's header line and each of its rows start with "| ";
		// its separator line starts with "|-".
		if rows := strings.Count("\n"+sec, "\n| "); rows < 2 {
			t.Errorf("section %s has no table row:\n%s", e.id, sec)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// An unknown id is rejected by name, also next to a known one.
	for _, exp := range []string{"E99", "E7,E99"} {
		var sb strings.Builder
		err := run([]string{"-exp", exp, "-quick"}, &sb)
		if err == nil || !strings.Contains(err.Error(), `"E99"`) {
			t.Fatalf("-exp %s: error %v, want one naming E99", exp, err)
		}
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
