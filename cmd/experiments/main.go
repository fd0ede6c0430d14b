// Command experiments regenerates every registered experiment — F1
// (the paper's Figure 1, machine-derived) and E1–E14 — and prints its
// report tables; -exp selects a subset.
//
// Usage:
//
//	experiments [-exp E1,E5] [-quick] [-seed 1] [-out results.md]
//
// Without -exp all experiments run. -quick shrinks network sizes and
// trial counts for a fast smoke pass.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"stoneage/internal/harness"
)

// config carries the experiment-wide knobs.
type config struct {
	quick bool
	seed  uint64
}

// scale picks the full or the -quick sizes and trials per cell.
func (c config) scale(sizes, quickSizes []int, trials, quickTrials int) ([]int, int) {
	if c.quick {
		return quickSizes, quickTrials
	}
	return sizes, trials
}

// experiment is one row of the registry.
type experiment struct {
	id    string
	title string
	run   func(cfg config) ([]*harness.Table, error)
}

func registry() []experiment {
	return []experiment{
		{"F1", "Figure 1: the MIS transition diagram (machine-derived)", expF1},
		{"E1", "MIS run-time scaling, synchronous (Theorem 4.5, Figure 1)", expE1},
		{"E2", "MIS under asynchronous adversaries (Theorems 3.1+3.4+4.5)", expE2},
		{"E3", "Synchronizer overhead is constant (Theorem 3.1)", expE3},
		{"E4", "Multi-letter query expansion factor (Theorem 3.4)", expE4},
		{"E5", "Tree 3-coloring run-time scaling (Theorem 5.4)", expE5},
		{"E6", "Tournament edge decay (Lemma 4.3)", expE6},
		{"E7", "Good-node fraction in trees (Observation 5.2)", expE7},
		{"E8", "rLBA simulates nFSM, exact cross-check (Lemma 6.1)", expE8},
		{"E9", "nFSM on a path simulates rLBA (Lemma 6.2)", expE9},
		{"E10", "Message-passing and beeping baselines vs nFSM (related work)", expE10},
		{"E11", "Maximal matching under the extended model (Section 1 remark)", expE11},
		{"E12", "(Δ+1)-coloring of bounded-degree graphs (extension)", expE12},
		{"E13", "2-coloring needs Θ(diameter): why the paper uses 3 colors (Section 5)", expE13},
		{"E14", "One-two-many information loss: exact degree is unattainable (Section 6)", expE14},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids (F1, E1..E14) or \"all\"")
	quick := fs.Bool("quick", false, "smaller sizes and fewer trials")
	seed := fs.Uint64("seed", 1, "master random seed")
	out := fs.String("out", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		known := map[string]bool{}
		for _, exp := range registry() {
			known[exp.id] = true
		}
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !known[id] {
				return fmt.Errorf("unknown experiment %q (known: F1, E1..E14)", id)
			}
			want[id] = true
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	cfg := config{quick: *quick, seed: *seed}
	for _, exp := range registry() {
		if len(want) > 0 && !want[exp.id] {
			continue
		}
		fmt.Fprintf(w, "# %s — %s\n\n", exp.id, exp.title)
		tables, err := exp.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.id, err)
		}
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}
