package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"stoneage/internal/campaign"
	"stoneage/internal/graph"
	"stoneage/internal/protocol"
	"stoneage/internal/xrand"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("stonesim %v: %v", args, err)
	}
	return sb.String()
}

// runCLIErr runs a CLI invocation that must fail and returns the error
// text.
func runCLIErr(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	if err == nil {
		t.Fatalf("stonesim %v succeeded, want error (output %q)", args, sb.String())
	}
	return err.Error()
}

func TestMISSync(t *testing.T) {
	out := runCLI(t, "-protocol", "mis", "-graph", "gnp", "-n", "32", "-engine", "sync")
	if !strings.Contains(out, "valid MIS") {
		t.Fatalf("output = %q", out)
	}
}

func TestMISAsyncOverwriter(t *testing.T) {
	out := runCLI(t, "-protocol", "mis", "-graph", "cycle", "-n", "16",
		"-engine", "async", "-adversary", "overwriter")
	if !strings.Contains(out, "valid MIS") || !strings.Contains(out, "time units") {
		t.Fatalf("output = %q", out)
	}
}

// TestProfileFlags is the -cpuprofile/-memprofile smoke test: both
// files are written as gzip'd pprof protobufs, the run's output is the
// same as without them, and an unwritable path fails the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	args := []string{"-protocol", "mis", "-graph", "gnp", "-n", "32", "-engine", "async", "-synchro", "voted"}
	plain := runCLI(t, args...)
	profiled := runCLI(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if profiled != plain {
		t.Fatalf("profiled run printed %q, plain run %q", profiled, plain)
	}
	for _, f := range []string{cpu, mem} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("%s is not a gzip'd profile (%d bytes)", filepath.Base(f), len(b))
		}
	}
	bad := filepath.Join(dir, "missing", "cpu.prof")
	if msg := runCLIErr(t, append(args, "-cpuprofile", bad)...); !strings.Contains(msg, "-cpuprofile") {
		t.Fatalf("error %q does not name the flag", msg)
	}
	if msg := runCLIErr(t, append(args, "-memprofile", bad)...); !strings.Contains(msg, "-memprofile") {
		t.Fatalf("error %q does not name the flag", msg)
	}
}

func TestColorSync(t *testing.T) {
	out := runCLI(t, "-protocol", "color3", "-graph", "tree", "-n", "40")
	if !strings.Contains(out, "valid 3-coloring") {
		t.Fatalf("output = %q", out)
	}
}

func TestMatching(t *testing.T) {
	out := runCLI(t, "-protocol", "matching", "-graph", "grid", "-n", "25")
	if !strings.Contains(out, "valid maximal matching") {
		t.Fatalf("output = %q", out)
	}
}

func TestLBAProtocols(t *testing.T) {
	out := runCLI(t, "-protocol", "lba-abc", "-word", "aabbcc")
	if !strings.Contains(out, "ACCEPT") {
		t.Fatalf("output = %q", out)
	}
	out = runCLI(t, "-protocol", "lba-abc", "-word", "aabc")
	if !strings.Contains(out, "REJECT") {
		t.Fatalf("output = %q", out)
	}
	out = runCLI(t, "-protocol", "lba-palindrome", "-word", "abba")
	if !strings.Contains(out, "ACCEPT") {
		t.Fatalf("output = %q", out)
	}
}

func TestGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-protocol", "mis", "-in", path)
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "valid MIS") {
		t.Fatalf("output = %q", out)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"-protocol", "nope"},
		{"-graph", "nope"},
		{"-protocol", "mis", "-engine", "nope"},
		{"-protocol", "mis", "-engine", "async", "-adversary", "nope"},
		{"-protocol", "lba-abc", "-word", "xyz"},
		{"-protocol", "color3", "-graph", "cycle", "-n", "9"},            // not a tree
		{"-protocol", "colevishkin", "-graph", "tree", "-n", "9"},        // not a path
		{"-protocol", "matching", "-graph", "cycle", "-engine", "async"}, // sync-only
		{"-protocol", "luby", "-graph", "cycle", "-trace", "/tmp/x"},     // bespoke engine: no trace
		{"-in", "/nonexistent/file"},
	}
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

// TestRegistryProtocolsRunThroughCLI drives every registered protocol
// through the generic CLI pipeline on a capability-compatible graph —
// no per-protocol CLI code exists to diverge.
func TestRegistryProtocolsRunThroughCLI(t *testing.T) {
	for _, d := range protocol.All() {
		fam := "gnp"
		switch {
		case d.Caps.Has(protocol.CapNeedsPath):
			fam = "path"
		case d.Caps.Has(protocol.CapNeedsTree):
			fam = "tree"
		}
		out := runCLI(t, "-protocol", d.Name, "-graph", fam, "-n", "24")
		if !strings.Contains(out, "valid ") {
			t.Errorf("%s: output = %q", d.Name, out)
		}
	}
}

// TestParamFlag drives the registry's parameter surface from the CLI:
// -param reaches ParamDef/ResolveArgs, and out-of-domain or unknown
// values surface the registry's errors.
func TestParamFlag(t *testing.T) {
	out := runCLI(t, "-protocol", "degcolor", "-param", "maxdeg=6", "-graph", "torus", "-n", "25")
	if !strings.Contains(out, "valid ") || !strings.Contains(out, "-coloring") {
		t.Fatalf("output = %q", out)
	}
	var sb strings.Builder
	for _, args := range [][]string{
		{"-protocol", "degcolor", "-param", "maxdeg=99", "-graph", "torus", "-n", "25"}, // outside domain
		{"-protocol", "degcolor", "-param", "turbo=1", "-graph", "torus", "-n", "25"},   // unknown name
		{"-protocol", "degcolor", "-param", "maxdeg", "-graph", "torus", "-n", "25"},    // malformed
		{"-protocol", "degcolor", "-param", "maxdeg=2", "-graph", "torus", "-n", "25"},  // Δ=4 > 2
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func TestProtocolsSubcommand(t *testing.T) {
	out := runCLI(t, "protocols")
	for _, want := range []string{"mis", "color3", "tree-only", "matching", "sync-only",
		"colevishkin", "path-only", "maxdeg∈[0,16]", "tolerates", "loss,dup,reorder"} {
		if !strings.Contains(out, want) {
			t.Fatalf("protocols output missing %q:\n%s", want, out)
		}
	}
	var infos []struct {
		Name         string   `json:"name"`
		Summary      string   `json:"summary"`
		Capabilities []string `json:"capabilities"`
		Tolerates    []string `json:"tolerates"`
	}
	if err := json.Unmarshal([]byte(runCLI(t, "protocols", "-json")), &infos); err != nil {
		t.Fatalf("protocols -json: %v", err)
	}
	if len(infos) < 10 {
		t.Fatalf("protocols -json lists only %d protocols", len(infos))
	}
	found := false
	for _, info := range infos {
		if info.Name == "color3" {
			found = true
			if len(info.Capabilities) != 1 || info.Capabilities[0] != "tree-only" {
				t.Fatalf("color3 capabilities = %v", info.Capabilities)
			}
		}
	}
	if !found {
		t.Fatal("color3 missing from protocols -json")
	}
}

// censusOutput is the toy protocol's own output type: protocols whose
// output is not one of the registry's shared vocabulary types bring
// their own (with Summary and a matching Mutate).
type censusOutput []bool

func (c censusOutput) Summary() string {
	return fmt.Sprintf("census of %d nodes", len(c))
}

// registerCLIToy registers a trivial bespoke protocol once: the
// acceptance check that one Register call is all it takes for a new
// protocol to appear in `stonesim protocols` and run through the CLI.
var registerCLIToy = sync.OnceValue(func() string {
	name := "toy-census"
	protocol.Register(&protocol.Descriptor{
		Name:    name,
		Summary: "test-only: one-round full-membership census",
		Caps:    protocol.CapSyncOnly,
		Solve: func(_ protocol.Args, g *graph.Graph, _ uint64, _ int) (*protocol.Run, error) {
			out := make(censusOutput, g.N())
			for v := range out {
				out[v] = true
			}
			return &protocol.Run{Output: out, Rounds: 1}, nil
		},
		Check: func(_ protocol.Args, g *graph.Graph, out protocol.Output) error {
			for v, in := range out.(censusOutput) {
				if !in {
					return fmt.Errorf("toy-census: node %d missing", v)
				}
			}
			return nil
		},
		Mutate: func(_ protocol.Args, _ *graph.Graph, out protocol.Output, src *xrand.Source) protocol.Output {
			c := out.(censusOutput)
			mut := make(censusOutput, len(c))
			copy(mut, c)
			mut[src.Intn(len(mut))] = false
			return mut
		},
	})
	return name
})

// TestToyProtocolAppearsEverywhere registers a toy protocol with a
// single Register call and checks it shows up in `stonesim protocols`
// and runs through the generic pipeline with zero CLI edits.
func TestToyProtocolAppearsEverywhere(t *testing.T) {
	name := registerCLIToy()
	if !strings.Contains(runCLI(t, "protocols"), name) {
		t.Fatalf("%s missing from stonesim protocols", name)
	}
	out := runCLI(t, "-protocol", name, "-graph", "cycle", "-n", "8")
	if !strings.Contains(out, "valid census of 8 nodes") {
		t.Fatalf("toy run output = %q", out)
	}
}

func TestAllGraphFamilies(t *testing.T) {
	for _, fam := range []string{"path", "cycle", "star", "clique", "grid", "torus",
		"tree", "binary", "caterpillar", "broom", "gnp", "lattice",
		"geometric", "powerlaw", "smallworld"} {
		out := runCLI(t, "-protocol", "mis", "-graph", fam, "-n", "16")
		if !strings.Contains(out, "valid MIS") {
			t.Errorf("family %s: output = %q", fam, out)
		}
	}
}

// writeSweepSpec drops a small campaign spec file for the sweep tests.
func writeSweepSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{
		"name": "cli-test",
		"protocols": ["mis"],
		"families": [{"kind": "gnp"}, {"kind": "powerlaw"}],
		"sizes": [16, 32],
		"trials": 4,
		"seed": 2
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSweepSubcommand(t *testing.T) {
	spec := writeSweepSpec(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	csvPath := filepath.Join(dir, "out.csv")
	out := runCLI(t, "sweep", "-spec", spec, "-json", jsonPath, "-csv", csvPath)
	for _, want := range []string{"cli-test", "mis: mean rounds", "powerlaw", "n=32", "4 cells × 4 trials"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
	jsonData, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsonData), `"roundsUnit": "rounds"`) {
		t.Fatalf("sweep JSON missing units: %.200s", jsonData)
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvData), "protocol,engine,scenario,channel,family,size,") {
		t.Fatalf("sweep CSV header = %.80q", csvData)
	}
	if got := strings.Count(strings.TrimSpace(string(csvData)), "\n"); got != 4 {
		t.Fatalf("sweep CSV has %d data rows, want 4", got)
	}
}

// TestScenarioFlag runs a dynamic single run end to end: the -scenario
// JSON generates a churn schedule, the run reports perturbations and
// recovery, the output validates against the final graph, and the
// -trace histogram carries the perturbed marker column.
func TestScenarioFlag(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "hist.csv")
	out := runCLI(t, "-protocol", "ssmis", "-graph", "gnp", "-n", "48", "-seed", "5",
		"-scenario", `{"kind":"churn","rate":2,"count":2,"every":16}`,
		"-trace", tracePath)
	for _, want := range []string{"dynamic: 2 perturbations", "recovered in", "valid MIS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenario run output missing %q:\n%s", want, out)
		}
	}
	hist, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(hist)), "\n")
	if !strings.HasSuffix(lines[0], ",perturbed") {
		t.Fatalf("trace header = %q", lines[0])
	}
	marks := 0
	for _, l := range lines[1:] {
		if strings.HasSuffix(l, ",1") {
			marks++
		}
	}
	if marks != 2 {
		t.Fatalf("trace carries %d perturbation markers, want 2", marks)
	}

	if out := runCLIErr(t, "-protocol", "matching", "-graph", "gnp", "-n", "16",
		"-scenario", `{"kind":"crash"}`); !strings.Contains(out, "bespoke engine") {
		t.Fatalf("bespoke scenario error = %q", out)
	}
	if out := runCLIErr(t, "-protocol", "mis", "-graph", "gnp", "-n", "16",
		"-scenario", `{"kind":"quake"}`); !strings.Contains(out, "unknown kind") {
		t.Fatalf("bad scenario error = %q", out)
	}
}

// TestChannelFlag runs lossy and Byzantine single runs end to end: the
// -channel JSON builds the model (and, for byz entries, the node set),
// the run reports the intervention counters, and the output still
// validates — ssmis declares tolerance for exactly these pathologies.
func TestChannelFlag(t *testing.T) {
	out := runCLI(t, "-protocol", "ssmis", "-graph", "gnp", "-n", "48", "-seed", "5",
		"-channel", `{"drop":0.2,"dup":0.2}`)
	for _, want := range []string{"channel:", "dropped", "duplicated", "valid MIS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("channel run output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 0 dropped") {
		t.Fatalf("20%% drop run dropped nothing:\n%s", out)
	}

	out = runCLI(t, "-protocol", "ssmis", "-graph", "cycle", "-n", "24", "-seed", "3",
		"-channel", `{"byz":[{"behavior":"silent","frac":0.1}]}`)
	if !strings.Contains(out, "3 byzantine nodes") || !strings.Contains(out, "valid MIS") {
		t.Fatalf("byzantine run output:\n%s", out)
	}

	if out := runCLIErr(t, "-protocol", "matching", "-graph", "gnp", "-n", "16",
		"-channel", `{"drop":0.1}`); !strings.Contains(out, "unreliable channels unsupported") {
		t.Fatalf("bespoke channel error = %q", out)
	}
	if out := runCLIErr(t, "-protocol", "mis", "-graph", "gnp", "-n", "16",
		"-channel", `{"drop":2}`); !strings.Contains(out, "drop") {
		t.Fatalf("bad channel error = %q", out)
	}
	if out := runCLIErr(t, "-protocol", "mis", "-graph", "gnp", "-n", "16",
		"-channel", `{"dorp":0.1}`); !strings.Contains(out, "unknown field") {
		t.Fatalf("unknown-field channel error = %q", out)
	}
}

// TestByzChannelWithScenario pins the flag combination the channel and
// scenario layers share: a byz-only -channel must merge its Byzantine
// nodes into the user's -scenario rather than clobbering it (or being
// clobbered), so the run is simultaneously dynamic and Byzantine.
func TestByzChannelWithScenario(t *testing.T) {
	out := runCLI(t, "-protocol", "ssmis", "-graph", "gnp", "-n", "48", "-seed", "5",
		"-scenario", `{"kind":"churn","rate":2,"count":2,"every":16}`,
		"-channel", `{"byz":[{"behavior":"silent","frac":0.1}]}`)
	for _, want := range []string{"dynamic: 2 perturbations", "5 byzantine nodes", "valid MIS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("byz+scenario run output missing %q:\n%s", want, out)
		}
	}
}

// TestTolerantSynchroFlag runs the loss-tolerant αβ hybrid from the
// command line: mis under 10% loss converges with -synchro tolerant
// (the plain α compilation deadlocks there — TestTolerantSurvivesLoss
// pins that at the synchro layer), and an unknown synchronizer name is
// rejected.
func TestTolerantSynchroFlag(t *testing.T) {
	out := runCLI(t, "-protocol", "mis", "-graph", "cycle", "-n", "16", "-seed", "41",
		"-engine", "async", "-synchro", "tolerant", "-channel", `{"drop":0.1}`)
	for _, want := range []string{"synchro tolerant", "valid MIS", "dropped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tolerant run output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 0 dropped") {
		t.Fatalf("10%% drop run dropped nothing:\n%s", out)
	}
	if out := runCLIErr(t, "-protocol", "mis", "-graph", "cycle", "-n", "8",
		"-engine", "async", "-synchro", "bogus"); !strings.Contains(out, "unknown synchronizer") {
		t.Fatalf("bad synchro error = %q", out)
	}
}

// TestVotedSynchroFlag runs the voted αβv tier from the command line:
// mis under 5% corruption converges with -synchro voted (the hybrid
// believes the flipped letters and mis-decodes there), and the voted
// diagnostics line reports the vote's work. The tuning flags must
// reach the engine: an aggressive -evict-after under Byzantine silence
// shows evicted edges.
func TestVotedSynchroFlag(t *testing.T) {
	out := runCLI(t, "-protocol", "mis", "-graph", "cycle", "-n", "16", "-seed", "41",
		"-engine", "async", "-synchro", "voted", "-channel", `{"corrupt":0.05}`)
	for _, want := range []string{"synchro voted", "valid MIS", "voted:", "corrupted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("voted run output missing %q:\n%s", want, out)
		}
	}
	out = runCLI(t, "-protocol", "mis", "-graph", "gnp", "-n", "24", "-seed", "13",
		"-engine", "async", "-synchro", "voted", "-vote-k", "2",
		"-channel", `{"byz":[{"behavior":"silent","frac":0.1}]}`)
	if !strings.Contains(out, "valid MIS") || strings.Contains(out, " 0 evicted") {
		t.Fatalf("byz-silent voted run did not evict and converge:\n%s", out)
	}
}

// TestChurnMISSpec pins the shipped dynamic-network spec: the sweep
// must run clean (every trial's output checked against its final
// graph) and report recovery tables for both mis and ssmis. Trials are
// cut down to keep the test fast; the aggregates still exercise the
// full protocol × scenario × family × size grid.
func TestChurnMISSpec(t *testing.T) {
	out := runCLI(t, "sweep", "-spec", "../../examples/specs/churn-mis.json", "-trials", "2")
	for _, want := range []string{
		"mis: mean recovery rounds", "ssmis: mean recovery rounds",
		"@churn", "@crash", "@wake", "@none",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("churn-mis sweep missing %q:\n%s", want, out)
		}
	}
}

// TestLossyMISSpec pins the shipped robustness spec: the sweep must
// run clean (pathology trials are rate samples, never fatal) and
// render one survival table per protocol next to the usual rounds
// tables.
func TestLossyMISSpec(t *testing.T) {
	out := runCLI(t, "sweep", "-spec", "../../examples/specs/lossy-mis.json", "-trials", "1")
	for _, want := range []string{
		"mis: converged/valid rate", "ssmis: converged/valid rate",
		"ch=none", "ch=drop-10", "ch=byz-babble",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("lossy-mis sweep missing %q:\n%s", want, out)
		}
	}
}

// TestSweepWorkerInvariance is the CLI-level acceptance check: the same
// spec at -workers 1 and -workers 4 emits identical JSON aggregates
// once the machine-dependent wall-clock stats and the workers echo are
// stripped.
func TestSweepWorkerInvariance(t *testing.T) {
	spec := writeSweepSpec(t)
	dir := t.TempDir()
	emit := func(workers string) string {
		path := filepath.Join(dir, "w"+workers+".json")
		runCLI(t, "sweep", "-spec", spec, "-q", "-workers", workers, "-json", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var res campaign.Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("sweep JSON: %v", err)
		}
		res.StripWall()
		res.Spec.Workers = 0
		var buf strings.Builder
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := emit("1"), emit("4"); a != b {
		t.Fatalf("sweep aggregates differ between -workers 1 and -workers 4:\n%s\n---\n%s", a, b)
	}
}

func TestSweepErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"sweep"}, &sb); err == nil {
		t.Error("sweep without -spec succeeded")
	}
	if err := run([]string{"sweep", "-spec", "/nonexistent/spec.json"}, &sb); err == nil {
		t.Error("sweep with missing spec file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"protocols": ["color3"], "families": [{"kind": "gnp"}], "sizes": [8], "trials": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"sweep", "-spec", bad}, &sb); err == nil ||
		!strings.Contains(err.Error(), "tree families") {
		t.Errorf("invalid spec error = %v", err)
	}
}

func TestTraceCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	out := runCLI(t, "-protocol", "mis", "-graph", "cycle", "-n", "12", "-trace", path)
	if !strings.Contains(out, "valid MIS") {
		t.Fatalf("output = %q", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "round,DOWN1,DOWN2,UP0") {
		t.Fatalf("trace header = %q", string(data)[:40])
	}
}

// TestWorkAndShardedSweep wires the dispatch layer through the CLI: a
// coordinator-less `work` run executes every cell into the work
// directory's spill files, and a subsequent `sweep -procs` over the
// same directory resumes all of them (zero re-runs, zero workers
// spawned) and merges output byte-identical to the plain in-process
// sweep once -stripwall removes the wall-clock stats.
func TestWorkAndShardedSweep(t *testing.T) {
	spec := writeSweepSpec(t)
	dir := t.TempDir()
	wd := filepath.Join(dir, "wd")

	refJSON := filepath.Join(dir, "ref.json")
	refCSV := filepath.Join(dir, "ref.csv")
	runCLI(t, "sweep", "-spec", spec, "-q", "-stripwall", "-json", refJSON, "-csv", refCSV)

	out := runCLI(t, "work", "-workdir", wd, "-spec", spec)
	if !strings.Contains(out, "worker done: 4 cells") {
		t.Fatalf("work output = %q, want 4 cells done", out)
	}

	gotJSON := filepath.Join(dir, "merged.json")
	gotCSV := filepath.Join(dir, "merged.csv")
	mout := runCLI(t, "sweep", "-spec", spec, "-procs", "3", "-workdir", wd,
		"-stripwall", "-json", gotJSON, "-csv", gotCSV)
	if !strings.Contains(mout, "resumed=4") || !strings.Contains(mout, "executed=0") {
		t.Fatalf("sharded sweep did not resume from spills:\n%s", mout)
	}
	for _, pair := range [][2]string{{refJSON, gotJSON}, {refCSV, gotCSV}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s and %s differ: sharded merge is not byte-identical", pair[0], pair[1])
		}
	}
}

// TestWorkErrors pins the work subcommand's argument contract.
func TestWorkErrors(t *testing.T) {
	if msg := runCLIErr(t, "work"); !strings.Contains(msg, "-workdir is required") {
		t.Fatalf("work without -workdir: %q", msg)
	}
	// A fresh directory with no spec.json and no -spec cannot know what
	// sweep to run.
	if msg := runCLIErr(t, "work", "-workdir", t.TempDir()); !strings.Contains(msg, "loading sweep spec") {
		t.Fatalf("work without a spec: %q", msg)
	}
}
