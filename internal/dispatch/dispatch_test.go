package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/channel"
	_ "stoneage/internal/protocol/std"
	"stoneage/internal/scenario"
)

// staticSpec is the plain sweep: two protocols, two families, two
// sizes, no dynamic axes.
func staticSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "dispatch-static",
		Protocols: []string{"mis", "ssmis"},
		Families:  []campaign.Family{{Kind: "gnp"}, {Kind: "cycle"}},
		Sizes:     []int{16, 24},
		Trials:    2,
		Seed:      7,
	}
}

// axesSpec exercises the scenario and channel axes — the acceptance
// criterion's second spec shape.
func axesSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "dispatch-axes",
		Protocols: []string{"mis"},
		Families:  []campaign.Family{{Kind: "gnp"}},
		Sizes:     []int{16, 24},
		Trials:    2,
		Seed:      9,
		Scenarios: []scenario.Def{{Kind: "none"}, {Kind: "churn", Rate: 2, Count: 2, At: scenario.Round(4), Every: 16}},
		Channels:  []channel.Def{{}, {Drop: 0.2, Label: "lossy"}},
		MaxRounds: 1 << 14,
	}
}

// inprocSpawn runs workers as goroutines in this process — same claim
// files, same spill files, no exec.
func inprocSpawn() func(ctx context.Context, o Options) (func() error, error) {
	return func(ctx context.Context, o Options) (func() error, error) {
		errc := make(chan error, 1)
		go func() {
			_, err := Work(ctx, o)
			errc <- err
		}()
		return func() error { return <-errc }, nil
	}
}

// emit renders a result to its exact JSON and CSV bytes after
// stripping machine-dependent wall-clock stats.
func emit(t *testing.T, res *campaign.Result) (string, string) {
	t.Helper()
	res.StripWall()
	var j, c bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// TestShardedByteIdentity is the central invariant: the sharded
// sweep's merged emitter output is byte-identical to the
// single-process campaign.Run at proc counts 1, 2 and 4, for a static
// spec and for one sweeping scenario and channel axes.
func TestShardedByteIdentity(t *testing.T) {
	for _, spec := range []campaign.Spec{staticSpec(), axesSpec()} {
		sp := spec
		t.Run(sp.Name, func(t *testing.T) {
			base, err := campaign.Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, wantCSV := emit(t, base)
			for _, procs := range []int{1, 2, 4} {
				res, rep, err := Run(context.Background(), Config{
					Spec:        sp,
					WorkDir:     t.TempDir(),
					Procs:       procs,
					SpawnWorker: inprocSpawn(),
				})
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if rep.Executed != rep.Cells || rep.Resumed != 0 {
					t.Fatalf("procs=%d: report %+v, want all %d cells executed fresh", procs, rep, rep.Cells)
				}
				gotJSON, gotCSV := emit(t, res)
				if gotJSON != wantJSON {
					t.Fatalf("procs=%d: merged JSON differs from single-process run", procs)
				}
				if gotCSV != wantCSV {
					t.Fatalf("procs=%d: merged CSV differs from single-process run", procs)
				}
			}
		})
	}
}

// TestResumeFromSpills pins the checkpoint contract: a second Run over
// a finished work directory re-executes zero cells, spawns zero
// workers, and produces byte-identical output.
func TestResumeFromSpills(t *testing.T) {
	sp := staticSpec()
	dir := t.TempDir()
	first, _, err := Run(context.Background(), Config{Spec: sp, WorkDir: dir, Procs: 2, SpawnWorker: inprocSpawn()})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, first)

	res, rep, err := Run(context.Background(), Config{Spec: sp, WorkDir: dir, Procs: 2, SpawnWorker: inprocSpawn()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 || rep.Resumed != rep.Cells || rep.Procs != 0 {
		t.Fatalf("resume report %+v, want 0 executed / %d resumed / 0 procs", rep, rep.Cells)
	}
	gotJSON, gotCSV := emit(t, res)
	if gotJSON != wantJSON || gotCSV != wantCSV {
		t.Fatal("resumed output differs from the original run")
	}
}

// TestPartialResume: cells pre-spilled by an earlier (here: simulated)
// run are not re-executed; only the remainder is.
func TestPartialResume(t *testing.T) {
	sp := staticSpec()
	dir := t.TempDir()
	if err := prepareWorkDir(dir, sp); err != nil {
		t.Fatal(err)
	}
	ids := sp.CellIDs()
	pre := 3
	spill, err := OpenSpill(dir, "old")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:pre] {
		cr, err := campaign.RunCell(sp, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := spill.Append(id.Key(), cr); err != nil {
			t.Fatal(err)
		}
	}
	spill.Close()

	res, rep, err := Run(context.Background(), Config{Spec: sp, WorkDir: dir, Procs: 2, SpawnWorker: inprocSpawn()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != pre || rep.Executed != len(ids)-pre {
		t.Fatalf("report %+v, want %d resumed / %d executed", rep, pre, len(ids)-pre)
	}
	base, err := campaign.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := emit(t, base)
	gotJSON, _ := emit(t, res)
	if gotJSON != wantJSON {
		t.Fatal("partially resumed output differs from single-process run")
	}
}

// TestClaimDirWorkers runs two hand-started workers against a shared
// directory, then merges their spills via a zero-pending Run — the
// shared-filesystem deployment with no parent process.
func TestClaimDirWorkers(t *testing.T) {
	sp := staticSpec()
	dir := t.TempDir()
	var wg sync.WaitGroup
	ran := make([]int, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ran[i], errs[i] = Work(context.Background(), Options{
				ID: fmt.Sprintf("claim%d", i), WorkDir: dir, Spec: &sp,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	total := len(sp.CellIDs())
	if ran[0]+ran[1] != total {
		t.Fatalf("workers ran %d + %d cells, want %d total", ran[0], ran[1], total)
	}

	res, rep, err := Run(context.Background(), Config{Spec: sp, WorkDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != total || rep.Executed != 0 {
		t.Fatalf("merge report %+v, want all %d cells from spills", rep, total)
	}
	base, err := campaign.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, base)
	gotJSON, gotCSV := emit(t, res)
	if gotJSON != wantJSON || gotCSV != wantCSV {
		t.Fatal("claim-dir merged output differs from single-process run")
	}
}

// TestStaleClaimSteal: a claim left by a dead worker (old mtime, no
// done marker) must not wedge the sweep — a later worker steals it.
func TestStaleClaimSteal(t *testing.T) {
	sp := staticSpec()
	dir := t.TempDir()
	if err := prepareWorkDir(dir, sp); err != nil {
		t.Fatal(err)
	}
	key := sp.CellIDs()[0].Key()
	stale := filepath.Join(claimsDir(dir), keyHash(key))
	if err := os.WriteFile(stale, []byte("dead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	ran, err := Work(context.Background(), Options{ID: "thief", WorkDir: dir, Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sp.CellIDs()); ran != want {
		t.Fatalf("worker ran %d cells, want %d (stale claim not stolen?)", ran, want)
	}
}

// TestSpillTruncation: a torn final line (worker killed mid-write)
// must not lose the intact records before it.
func TestSpillTruncation(t *testing.T) {
	sp := staticSpec()
	dir := t.TempDir()
	id := sp.CellIDs()[0]
	cr, err := campaign.RunCell(sp, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	spill, err := OpenSpill(dir, "torn")
	if err != nil {
		t.Fatal(err)
	}
	if err := spill.Append(id.Key(), cr); err != nil {
		t.Fatal(err)
	}
	spill.Close()
	f, err := os.OpenFile(filepath.Join(dir, "spill-torn.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"mis|sync|none|none|gnp`)
	f.Close()

	got, err := ReadSpills(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d records from torn spill, want 1", len(got))
	}
	if _, ok := got[id.Key()]; !ok {
		t.Fatalf("intact record missing from torn spill")
	}
}

// TestFingerprintGuard: a work directory stamped by one sweep rejects
// another (its spills must never be merged as the wrong checkpoint).
func TestFingerprintGuard(t *testing.T) {
	a := staticSpec()
	dir := t.TempDir()
	if err := prepareWorkDir(dir, a); err != nil {
		t.Fatal(err)
	}
	b := staticSpec()
	b.Seed++
	_, _, err := Run(context.Background(), Config{Spec: b, WorkDir: dir, SpawnWorker: inprocSpawn()})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("mismatched workdir accepted: %v", err)
	}
}

// TestCellFailureAborts: a hard trial failure (reliable axis, budget
// exhausted) aborts the whole sweep with the cell's error.
func TestCellFailureAborts(t *testing.T) {
	sp := campaign.Spec{
		Protocols: []string{"mis"},
		Families:  []campaign.Family{{Kind: "gnp"}},
		Sizes:     []int{64},
		Trials:    1,
		Seed:      1,
		MaxRounds: 1,
	}
	_, _, err := Run(context.Background(), Config{
		Spec: sp, WorkDir: t.TempDir(), Procs: 2, SpawnWorker: inprocSpawn(),
	})
	if err == nil || !strings.Contains(err.Error(), "mis") {
		t.Fatalf("failing sweep returned %v, want the cell's error", err)
	}
}

// TestInterrupt: a canceled Run returns an interrupted error,
// not a partial merge; the finished cells stay durable for resume and
// no claim is left behind.
func TestInterrupt(t *testing.T) {
	sp := staticSpec()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	spawn := func(sctx context.Context, o Options) (func() error, error) {
		o.BeforeCell = func(string) {
			once.Do(func() { close(started) })
			time.Sleep(20 * time.Millisecond)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := Work(sctx, o)
			errc <- err
		}()
		return func() error { return <-errc }, nil
	}
	go func() {
		<-started
		cancel()
	}()
	_, _, err := Run(ctx, Config{Spec: sp, WorkDir: dir, Procs: 1, SpawnWorker: spawn})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted run returned %v", err)
	}
	// The interrupted worker handed back its in-flight claim, so the
	// resume below waits out no lease.
	if left, err := os.ReadDir(claimsDir(dir)); err != nil || len(left) != 0 {
		t.Fatalf("claims left after interrupt: %d (%v)", len(left), err)
	}

	// The durable spills plus fresh workers finish the sweep on resume.
	res, _, err := Run(context.Background(), Config{Spec: sp, WorkDir: dir, Procs: 2, SpawnWorker: inprocSpawn()})
	if err != nil {
		t.Fatal(err)
	}
	base, err := campaign.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := emit(t, base)
	gotJSON, _ := emit(t, res)
	if gotJSON != wantJSON {
		t.Fatal("post-interrupt resume differs from single-process run")
	}
}

// TestSilentWorkerClaimStolen: a worker that holds a claim but stops
// renewing it (hung, heartbeat far longer than the lease) must not
// wedge the sweep — its live peer steals the stale claim and finishes.
func TestSilentWorkerClaimStolen(t *testing.T) {
	sp := staticSpec()
	inFlight := make(chan struct{})
	var once sync.Once
	var silentRan atomic.Int64
	spawn := func(ctx context.Context, o Options) (func() error, error) {
		if o.ID == "w0" {
			o.Heartbeat = time.Hour
			o.BeforeCell = func(string) {
				once.Do(func() { close(inFlight) })
				<-ctx.Done()
			}
		} else {
			// Hold the first cell until w0 has one in flight, so the
			// sweep cannot finish before w0 claims a cell.
			o.BeforeCell = func(string) { <-inFlight }
		}
		errc := make(chan error, 1)
		go func() {
			n, err := Work(ctx, o)
			if o.ID == "w0" {
				silentRan.Store(int64(n))
			}
			errc <- err
		}()
		return func() error { return <-errc }, nil
	}
	res, rep, err := Run(context.Background(), Config{
		Spec:        sp,
		WorkDir:     t.TempDir(),
		Procs:       2,
		LeaseTTL:    300 * time.Millisecond,
		SpawnWorker: spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := silentRan.Load(); n != 0 {
		t.Fatalf("silent worker finished %d cells, want 0", n)
	}
	if rep.Executed != rep.Cells {
		t.Fatalf("report %+v: the silent worker's cell was not stolen", rep)
	}
	base, err := campaign.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, base)
	gotJSON, gotCSV := emit(t, res)
	if gotJSON != wantJSON {
		t.Fatal("merged JSON after a claim steal differs from single-process run")
	}
	if gotCSV != wantCSV {
		t.Fatal("merged CSV after a claim steal differs from single-process run")
	}
}
