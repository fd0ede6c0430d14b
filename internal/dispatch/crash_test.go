package dispatch

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stoneage/internal/campaign"
)

// TestHelperWorker is not a test: it is the body of the worker
// processes TestWorkerKillRetry re-execs (the standard re-exec helper
// pattern — the env guard keeps it inert in a normal test run).
func TestHelperWorker(t *testing.T) {
	if os.Getenv("STONEAGE_WORKER_HELPER") != "1" {
		t.Skip("helper process body; driven by TestWorkerKillRetry")
	}
	opts := Options{
		ID:      os.Getenv("WORKER_ID"),
		WorkDir: os.Getenv("WORKER_DIR"),
	}
	if d, err := time.ParseDuration(os.Getenv("WORKER_START_DELAY")); err == nil {
		time.Sleep(d)
	}
	if os.Getenv("WORKER_SLOW") == "1" {
		// The doomed worker telegraphs the instant a cell is in flight
		// (claimed, unfinished) and then stalls in it, giving the driver
		// a deterministic window to SIGKILL mid-cell.
		opts.BeforeCell = func(key string) {
			os.WriteFile(filepath.Join(opts.WorkDir, "beacon-"+opts.ID), []byte(key+"\n"), 0o644)
			time.Sleep(10 * time.Second)
		}
	} else {
		// The others hold their first cell until the doomed worker has
		// one in flight (bounded), so they cannot drain the sweep before
		// it claims a cell however late it starts.
		opts.BeforeCell = func(string) {
			beacon := filepath.Join(opts.WorkDir, "beacon-w0")
			for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
				if _, err := os.Stat(beacon); err == nil {
					return
				}
			}
		}
	}
	if _, err := Work(context.Background(), opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// TestWorkerKillRetry is the worker-failure drill the issue demands: a
// 3-process sweep, one worker SIGKILL'd while it holds a cell
// mid-execution. Run must release the dead worker's claim for its live
// peers and the merged output must remain byte-identical to the
// single-process run.
func TestWorkerKillRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs worker processes")
	}
	sp := staticSpec()
	dir := t.TempDir()

	var mu sync.Mutex
	var victim *exec.Cmd
	spawn := func(ctx context.Context, o Options) (func() error, error) {
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "^TestHelperWorker$")
		cmd.Env = append(os.Environ(),
			"STONEAGE_WORKER_HELPER=1",
			"WORKER_ID="+o.ID,
			"WORKER_DIR="+o.WorkDir,
		)
		if o.ID == "w0" {
			// The victim starts late, as on a loaded host.
			cmd.Env = append(cmd.Env, "WORKER_SLOW=1", "WORKER_START_DELAY=3s")
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		if o.ID == "w0" {
			mu.Lock()
			victim = cmd
			mu.Unlock()
		}
		return cmd.Wait, nil
	}

	// Kill w0 the moment its beacon shows a cell in flight.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		beacon := filepath.Join(dir, "beacon-w0")
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := os.Stat(beacon); err == nil {
				mu.Lock()
				cmd := victim
				mu.Unlock()
				if cmd != nil {
					cmd.Process.Kill()
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	res, rep, err := Run(context.Background(), Config{
		Spec:        sp,
		WorkDir:     dir,
		Procs:       3,
		SpawnWorker: spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	if rep.Requeued < 1 {
		t.Fatalf("report %+v: the killed worker's cell was never requeued", rep)
	}
	if rep.Executed+rep.Resumed != rep.Cells {
		t.Fatalf("report %+v: cells unaccounted for", rep)
	}

	base, err := campaign.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := emit(t, base)
	gotJSON, gotCSV := emit(t, res)
	if gotJSON != wantJSON {
		t.Fatal("merged JSON after worker kill differs from single-process run")
	}
	if gotCSV != wantCSV {
		t.Fatal("merged CSV after worker kill differs from single-process run")
	}
}
