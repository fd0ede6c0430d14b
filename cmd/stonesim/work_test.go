package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// asStonesim makes a re-exec of the test binary run stonesim's main, so
// tests can drive real `stonesim` processes (and the workers a sweep
// spawns from os.Executable) without building a binary.
const asStonesim = "STONESIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asStonesim) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stonesimCmd is a stonesim process: a re-exec of this test binary.
func stonesimCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asStonesim+"=1")
	cmd.Stderr = os.Stderr
	return cmd
}

// TestWorkerSIGTERMDiesBySignal: a `stonesim work` process stopped by
// SIGTERM mid-cell releases its claim and then dies by the signal, so a
// parent sweep releases and requeues its cells as for SIGKILL instead
// of failing on an exit status. A sweep over the same directory then
// finishes the work and merges the same bytes as the in-process sweep.
func TestWorkerSIGTERMDiesBySignal(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs stonesim processes")
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"protocols": ["mis"],
		"families": [{"kind": "gnp"}, {"kind": "tree"}, {"kind": "cycle"}],
		"sizes": [1024, 2048, 4096],
		"trials": 20,
		"seed": 3
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	wd := filepath.Join(dir, "wd")

	worker := stonesimCmd("work", "-workdir", wd, "-spec", spec, "-q")
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	claims := filepath.Join(wd, "claims")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if held, _ := os.ReadDir(claims); len(held) > 0 {
			break
		}
		if time.Now().After(deadline) {
			worker.Process.Kill()
			t.Fatal("worker claimed no cell within 30s")
		}
	}
	if err := worker.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	worker.Wait()
	ws := worker.ProcessState.Sys().(syscall.WaitStatus)
	if !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Fatalf("worker exit = %v, want death by SIGTERM", worker.ProcessState)
	}
	if held, err := os.ReadDir(claims); err != nil || len(held) != 0 {
		t.Fatalf("claims left after SIGTERM: %d (%v)", len(held), err)
	}

	ref := filepath.Join(dir, "ref.json")
	runCLI(t, "sweep", "-spec", spec, "-q", "-stripwall", "-json", ref)
	merged := filepath.Join(dir, "merged.json")
	if out, err := stonesimCmd("sweep", "-spec", spec, "-procs", "1", "-workdir", wd,
		"-q", "-stripwall", "-json", merged).Output(); err != nil {
		t.Fatalf("sweep over the interrupted work directory: %v\n%s", err, out)
	}
	a, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("sweep resumed after SIGTERM is not byte-identical to the in-process sweep")
	}
}
