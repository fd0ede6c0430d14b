// Package dispatch shards a campaign across worker processes.
//
// Workers coordinate through nothing but a shared work directory. A
// cell is claimed by O_EXCL-creating a claim file that names its owner;
// the owner's heartbeat touches the claim while the cell runs, a done
// marker retires it, and a claim staler than the lease TTL with no done
// marker is stolen by a live peer. Every finished cell is appended to
// the worker's spill file, fsync'd per record, so a SIGKILL'd worker
// loses at most its in-flight cell.
//
// Run spawns the workers, releases the claims of one that dies by a
// signal, and merges the spills — keyed by canonical cell identity —
// into a campaign.Result that is byte-identical (wall-clock stats
// aside) to a single-process campaign.Run of the same spec at any shard
// count. A later Run over the same directory resumes from the spills,
// re-running zero finished cells. Workers started by hand on several
// hosts that share the directory (Work) follow the same protocol, and a
// final Run merges their spills.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"stoneage/internal/campaign"
)

// Config parameterizes one sharded sweep.
type Config struct {
	// Spec is the campaign to run.
	Spec campaign.Spec
	// WorkDir holds the sweep's durable state: the effective spec, the
	// spec fingerprint, per-worker spill files and the claims/ and done/
	// directories. Reusing a WorkDir resumes the sweep it holds; a
	// WorkDir holding a different sweep (fingerprint mismatch) is
	// rejected.
	WorkDir string
	// Procs is the number of worker processes (default 1).
	Procs int
	// LeaseTTL bounds how long a silent worker keeps its claim before a
	// live peer steals it (default 15s). Heartbeat is the worker's
	// claim-renewal period (default LeaseTTL/3).
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	// SpawnWorker launches one worker and returns a function that
	// blocks until it exits. Nil re-execs this binary's `work`
	// subcommand; tests substitute in-process workers or killable
	// helper processes.
	SpawnWorker func(ctx context.Context, opts Options) (func() error, error)
	// Log, when set, receives progress lines.
	Log io.Writer
}

// Report describes how a sharded sweep was executed.
type Report struct {
	// Cells is the size of the spec's cell set.
	Cells int
	// Resumed counts cells preloaded from spill files — finished by an
	// earlier run over the same WorkDir and not re-executed.
	Resumed int
	// Executed counts cells finished by this run's workers.
	Executed int
	// Requeued counts claims released from workers killed by a signal.
	// A silent worker's claim is stolen by a peer instead, which logs
	// the steal.
	Requeued int
	// Procs is the worker-process count used (0 when every cell was
	// resumed and no worker was spawned).
	Procs int
}

func specPath(dir string) string        { return filepath.Join(dir, "spec.json") }
func fingerprintPath(dir string) string { return filepath.Join(dir, "fingerprint") }
func claimsDir(dir string) string       { return filepath.Join(dir, "claims") }
func doneDir(dir string) string         { return filepath.Join(dir, "done") }

// prepareWorkDir creates the work directory layout and stamps it with
// the spec's fingerprint, rejecting a directory already stamped by a
// different sweep (its spills could otherwise be merged as this one's
// checkpoint). The effective spec is persisted so workers — including
// ones started by hand later — run exactly this sweep.
func prepareWorkDir(dir string, sp campaign.Spec) error {
	for _, d := range []string{dir, claimsDir(dir), doneDir(dir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("dispatch: preparing workdir: %w", err)
		}
	}
	// Workers prepare the same directory concurrently,
	// so both files are created whole or not at all (writeOnce): a peer
	// never reads a half-written fingerprint as a different sweep.
	fp := sp.Fingerprint()
	if err := writeOnce(fingerprintPath(dir), []byte(fp+"\n")); err != nil {
		return fmt.Errorf("dispatch: stamping workdir: %w", err)
	}
	b, err := os.ReadFile(fingerprintPath(dir))
	if err != nil {
		return fmt.Errorf("dispatch: stamping workdir: %w", err)
	}
	if got := strings.TrimSpace(string(b)); got != fp {
		return fmt.Errorf("dispatch: workdir %s holds a different sweep (fingerprint %s, this spec %s); use a fresh directory", dir, got, fp)
	}
	if _, err := os.Stat(specPath(dir)); os.IsNotExist(err) {
		b, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			return fmt.Errorf("dispatch: encoding spec: %w", err)
		}
		if err := writeOnce(specPath(dir), append(b, '\n')); err != nil {
			return fmt.Errorf("dispatch: writing spec: %w", err)
		}
	}
	return nil
}

// writeOnce creates path with data unless it already exists. The data
// goes to a temporary file first and is hard-linked into place, so a
// concurrent reader sees either no file or the complete one, and of
// two concurrent writers exactly one wins.
func writeOnce(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Link(tmp.Name(), path); err != nil && !os.IsExist(err) {
		return err
	}
	return nil
}

// Run executes one sweep: it preloads finished cells from the work
// directory's spill files, spawns Procs workers to claim the rest,
// waits for them and merges the spills in canonical cell order. The
// merged result is byte-identical (wall-clock stats aside) to
// campaign.Run of the same spec regardless of Procs, worker deaths or
// how work was interleaved.
func Run(ctx context.Context, cfg Config) (*campaign.Result, Report, error) {
	var rep Report
	sp := cfg.Spec
	if err := sp.Validate(); err != nil {
		return nil, rep, err
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.WorkDir == "" {
		return nil, rep, fmt.Errorf("dispatch: no work directory")
	}
	if err := prepareWorkDir(cfg.WorkDir, sp); err != nil {
		return nil, rep, err
	}

	ids := sp.CellIDs()
	rep.Cells = len(ids)
	spilled, err := ReadSpills(cfg.WorkDir)
	if err != nil {
		return nil, rep, err
	}
	var resumed []string
	for _, id := range ids {
		if _, ok := spilled[id.Key()]; ok {
			resumed = append(resumed, id.Key())
		}
	}
	rep.Resumed = len(resumed)
	if rep.Resumed > 0 {
		logf(cfg.Log, "dispatch: resumed %d/%d cells from %s", rep.Resumed, rep.Cells, cfg.WorkDir)
	}
	if rep.Resumed < rep.Cells {
		// The spills are the durable record; a worker killed between its
		// spill fsync and its done marker leaves a cell that workers
		// would otherwise re-run.
		for _, key := range resumed {
			if err := markDone(cfg.WorkDir, key); err != nil {
				return nil, rep, err
			}
		}
		rep.Procs = cfg.Procs
		if err := runWorkers(ctx, cfg, &rep); err != nil {
			return nil, rep, err
		}
		if spilled, err = ReadSpills(cfg.WorkDir); err != nil {
			return nil, rep, err
		}
		for _, id := range ids {
			if _, ok := spilled[id.Key()]; ok {
				rep.Executed++
			}
		}
		rep.Executed -= rep.Resumed
	}
	res, err := campaign.Merge(sp, spilled)
	return res, rep, err
}

// runWorkers spawns cfg.Procs workers on the work directory and waits
// for every one of them. A worker that returns nil has seen every cell
// done; the rest are stopped if they have not followed within a lease
// TTL. A worker killed by a signal has its claims released at once for
// its live peers. Any other worker error stops the rest and fails the
// sweep.
func runWorkers(ctx context.Context, cfg Config, rep *Report) error {
	spawn := cfg.SpawnWorker
	if spawn == nil {
		spawn = spawnProcess
	}
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	type exit struct {
		id  string
		err error
	}
	exits := make(chan exit, cfg.Procs)
	live := 0
	var failure error
	for i := 0; i < cfg.Procs; i++ {
		opts := Options{
			ID:        fmt.Sprintf("w%d", i),
			WorkDir:   cfg.WorkDir,
			LeaseTTL:  cfg.LeaseTTL,
			Heartbeat: cfg.Heartbeat,
			Log:       cfg.Log,
		}
		wait, err := spawn(wctx, opts)
		if err != nil {
			failure = fmt.Errorf("dispatch: spawning worker %s: %w", opts.ID, err)
			stop()
			break
		}
		live++
		go func() { exits <- exit{opts.ID, wait()} }()
	}

	finished := false
	for ; live > 0; live-- {
		e := <-exits
		switch {
		case e.err == nil:
			// Peers see the done markers on their next poll and exit on
			// their own; one still running a lease TTL later is hung.
			if !finished {
				finished = true
				defer time.AfterFunc(leaseTTL(cfg.LeaseTTL), stop).Stop()
			}
		case finished || failure != nil || ctx.Err() != nil:
			// Stopped by this run or its caller; what it finished is
			// spilled, and it released its in-flight claim.
		case killedBySignal(e.err):
			n, err := releaseClaims(cfg.WorkDir, e.id)
			rep.Requeued += n
			logf(cfg.Log, "dispatch: worker %s died (%v); released %d claims", e.id, e.err, n)
			if err != nil {
				failure = err
				stop()
			} else if live == 1 {
				failure = fmt.Errorf("dispatch: all workers exited before the sweep finished (last: %v)", e.err)
			}
		default:
			failure = fmt.Errorf("dispatch: worker %s: %w", e.id, e.err)
			stop()
		}
	}
	switch {
	case finished:
		return nil
	case ctx.Err() != nil:
		return fmt.Errorf("dispatch: interrupted: %w", ctx.Err())
	}
	return failure
}

// defaultLeaseTTL is the lease TTL when Config and Options leave it 0.
const defaultLeaseTTL = 15 * time.Second

func leaseTTL(d time.Duration) time.Duration {
	if d <= 0 {
		return defaultLeaseTTL
	}
	return d
}

// killedBySignal reports whether a worker's exit error is a process
// death by a signal (SIGKILL, a crash), as opposed to an error the
// worker returned.
func killedBySignal(err error) bool {
	var ee *exec.ExitError
	return errors.As(err, &ee) && ee.ExitCode() == -1
}

// releaseClaims removes every claim under dir held by owner.
func releaseClaims(dir, owner string) (int, error) {
	entries, err := os.ReadDir(claimsDir(dir))
	if err != nil {
		return 0, fmt.Errorf("dispatch: releasing claims of %s: %w", owner, err)
	}
	n := 0
	for _, e := range entries {
		if releaseClaim(filepath.Join(claimsDir(dir), e.Name()), owner) {
			n++
		}
	}
	return n, nil
}

// releaseClaim removes the claim at path if owner holds it. A claim
// stolen since (it names another worker) is left to its new owner.
func releaseClaim(path, owner string) bool {
	b, err := os.ReadFile(path)
	if err != nil || strings.TrimSpace(string(b)) != owner {
		return false
	}
	return os.Remove(path) == nil
}

// spawnProcess is the default worker launcher: a re-exec of this
// binary's `work` subcommand on the work directory. Cancellation sends
// SIGTERM (the worker releases its in-flight claim and exits at the
// next trial boundary) with a hard kill only after WaitDelay.
func spawnProcess(ctx context.Context, opts Options) (func() error, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"work", "-workdir", opts.WorkDir, "-id", opts.ID,
		"-lease", opts.LeaseTTL.String(), "-heartbeat", opts.Heartbeat.String()}
	if opts.Log == nil {
		args = append(args, "-q")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd.Wait, nil
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
