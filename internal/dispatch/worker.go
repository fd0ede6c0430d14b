package dispatch

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/protocol"
)

// Options parameterizes one worker (the `stonesim work` subcommand, or
// an in-process worker in tests and benchmarks). A worker claims cells
// with O_EXCL files under WorkDir/claims, marks finished cells under
// WorkDir/done, and returns once every cell is done.
type Options struct {
	// ID names the worker; it keys the spill file and the claim files.
	// Empty derives an id from the pid.
	ID string
	// WorkDir is the sweep's shared work directory.
	WorkDir string
	// Spec, when set, overrides WorkDir/spec.json (a standalone worker
	// seeding a fresh directory passes it; the directory is then
	// stamped so later workers need no spec of their own).
	Spec *campaign.Spec
	// LeaseTTL and Heartbeat mirror Config: how stale a claim must be
	// before it is stolen, and how often the held claim is renewed.
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	// BeforeCell, when set, runs before each claimed cell executes.
	// Tests use it to slow cells down and to signal the instant a cell
	// is in flight.
	BeforeCell func(key string)
	// Log, when set, receives progress lines.
	Log io.Writer
}

// waitPoll is how often a worker with nothing claimable rescans the
// cell set.
const waitPoll = 50 * time.Millisecond

// Work runs one worker until every cell of the sweep has a done marker
// or the context is canceled. It returns the number of cells this
// worker executed. Every finished cell is appended to the worker's
// spill file and fsync'd before its done marker is written, so at most
// the in-flight cell is lost if the worker is killed; a context
// cancellation (SIGINT / SIGTERM in the CLI) releases the in-flight
// claim and stops at the next trial boundary with every finished cell
// already durable.
func Work(ctx context.Context, opts Options) (int, error) {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("w%d", os.Getpid())
	}
	if opts.WorkDir == "" {
		return 0, fmt.Errorf("dispatch: no work directory")
	}
	opts.LeaseTTL = leaseTTL(opts.LeaseTTL)
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.LeaseTTL / 3
	}

	var sp campaign.Spec
	if opts.Spec != nil {
		sp = *opts.Spec
		if err := sp.Validate(); err != nil {
			return 0, err
		}
	} else {
		var err error
		sp, err = campaign.LoadSpec(specPath(opts.WorkDir))
		if err != nil {
			return 0, fmt.Errorf("dispatch: loading sweep spec: %w", err)
		}
	}
	// Stamp or verify the directory before touching anything in it; a
	// mismatched fingerprint means these spills belong to another sweep.
	if err := prepareWorkDir(opts.WorkDir, sp); err != nil {
		return 0, err
	}

	spill, err := OpenSpill(opts.WorkDir, opts.ID)
	if err != nil {
		return 0, err
	}
	defer spill.Close()

	w := &worker{opts: opts, spec: sp, ids: sp.CellIDs(), spill: spill, scratch: protocol.NewScratch()}
	return w.work(ctx)
}

type worker struct {
	opts    Options
	spec    campaign.Spec
	ids     []campaign.CellID
	spill   *SpillWriter
	scratch *protocol.Scratch
}

// runCell executes one claimed cell and spills it durably.
func (w *worker) runCell(ctx context.Context, id campaign.CellID) error {
	if w.opts.BeforeCell != nil {
		w.opts.BeforeCell(id.Key())
	}
	cr, err := campaign.RunCellContext(ctx, w.spec, id, w.scratch)
	if err != nil {
		return err
	}
	return w.spill.Append(id.Key(), cr)
}

// work scans the cell set, claims with O_EXCL, runs, marks done.
// Claims whose mtime is staler than the lease TTL with no done marker
// belong to a dead or hung worker and are stolen. When the rest is
// claimed by peers the worker rescans every waitPoll, so a peer's claim
// that goes stale, or is released when its owner dies, is picked up.
func (w *worker) work(ctx context.Context) (int, error) {
	// The heartbeat goroutine touches whichever claim this worker
	// currently holds, keeping it unstealable during long cells.
	var hbMu sync.Mutex
	current := ""
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(w.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case now := <-t.C:
				hbMu.Lock()
				if current != "" {
					os.Chtimes(current, now, now)
				}
				hbMu.Unlock()
			}
		}
	}()
	setCurrent := func(p string) {
		hbMu.Lock()
		current = p
		hbMu.Unlock()
	}

	ran := 0
	for {
		remaining := 0
		for _, id := range w.ids {
			if err := ctx.Err(); err != nil {
				return ran, fmt.Errorf("dispatch: interrupted: %w", err)
			}
			key := id.Key()
			h := keyHash(key)
			donePath := filepath.Join(doneDir(w.opts.WorkDir), h)
			if _, err := os.Stat(donePath); err == nil {
				continue
			}
			claimPath := filepath.Join(claimsDir(w.opts.WorkDir), h)
			if !w.claim(claimPath) {
				remaining++
				continue
			}
			if _, err := os.Stat(donePath); err == nil {
				// A peer finished the cell between the done check above
				// and the claim: it writes the marker before removing
				// its claim, so the marker is visible now. Release.
				os.Remove(claimPath)
				continue
			}
			setCurrent(claimPath)
			err := w.runCell(ctx, id)
			setCurrent("")
			if err != nil {
				if ctx.Err() != nil {
					// Interrupted mid-cell: hand the cell back now, so a
					// resumed sweep need not wait out the lease.
					releaseClaim(claimPath, w.opts.ID)
					return ran, fmt.Errorf("dispatch: interrupted: %w", ctx.Err())
				}
				// Leave the claim in place: it goes stale after the TTL
				// and a retry would fail the same way — better that a
				// peer steals it later than that peers thrash on it now.
				return ran, err
			}
			if err := markDone(w.opts.WorkDir, key); err != nil {
				return ran, err
			}
			releaseClaim(claimPath, w.opts.ID)
			ran++
		}
		if remaining == 0 {
			return ran, nil
		}
		select {
		case <-ctx.Done():
			return ran, fmt.Errorf("dispatch: interrupted: %w", ctx.Err())
		case <-time.After(waitPoll):
		}
	}
}

// markDone writes key's done marker. The cell's spill record must
// already be durable: a marker retires the cell for every worker.
func markDone(dir, key string) error {
	if err := os.WriteFile(filepath.Join(doneDir(dir), keyHash(key)), []byte(key+"\n"), 0o644); err != nil {
		return fmt.Errorf("dispatch: writing done marker: %w", err)
	}
	return nil
}

// claim attempts to take a cell via O_EXCL creation, stealing a stale
// claim (dead owner: mtime past the TTL, cell not done) at most once.
// Concurrent stealers both remove the stale file, but the O_EXCL
// create serializes them — exactly one wins.
func (w *worker) claim(path string) bool {
	for try := 0; try < 2; try++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.WriteString(w.opts.ID + "\n")
			f.Close()
			return true
		}
		fi, serr := os.Stat(path)
		if serr != nil {
			continue // claim vanished (owner finished or a steal won); retry the create
		}
		if time.Since(fi.ModTime()) <= w.opts.LeaseTTL {
			return false // live claim
		}
		owner, _ := os.ReadFile(path)
		logf(w.opts.Log, "dispatch: worker %s: stealing stale claim %s (owner %s)",
			w.opts.ID, filepath.Base(path), strings.TrimSpace(string(owner)))
		os.Remove(path)
	}
	return false
}
