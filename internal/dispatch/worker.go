package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/protocol"
)

// Options parameterizes one worker (the `stonesim work` subcommand, or
// an in-process worker in tests and benchmarks).
type Options struct {
	// ID names the worker; it keys the spill file and the claim files.
	// Empty derives an id from the pid.
	ID string
	// WorkDir is the sweep's shared work directory.
	WorkDir string
	// Connect is the coordinator socket path. Empty selects
	// coordinator-less claim-directory mode: cells are claimed with
	// O_EXCL files under WorkDir/claims, finished cells get a marker
	// under WorkDir/done, and the worker exits when nothing is left to
	// claim.
	Connect string
	// Spec, when set, overrides WorkDir/spec.json (a standalone worker
	// seeding a fresh directory passes it; the directory is then
	// stamped so later workers need no spec of their own).
	Spec *campaign.Spec
	// LeaseTTL and Heartbeat mirror Config: how stale a claim must be
	// before it is stolen, and how often held leases are renewed.
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	// BeforeCell, when set, runs before each claimed cell executes.
	// Tests use it to slow cells down and to signal the instant a cell
	// is in flight.
	BeforeCell func(key string)
	// Log, when set, receives progress lines.
	Log io.Writer
}

// waitPoll is how often a worker with nothing claimable re-asks.
const waitPoll = 50 * time.Millisecond

// Work runs one worker until the sweep is finished, aborted or the
// context is canceled. It returns the number of cells this worker
// executed. Every finished cell is appended to the worker's spill file
// and fsync'd before it is acknowledged, so at most the in-flight cell
// is lost if the worker is killed; a context cancellation (SIGINT /
// SIGTERM in the CLI) stops at the next trial boundary with every
// finished cell already durable.
func Work(ctx context.Context, opts Options) (int, error) {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("w%d", os.Getpid())
	}
	if opts.WorkDir == "" {
		return 0, fmt.Errorf("dispatch: no work directory")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
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

	ids := sp.CellIDs()
	byKey := make(map[string]campaign.CellID, len(ids))
	for _, id := range ids {
		byKey[id.Key()] = id
	}
	spill, err := OpenSpill(opts.WorkDir, opts.ID)
	if err != nil {
		return 0, err
	}
	defer spill.Close()

	w := &worker{opts: opts, spec: sp, ids: ids, byKey: byKey, spill: spill, scratch: protocol.NewScratch()}
	if opts.Connect != "" {
		return w.workSocket(ctx)
	}
	return w.workClaims(ctx)
}

type worker struct {
	opts    Options
	spec    campaign.Spec
	ids     []campaign.CellID
	byKey   map[string]campaign.CellID
	spill   *SpillWriter
	scratch *protocol.Scratch
}

// runCell executes one claimed cell and spills it durably.
func (w *worker) runCell(ctx context.Context, key string) (campaign.CellResult, error) {
	id, ok := w.byKey[key]
	if !ok {
		return campaign.CellResult{}, fmt.Errorf("dispatch: coordinator assigned unknown cell %q", key)
	}
	if w.opts.BeforeCell != nil {
		w.opts.BeforeCell(key)
	}
	cr, err := campaign.RunCellContext(ctx, w.spec, id, w.scratch)
	if err != nil {
		return campaign.CellResult{}, err
	}
	if err := w.spill.Append(key, cr); err != nil {
		return campaign.CellResult{}, err
	}
	return cr, nil
}

// rpc pairs one request with one reply over the coordinator socket.
// The mutex serializes the main loop and the heartbeat goroutine, so
// replies never need routing.
type rpc struct {
	mu  sync.Mutex
	enc *json.Encoder
	dec *json.Decoder
}

func (r *rpc) call(m msg) (msg, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.enc.Encode(m); err != nil {
		return msg{}, fmt.Errorf("dispatch: sending %s: %w", m.Type, err)
	}
	var reply msg
	if err := r.dec.Decode(&reply); err != nil {
		return msg{}, fmt.Errorf("dispatch: awaiting %s reply: %w", m.Type, err)
	}
	return reply, nil
}

func (w *worker) workSocket(ctx context.Context) (int, error) {
	var conn net.Conn
	var err error
	for i := 0; ; i++ {
		conn, err = net.Dial("unix", w.opts.Connect)
		if err == nil {
			break
		}
		if i >= 20 {
			return 0, fmt.Errorf("dispatch: connecting to coordinator: %w", err)
		}
		time.Sleep(waitPoll)
	}
	defer conn.Close()
	r := &rpc{enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}

	reply, err := r.call(msg{Type: msgHello, Worker: w.opts.ID, Fingerprint: w.spec.Fingerprint()})
	if err != nil {
		return 0, err
	}
	if reply.Type != msgOK {
		return 0, fmt.Errorf("dispatch: coordinator rejected worker: %s", reply.Error)
	}

	// Heartbeats renew this worker's leases while a long cell runs —
	// the main loop holds no request open during execution, so the
	// shared rpc is free.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(w.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				r.call(msg{Type: msgHeartbeat, Worker: w.opts.ID})
			}
		}
	}()

	ran := 0
	for {
		if err := ctx.Err(); err != nil {
			return ran, fmt.Errorf("dispatch: interrupted: %w", err)
		}
		reply, err := r.call(msg{Type: msgNext, Worker: w.opts.ID})
		if err != nil {
			return ran, err
		}
		switch reply.Type {
		case msgDone:
			return ran, nil
		case msgAbort:
			return ran, fmt.Errorf("dispatch: sweep aborted: %s", reply.Error)
		case msgWait:
			select {
			case <-ctx.Done():
				return ran, fmt.Errorf("dispatch: interrupted: %w", ctx.Err())
			case <-time.After(waitPoll):
			}
		case msgCell:
			cr, err := w.runCell(ctx, reply.Key)
			if err != nil {
				if ctx.Err() != nil {
					// Interrupted mid-cell: exit without reporting failure;
					// the lease requeues and another worker (or a resumed
					// run) re-executes the cell.
					return ran, fmt.Errorf("dispatch: interrupted: %w", ctx.Err())
				}
				r.call(msg{Type: msgFailed, Worker: w.opts.ID, Key: reply.Key, Error: err.Error()})
				return ran, err
			}
			if _, err := r.call(msg{Type: msgResult, Worker: w.opts.ID, Key: reply.Key, Cell: &cr}); err != nil {
				return ran, err
			}
			ran++
		default:
			return ran, fmt.Errorf("dispatch: unexpected coordinator reply %q", reply.Type)
		}
	}
}

// workClaims is coordinator-less mode: scan the cell set, claim with
// O_EXCL, run, mark done. Claims whose mtime is staler than the lease
// TTL with no done marker belong to a dead worker and are stolen. The
// worker exits when every cell is done, or when the remainder is
// leased by live peers (they will finish; a later Run merges).
func (w *worker) workClaims(ctx context.Context) (int, error) {
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
		progress := false
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
			remaining++
			claimPath := filepath.Join(claimsDir(w.opts.WorkDir), h)
			if !w.claim(claimPath) {
				continue
			}
			if _, err := os.Stat(donePath); err == nil {
				// A peer finished the cell between the done check above
				// and the claim: it writes the marker before removing
				// its claim, so the marker is visible now. Release.
				os.Remove(claimPath)
				remaining--
				continue
			}
			setCurrent(claimPath)
			_, err := w.runCell(ctx, key)
			setCurrent("")
			if err != nil {
				// Leave the claim in place: it goes stale after the TTL
				// and a retry would fail the same way — better that a
				// peer steals it later than that peers thrash on it now.
				return ran, err
			}
			if err := os.WriteFile(donePath, []byte(key+"\n"), 0o644); err != nil {
				return ran, fmt.Errorf("dispatch: writing done marker: %w", err)
			}
			os.Remove(claimPath)
			ran++
			remaining--
			progress = true
		}
		if remaining == 0 {
			return ran, nil
		}
		if !progress {
			logf(w.opts.Log, "dispatch: worker %s: %d cells still leased by peers; exiting", w.opts.ID, remaining)
			return ran, nil
		}
	}
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
