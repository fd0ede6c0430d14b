// Package dispatch shards a campaign across worker processes.
//
// The coordinator partitions a campaign.Spec into its canonical cell
// set, serves cells to workers over a JSON-lines protocol on a unix
// socket, and merges the finished cells — keyed by canonical cell
// identity — into a campaign.Result that is byte-identical (wall-clock
// stats aside) to a single-process campaign.Run of the same spec at
// any shard count. Workers append every finished cell to a per-worker
// spill file, fsync'd per record, so a SIGKILL'd worker loses at most
// its in-flight cell (the coordinator requeues its leases) and a
// killed coordinator resumes from the spills re-running zero finished
// cells.
//
// Workers can also run coordinator-less against a shared work
// directory (Work with no socket): cells are claimed via O_EXCL claim
// files, leases are renewed by touching the claim, and claims gone
// stale (older than the lease TTL with no done marker) are stolen. A
// later Run over the same directory finds every cell spilled and goes
// straight to the merge.
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stoneage/internal/campaign"
)

// Config parameterizes one coordinated sweep.
type Config struct {
	// Spec is the campaign to run.
	Spec campaign.Spec
	// WorkDir holds the sweep's durable state: the effective spec, the
	// spec fingerprint, per-worker spill files, the coordinator socket
	// and (claim-dir mode) the claims/ and done/ directories. Reusing a
	// WorkDir resumes the sweep it holds; a WorkDir holding a different
	// sweep (fingerprint mismatch) is rejected.
	WorkDir string
	// Procs is the number of worker processes (default 1).
	Procs int
	// LeaseTTL bounds how long a silent worker keeps its cell before
	// the janitor requeues it (default 15s). Heartbeat is the worker's
	// lease-renewal period (default LeaseTTL/3).
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

// Report describes how a coordinated sweep was executed.
type Report struct {
	// Cells is the size of the spec's cell set.
	Cells int
	// Resumed counts cells preloaded from spill files — finished by an
	// earlier run over the same WorkDir and not re-executed.
	Resumed int
	// Executed counts cells finished by this run's workers.
	Executed int
	// Requeued counts leases taken back from dead or silent workers.
	Requeued int
	// Procs is the worker-process count used (0 when every cell was
	// resumed and no worker was spawned).
	Procs int
}

// SocketPath returns the coordinator socket path under a work
// directory.
func SocketPath(dir string) string { return filepath.Join(dir, "coord.sock") }

func specPath(dir string) string        { return filepath.Join(dir, "spec.json") }
func fingerprintPath(dir string) string { return filepath.Join(dir, "fingerprint") }
func claimsDir(dir string) string       { return filepath.Join(dir, "claims") }
func doneDir(dir string) string         { return filepath.Join(dir, "done") }

// prepareWorkDir creates the work directory layout and stamps it with
// the spec's fingerprint, rejecting a directory already stamped by a
// different sweep (its spills could otherwise be merged as this one's
// checkpoint). The effective spec is persisted so workers — including
// coordinator-less ones started later — run exactly this sweep.
func prepareWorkDir(dir string, sp campaign.Spec) error {
	for _, d := range []string{dir, claimsDir(dir), doneDir(dir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fmt.Errorf("dispatch: preparing workdir: %w", err)
		}
	}
	// Claim-directory workers prepare the same directory concurrently,
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

// Run coordinates one sweep: it preloads finished cells from the work
// directory's spill files, serves the remaining cells to Procs workers
// over the coordinator socket, requeues cells from workers that die or
// go silent past their lease, and merges the finished set in canonical
// cell order. The merged result is byte-identical (wall-clock stats
// aside) to campaign.Run of the same spec regardless of Procs, worker
// crashes or how work was interleaved.
func Run(ctx context.Context, cfg Config) (*campaign.Result, Report, error) {
	var rep Report
	sp := cfg.Spec
	if err := sp.Validate(); err != nil {
		return nil, rep, err
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 3
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
	b := newBoard(ids, spilled)
	rep.Resumed = len(b.finished)
	if rep.Resumed > 0 {
		logf(cfg.Log, "dispatch: resumed %d/%d cells from %s", rep.Resumed, rep.Cells, cfg.WorkDir)
	}
	if b.done() {
		// Everything was already spilled — no workers, straight to the
		// merge (the resume path after a completed or nearly-killed run).
		res, err := campaign.Merge(sp, b.finishedCopy())
		return res, rep, err
	}
	rep.Procs = cfg.Procs

	sock := SocketPath(cfg.WorkDir)
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, rep, fmt.Errorf("dispatch: listening on %s: %w", sock, err)
	}
	defer ln.Close()
	defer os.Remove(sock)

	co := &coordinator{board: b, fp: sp.Fingerprint(), ttl: cfg.LeaseTTL, log: cfg.Log, conns: map[net.Conn]bool{}}
	go co.accept(ln)

	// The janitor requeues cells whose lease lapsed — a worker that
	// stopped heartbeating is treated as dead even if its connection
	// lingers. It stops itself when the board closes.
	go func() {
		t := time.NewTicker(cfg.LeaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-b.donec:
				return
			case now := <-t.C:
				if n := b.expire(now); n > 0 {
					logf(cfg.Log, "dispatch: requeued %d cells on lease expiry", n)
				}
			}
		}
	}()

	spawn := cfg.SpawnWorker
	if spawn == nil {
		spawn = spawnProcess
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	var wg sync.WaitGroup
	var live atomic.Int32
	for i := 0; i < cfg.Procs; i++ {
		opts := Options{
			ID:        fmt.Sprintf("w%d", i),
			WorkDir:   cfg.WorkDir,
			Connect:   sock,
			LeaseTTL:  cfg.LeaseTTL,
			Heartbeat: cfg.Heartbeat,
		}
		wait, err := spawn(wctx, opts)
		if err != nil {
			b.fail(fmt.Errorf("dispatch: spawning worker %s: %w", opts.ID, err))
			break
		}
		live.Add(1)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			werr := wait()
			// A dead worker's leases come back via the EOF path or the
			// janitor; the unrecoverable case is nobody left to serve.
			if live.Add(-1) == 0 && !b.done() {
				b.fail(fmt.Errorf("dispatch: all workers exited before the sweep finished (last: %v)", werr))
			}
		}(opts.ID)
	}

	select {
	case <-b.donec:
	case <-ctx.Done():
		b.fail(fmt.Errorf("dispatch: interrupted: %w", ctx.Err()))
	}

	// Let workers drain their final poll (they learn "done"/"abort" on
	// the next message), then force the stragglers out.
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(cfg.LeaseTTL):
	}
	wcancel()
	ln.Close()
	co.shutdown()
	select {
	case <-waited:
	case <-time.After(cfg.LeaseTTL):
		logf(cfg.Log, "dispatch: proceeding with unresponsive workers still running")
	}

	rep.Executed, rep.Requeued = b.counters()
	if err := b.failure(); err != nil {
		// A canceled context reports as an interruption even when a
		// worker-exit failure won the race to the board.
		if cerr := ctx.Err(); cerr != nil {
			return nil, rep, fmt.Errorf("dispatch: interrupted: %w", cerr)
		}
		return nil, rep, err
	}
	res, err := campaign.Merge(sp, b.finishedCopy())
	return res, rep, err
}

// spawnProcess is the default worker launcher: a re-exec of this
// binary's `work` subcommand pointed at the coordinator socket.
// Cancellation sends SIGTERM (the worker flushes and exits at the next
// trial boundary) with a hard kill only after WaitDelay.
func spawnProcess(ctx context.Context, opts Options) (func() error, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "work",
		"-workdir", opts.WorkDir, "-connect", opts.Connect, "-id", opts.ID,
		"-lease", opts.LeaseTTL.String(), "-heartbeat", opts.Heartbeat.String())
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd.Wait, nil
}

// coordinator serves the board over accepted connections.
type coordinator struct {
	board *board
	fp    string
	ttl   time.Duration
	log   io.Writer

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

func (co *coordinator) accept(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			conn.Close()
			return
		}
		co.conns[conn] = true
		co.mu.Unlock()
		go co.serve(conn)
	}
}

func (co *coordinator) shutdown() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.closed = true
	for c := range co.conns {
		c.Close()
	}
}

func (co *coordinator) drop(conn net.Conn) {
	co.mu.Lock()
	delete(co.conns, conn)
	co.mu.Unlock()
	conn.Close()
}

// serve handles one worker connection. A connection that closes — the
// worker exited, crashed or was SIGKILL'd — requeues every cell the
// worker still leased.
func (co *coordinator) serve(conn net.Conn) {
	defer co.drop(conn)
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	worker := ""
	defer func() {
		if worker == "" {
			return
		}
		if n := co.board.requeueWorker(worker); n > 0 {
			logf(co.log, "dispatch: requeued %d cells from dead worker %s", n, worker)
		}
	}()
	for {
		var m msg
		if dec.Decode(&m) != nil {
			return
		}
		var reply msg
		switch m.Type {
		case msgHello:
			if m.Worker == "" {
				reply = msg{Type: msgAbort, Error: "hello without a worker id"}
			} else if m.Fingerprint != co.fp {
				reply = msg{Type: msgAbort, Error: fmt.Sprintf("spec fingerprint mismatch: worker has %s, sweep is %s", m.Fingerprint, co.fp)}
			} else {
				worker = m.Worker
				reply = msg{Type: msgOK}
			}
		case msgNext:
			kind, key, errStr := co.board.next(worker, time.Now().Add(co.ttl))
			reply = msg{Type: kind, Key: key, Error: errStr}
		case msgResult:
			if m.Cell == nil {
				reply = msg{Type: msgAbort, Error: "result without a cell payload"}
			} else {
				co.board.result(m.Key, *m.Cell)
				reply = msg{Type: msgOK}
			}
		case msgFailed:
			co.board.fail(fmt.Errorf("dispatch: worker %s: %s", worker, m.Error))
			reply = msg{Type: msgOK}
		case msgHeartbeat:
			co.board.heartbeat(worker, time.Now().Add(co.ttl))
			reply = msg{Type: msgOK}
		default:
			reply = msg{Type: msgAbort, Error: fmt.Sprintf("unknown message %q", m.Type)}
		}
		if enc.Encode(reply) != nil {
			return
		}
	}
}

// board is the coordinator's cell ledger: the pending queue (canonical
// order), outstanding leases and finished results. donec closes when
// every cell is finished or the sweep has failed.
type board struct {
	mu       sync.Mutex
	pending  []string
	leases   map[string]lease
	finished map[string]campaign.CellResult
	total    int
	executed int
	requeued int
	err      error
	donec    chan struct{}
	closed   bool
}

type lease struct {
	worker   string
	deadline time.Time
}

// newBoard seeds the ledger: spilled results for known cells count as
// finished (foreign keys — impossible after the fingerprint guard, but
// cheap to exclude — are dropped), everything else queues in canonical
// order.
func newBoard(ids []campaign.CellID, spilled map[string]campaign.CellResult) *board {
	b := &board{
		leases:   map[string]lease{},
		finished: map[string]campaign.CellResult{},
		total:    len(ids),
		donec:    make(chan struct{}),
	}
	for _, id := range ids {
		key := id.Key()
		if cr, ok := spilled[key]; ok {
			b.finished[key] = cr
		} else {
			b.pending = append(b.pending, key)
		}
	}
	if len(b.finished) == b.total {
		b.close()
	}
	return b
}

// close closes donec once. Callers hold mu (or, for newBoard, have
// exclusive access).
func (b *board) close() {
	if !b.closed {
		b.closed = true
		close(b.donec)
	}
}

func (b *board) done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

func (b *board) next(worker string, deadline time.Time) (kind, key, errStr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.err != nil:
		return msgAbort, "", b.err.Error()
	case len(b.finished) == b.total:
		return msgDone, "", ""
	case len(b.pending) == 0:
		return msgWait, "", ""
	}
	key = b.pending[0]
	b.pending = b.pending[1:]
	b.leases[key] = lease{worker: worker, deadline: deadline}
	return msgCell, key, ""
}

// result records a finished cell. Duplicates (a lease requeued from a
// slow-but-alive worker that then finished anyway) are dropped —
// first result wins, and any two results for a cell are bit-identical
// apart from wall-clock stats.
func (b *board) result(key string, cr campaign.CellResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.leases, key)
	if _, ok := b.finished[key]; ok {
		return
	}
	b.finished[key] = cr
	b.executed++
	if len(b.finished) == b.total {
		b.close()
	}
}

func (b *board) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.err = err
	}
	b.close()
}

func (b *board) heartbeat(worker string, deadline time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for key, l := range b.leases {
		if l.worker == worker {
			b.leases[key] = lease{worker: worker, deadline: deadline}
		}
	}
}

// requeueWorker returns every cell the worker leased to the pending
// queue (EOF path: its connection closed).
func (b *board) requeueWorker(worker string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for key, l := range b.leases {
		if l.worker == worker {
			delete(b.leases, key)
			b.pending = append(b.pending, key)
			n++
		}
	}
	b.requeued += n
	return n
}

// expire requeues every lease past its deadline (janitor path: the
// worker went silent without its connection closing).
func (b *board) expire(now time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for key, l := range b.leases {
		if l.deadline.Before(now) {
			delete(b.leases, key)
			b.pending = append(b.pending, key)
			n++
		}
	}
	b.requeued += n
	return n
}

func (b *board) failure() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *board) counters() (executed, requeued int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.executed, b.requeued
}

func (b *board) finishedCopy() map[string]campaign.CellResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]campaign.CellResult, len(b.finished))
	for k, v := range b.finished {
		out[k] = v
	}
	return out
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
