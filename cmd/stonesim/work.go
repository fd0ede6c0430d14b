package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/dispatch"
)

// runWork is the `stonesim work` subcommand: one sweep worker on a
// shared work directory, claiming cells via O_EXCL claim files. `stonesim
// sweep -procs N` re-execs N of them; run by hand, several machines
// sharing a filesystem can each run one, and a final `stonesim sweep
// -procs 1 -workdir D` merges the spills. The worker returns once every
// cell is done, stealing claims that peers stopped renewing.
// SIGINT/SIGTERM releases the in-flight claim and stops at the next
// trial boundary; every finished cell is already fsync'd in this
// worker's spill file. The worker then dies by the signal it caught, so
// a parent sweep treats it like any worker killed by a signal: it
// releases the worker's claims and its live peers carry on.
func runWork(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stonesim work", flag.ContinueOnError)
	workdir := fs.String("workdir", "", "sweep work directory (required)")
	id := fs.String("id", "", "worker id (default derives from the pid); keys the spill file and claims")
	spec := fs.String("spec", "", "campaign spec file; default reads <workdir>/spec.json (a fresh directory requires one, and is then stamped for later workers)")
	lease := fs.Duration("lease", 0, "lease TTL before a silent worker's claims are stolen (default 15s)")
	heartbeat := fs.Duration("heartbeat", 0, "lease renewal period (default lease/3)")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workdir == "" {
		return fmt.Errorf("work: -workdir is required")
	}
	opts := dispatch.Options{
		ID:        *id,
		WorkDir:   *workdir,
		LeaseTTL:  *lease,
		Heartbeat: *heartbeat,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *spec != "" {
		sp, err := campaign.LoadSpec(*spec)
		if err != nil {
			return err
		}
		opts.Spec = &sp
	}

	// caught receives the stopping signal too, so it can be re-raised.
	caught := make(chan os.Signal, 1)
	signal.Notify(caught, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(caught)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	ran, err := dispatch.Work(ctx, opts)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "worker interrupted: %d finished cells are durable in %s; the in-flight cell was released\n", ran, *workdir)
			reraise(<-caught)
		}
		return err
	}
	if !*quiet {
		fmt.Fprintf(w, "worker done: %d cells in %v\n", ran, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// reraise restores sig's default action and sends it to this process,
// which then dies by it; a caller that was not killed gets control back
// after a grace period.
func reraise(sig os.Signal) {
	signal.Reset(sig)
	if p, err := os.FindProcess(os.Getpid()); err == nil && p.Signal(sig) == nil {
		time.Sleep(time.Second)
	}
}
