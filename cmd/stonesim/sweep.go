package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"stoneage/internal/campaign"
	"stoneage/internal/dispatch"
)

// runSweep is the `stonesim sweep` subcommand: load a campaign spec,
// run it — in-process by default, or sharded over -procs worker
// processes that claim cells from a shared work directory
// (internal/dispatch) — print the
// per-protocol tables, and optionally emit the full aggregates as JSON
// and/or CSV. SIGINT/SIGTERM cancels in-flight work at the next trial
// boundary; a sharded sweep keeps its finished cells durable in the
// work directory and resumes from them on the next run.
func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stonesim sweep", flag.ContinueOnError)
	spec := fs.String("spec", "", "campaign spec file (JSON; see examples/specs)")
	workers := fs.Int("workers", -1, "override the spec's trial worker pool size (0 = GOMAXPROCS, -1 = keep the spec's); aggregates are identical for every value")
	trials := fs.Int("trials", 0, "override the spec's trial count")
	seed := fs.Uint64("seed", 0, "override the spec's seed (0 keeps the spec's)")
	procs := fs.Int("procs", 0, "shard the sweep over this many worker processes (0 = in-process); merged output is byte-identical at every count")
	workdir := fs.String("workdir", "", "work directory for -procs mode (spills, claims, checkpoint); default derives from the spec fingerprint under the system temp dir; reuse it to resume an interrupted sweep")
	stripWall := fs.Bool("stripwall", false, "zero the machine-dependent wall-clock aggregates before emitting (byte-identical outputs across machines and shard counts)")
	jsonOut := fs.String("json", "", "write the aggregate results as JSON to this file")
	csvOut := fs.String("csv", "", "write the aggregate results as CSV to this file")
	quiet := fs.Bool("q", false, "suppress the tables (emitters only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("sweep: -spec is required (see examples/specs)")
	}
	sp, err := campaign.LoadSpec(*spec)
	if err != nil {
		return err
	}
	if *workers >= 0 {
		sp.Workers = *workers
	}
	if *trials != 0 {
		sp.Trials = *trials
	}
	if *seed != 0 {
		sp.Seed = *seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		res *campaign.Result
		rep dispatch.Report
	)
	start := time.Now()
	if *procs > 0 {
		dir := *workdir
		if dir == "" {
			dir = filepath.Join(os.TempDir(), "stonesim-sweep-"+sp.Fingerprint())
		}
		var dlog io.Writer
		if !*quiet {
			dlog = os.Stderr
		}
		res, rep, err = dispatch.Run(ctx, dispatch.Config{
			Spec: sp, WorkDir: dir, Procs: *procs, Log: dlog,
		})
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "sweep interrupted: finished cells are kept in %s; re-run with the same -spec and -workdir %s to resume\n", dir, dir)
			}
			return err
		}
	} else {
		res, err = campaign.RunContext(ctx, sp)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "sweep interrupted: in-flight work canceled, no partial results (use -procs for a resumable sweep)")
			}
			return err
		}
	}
	elapsed := time.Since(start)

	if *stripWall {
		res.StripWall()
	}
	if !*quiet {
		for _, t := range res.Tables() {
			if err := t.Render(w); err != nil {
				return err
			}
		}
		if *procs > 0 {
			fmt.Fprintf(w, "%d cells × %d trials in %v (procs=%d, executed=%d, resumed=%d, requeued=%d)\n",
				len(res.Cells), sp.Trials, elapsed.Round(time.Millisecond),
				rep.Procs, rep.Executed, rep.Resumed, rep.Requeued)
		} else {
			eff := sp.Workers
			if eff <= 0 {
				eff = runtime.GOMAXPROCS(0)
			}
			fmt.Fprintf(w, "%d cells × %d trials in %v (workers=%d)\n",
				len(res.Cells), sp.Trials, elapsed.Round(time.Millisecond), eff)
		}
	}
	if *jsonOut != "" {
		if err := writeTo(*jsonOut, res.WriteJSON); err != nil {
			return err
		}
	}
	if *csvOut != "" {
		if err := writeTo(*csvOut, res.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

func writeTo(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
