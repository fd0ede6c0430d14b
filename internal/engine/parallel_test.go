package engine

import (
	"runtime"
	"testing"

	"stoneage/internal/graph"
	"stoneage/internal/nfsm"
	"stoneage/internal/xrand"
)

// TestShardPoolNoGoroutineOutlivesRun pins the engine contract that no
// goroutine outlives a run: a sharded RunSyncReusing must not return
// until every shard goroutine has exited. The count is read right after
// the call returns, with no sleep or retry, so a stop that only signals
// its shards fails whenever one of them has not been scheduled out yet.
//
// The test runs on one P. An explicit Workers count still shards the
// run over that many goroutines, and one P makes the count exact: a
// goroutine that has returned stays counted until the runtime frees it
// on its own thread, and no user-level primitive orders that after a
// wake-up on another P. On one P the woken run resumes only once the
// exiting goroutine has been freed.
func TestShardPoolNoGoroutineOutlivesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, workers = 4096, 4
	prog := Compile(allocProtocol(), graph.GnpConnected(n, 4.0/n, xrand.New(17)))
	for _, backend := range []string{BackendFlat, BackendPacked} {
		scr := NewScratch()
		before := runtime.NumGoroutine()
		peak := before
		res, err := prog.RunSyncReusing(SyncConfig{
			Seed: 1, Workers: workers, Backend: backend,
			Observer: func(int, []nfsm.State) { peak = max(peak, runtime.NumGoroutine()) },
		}, scr)
		after := runtime.NumGoroutine()
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds == 0 || peak < before+workers {
			t.Fatalf("%s: run took %d rounds with at most %d goroutines beside the %d before it; want a sharded run over %d workers",
				backend, res.Rounds, peak-before, before, workers)
		}
		if after != before {
			t.Errorf("%s: %d goroutines after the run, %d before it", backend, after, before)
		}
	}
}
