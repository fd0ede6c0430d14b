package protocol_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"stoneage/internal/channel"
	"stoneage/internal/graph"
	"stoneage/internal/protocol"
	"stoneage/internal/xrand"
)

func TestLookupUnknownListsRegistered(t *testing.T) {
	_, err := protocol.Lookup("routing")
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") ||
		!strings.Contains(err.Error(), "mis") {
		t.Fatalf("error = %v", err)
	}
}

func TestAllSortedAndConsistentWithNames(t *testing.T) {
	all := protocol.All()
	names := protocol.Names()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(names))
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for i, d := range all {
		if d.Name != names[i] {
			t.Fatalf("All()[%d] = %s, Names()[%d] = %s", i, d.Name, i, names[i])
		}
	}
}

func TestRegisterRejectsInvalidDescriptors(t *testing.T) {
	expectPanic := func(name string, d *protocol.Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		protocol.Register(d)
	}
	valid := func() *protocol.Descriptor {
		return &protocol.Descriptor{
			Name: "reg-test",
			Solve: func(protocol.Args, *graph.Graph, uint64, int) (*protocol.Run, error) {
				return &protocol.Run{Output: protocol.Mask{true}}, nil
			},
			Caps:   protocol.CapSyncOnly,
			Check:  func(protocol.Args, *graph.Graph, protocol.Output) error { return nil },
			Mutate: protocol.FlipMask,
		}
	}

	d := valid()
	d.Name = ""
	expectPanic("empty name", d)

	d = valid()
	d.Name = "mis" // already taken by the std set
	expectPanic("duplicate name", d)

	d = valid()
	d.Solve = nil // neither Machine nor Solve
	expectPanic("no engine", d)

	d = valid()
	d.Caps = 0 // bespoke engine must be sync-only
	expectPanic("bespoke not sync-only", d)

	d = valid()
	d.Check = nil
	expectPanic("no check", d)

	d = valid()
	d.Mutate = nil
	expectPanic("no mutate", d)

	d = valid()
	d.Params = []protocol.ParamDef{{Name: "p", Default: 5, Min: 0, Max: 1}}
	expectPanic("default outside domain", d)

	// The Byzantine claim is cap⇔bound, like reorder: declaring the
	// cap without the measured eviction bound — or the bound without
	// the cap — is an overclaim rejected at registration.
	d = valid()
	d.Caps |= protocol.CapToleratesByzantine
	expectPanic("byzantine cap without eviction bound", d)

	d = valid()
	d.EvictionBound = 3
	expectPanic("eviction bound without byzantine cap", d)
}

func TestResolveArgsDomains(t *testing.T) {
	d, err := protocol.Lookup("degcolor")
	if err != nil {
		t.Fatal(err)
	}
	args, err := d.ResolveArgs(nil)
	if err != nil || args["maxdeg"] != 0 {
		t.Fatalf("defaults: args=%v err=%v", args, err)
	}
	if _, err := d.ResolveArgs(protocol.Args{"maxdeg": 99}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-domain accepted: %v", err)
	}
	if _, err := d.ResolveArgs(protocol.Args{"maxdeg": 2.5}); err == nil ||
		!strings.Contains(err.Error(), "integer") {
		t.Fatalf("fractional integer param accepted: %v", err)
	}
	if _, err := d.ResolveArgs(protocol.Args{"turbo": 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("unknown param accepted: %v", err)
	}
}

func TestCapsString(t *testing.T) {
	if got := protocol.Caps(0).String(); got != "-" {
		t.Fatalf("empty caps = %q", got)
	}
	c := protocol.CapNeedsTree | protocol.CapSyncOnly
	if got := c.String(); got != "tree-only,sync-only" {
		t.Fatalf("caps = %q", got)
	}
	if !c.Has(protocol.CapNeedsTree) || c.Has(protocol.CapNeedsPath) {
		t.Fatal("Has misbehaves")
	}
}

// TestMachineCodeCacheIsShared pins the collapse of the per-package
// compile caches: two binds of the same protocol at the same argument
// vector share one compiled program's machine code (same underlying
// tables — observable as identical behavior and no error), and the
// degcolor cache is keyed per degree bound.
func TestMachineCodeCacheIsShared(t *testing.T) {
	d, err := protocol.Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(16, 0.2, xrand.New(1))
	r1, err := d.SolveSync(g, nil, protocol.SyncConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.SolveSync(g, nil, protocol.SyncConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rounds != r2.Rounds || r1.Transmissions != r2.Transmissions {
		t.Fatalf("repeat run diverged: %+v vs %+v", r1, r2)
	}
}

// TestBoundTiersConcurrent runs every tier — the synchronous machine and
// the α, tolerant and voted synchronizer compilations — twice at once on
// one Bound, the asynchronous ones over a lossy channel. Each tier owns
// its cache slot, so each run must equal the same run on a fresh Bound,
// and the three synchronizers must behave differently (a shared slot
// would hand them one machine): α stalls on a lost pulse, the tolerant
// tier retransmits, and the voted tier also counts re-pulses.
func TestBoundTiersConcurrent(t *testing.T) {
	d, err := protocol.Lookup("mis")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GnpConnected(16, 0.2, xrand.New(2))
	run := func(b *protocol.Bound, tier string) (*protocol.Run, error) {
		if tier == "sync" {
			return b.RunSync(protocol.SyncConfig{Seed: 3, Workers: 1})
		}
		return b.RunAsync(protocol.AsyncConfig{
			Seed: 3, Synchro: tier, MaxSteps: 1 << 18,
			Channel: channel.Drop{Rate: 0.1, Seed: 4},
		})
	}
	tiers := []string{"sync", protocol.SynchroAlpha, protocol.SynchroTolerant, protocol.SynchroVoted}
	shared, err := d.Bind(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*protocol.Run, 2*len(tiers))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(shared, tiers[i%len(tiers)])
		}(i)
	}
	wg.Wait()
	type outcome struct {
		ok              bool
		steps, rePulses int64
	}
	seen := map[outcome]bool{}
	for i, r := range got {
		tier := tiers[i%len(tiers)]
		fresh, err := d.Bind(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := run(fresh, tier)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("%s: shared-Bound error %v, fresh-Bound error %v", tier, errs[i], wantErr)
		}
		if errs[i] == nil && !reflect.DeepEqual(r, want) {
			t.Fatalf("%s: shared-Bound run %+v differs from a fresh Bound's %+v", tier, r, want)
		}
		if tier != "sync" {
			o := outcome{ok: r != nil}
			if r != nil {
				o.steps, o.rePulses = r.Steps, r.RePulses
			}
			seen[o] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("the three synchronizer tiers gave %d distinct outcomes %v, want 3", len(seen), seen)
	}
}

// TestPathShapeEnforced pins the path-only capability check: a tree
// that is not a path must be rejected at bind time.
func TestPathShapeEnforced(t *testing.T) {
	d, err := protocol.Lookup("colevishkin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bind(graph.Star(5), nil); err == nil {
		t.Fatal("star accepted by a path-only protocol")
	}
	if _, err := d.Bind(graph.Path(5), nil); err != nil {
		t.Fatalf("path rejected: %v", err)
	}
}
