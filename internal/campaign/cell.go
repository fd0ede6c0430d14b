package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"stoneage/internal/channel"
	"stoneage/internal/protocol"
	"stoneage/internal/scenario"
)

// CellID is the canonical identity of one campaign cell: the full
// coordinate tuple (protocol, effective engine, scenario, channel,
// family, size) that determines every seed derivation and therefore
// every deterministic aggregate of the cell. It is the unit the
// distributed dispatcher (internal/dispatch) claims, spills and merges
// by, so its Key must be stable across processes and spec rewrites
// that only permute lists.
type CellID struct {
	Protocol string
	// Engine is the effective engine of the cell (sync, sync-packed,
	// async, async-tolerant or async-voted) — always resolved, even when the spec
	// selects a single implicit engine and the CellResult label stays
	// empty.
	Engine   string
	Scenario scenario.Def
	Channel  channel.Def
	Family   Family
	Size     int
}

// Key renders the identity canonically: display labels do not
// participate (they change names, not data), scenario and channel defs
// collapse to their content keys, and the family parameter resolves to
// its effective value. Two cells of any two specs agree on Key exactly
// when they would produce identical deterministic aggregates under the
// same spec-level knobs (seed, trials, budgets, graphPerTrial).
func (c CellID) Key() string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%s|%d",
		c.Protocol, c.Engine, c.Scenario.Key(), c.Channel.Key(),
		c.Family.Kind, strconv.FormatFloat(c.Family.param(), 'g', -1, 64), c.Size)
}

// less orders two identities canonically: protocol, engine, scenario
// key, channel key, family kind, family parameter, size. The order is
// total over any valid spec's cell set (Validate rejects duplicate
// coordinates), so sorting by it is deterministic and independent of
// the spec's list order.
func (c CellID) less(o CellID) bool {
	if c.Protocol != o.Protocol {
		return c.Protocol < o.Protocol
	}
	if c.Engine != o.Engine {
		return c.Engine < o.Engine
	}
	if a, b := c.Scenario.Key(), o.Scenario.Key(); a != b {
		return a < b
	}
	if a, b := c.Channel.Key(), o.Channel.Key(); a != b {
		return a < b
	}
	if c.Family.Kind != o.Family.Kind {
		return c.Family.Kind < o.Family.Kind
	}
	if a, b := c.Family.param(), o.Family.param(); a != b {
		return a < b
	}
	return c.Size < o.Size
}

// CellIDs enumerates the spec's cell set in canonical order — sorted
// by CellID.less, independent of the order the spec's lists were
// written in. Result.Cells, the dispatch work queue, the resume
// checkpoint keys and the emitters all follow this order; permuting a
// spec's protocol/family/size lists therefore changes neither the
// merged bytes nor any resume key. The spec is assumed to have passed
// Validate.
func (sp *Spec) CellIDs() []CellID {
	engs := sp.engineAxis()
	scns := sp.scenarioAxis()
	chans := sp.channelAxis()
	ids := make([]CellID, 0, len(sp.Protocols)*len(engs)*len(scns)*len(chans)*len(sp.Families)*len(sp.Sizes))
	for _, p := range sp.Protocols {
		for _, eng := range engs {
			for _, s := range scns {
				for _, ch := range chans {
					for _, f := range sp.Families {
						for _, n := range sp.Sizes {
							ids = append(ids, CellID{Protocol: p, Engine: eng, Scenario: s, Channel: ch, Family: f, Size: n})
						}
					}
				}
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].less(ids[j]) })
	return ids
}

// Fingerprint canonicalizes the result-determining part of the spec:
// everything except the display name and the worker-pool size (both
// change no aggregate). The dispatcher stamps work directories with it
// so spill files from a different sweep can never be merged as this
// one's checkpoint.
func (sp Spec) Fingerprint() string {
	c := sp
	c.Name, c.Workers = "", 0
	b, err := json.Marshal(c)
	if err != nil {
		// Spec is plain data — this cannot fail for a validated spec.
		panic(fmt.Sprintf("campaign: fingerprinting spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// RunCell executes one cell of the spec — all Trials trials, in trial
// order on the calling goroutine — and aggregates it exactly as Run
// does, so a cell run in a worker process is bit-identical (wall-clock
// stats aside) to the same cell of an in-process sweep. scratch may be
// nil; passing one reuses it across cells the way the in-process
// worker pool does.
func RunCell(sp Spec, id CellID, scratch *protocol.Scratch) (CellResult, error) {
	return RunCellContext(context.Background(), sp, id, scratch)
}

// RunCellContext is RunCell with cancellation: the context is checked
// between trials, so a canceled worker stops at the next trial
// boundary with nothing half-aggregated.
func RunCellContext(ctx context.Context, sp Spec, id CellID, scratch *protocol.Scratch) (CellResult, error) {
	d, err := protocol.Lookup(id.Protocol)
	if err != nil {
		return CellResult{}, fmt.Errorf("campaign: %w", err)
	}
	c := &cell{desc: d, eng: id.Engine, scn: id.Scenario, ch: id.Channel, family: id.Family, size: id.Size}
	if scratch == nil {
		scratch = protocol.NewScratch()
	}
	samples := make([]sample, sp.Trials)
	for trial := 0; trial < sp.Trials; trial++ {
		if err := ctx.Err(); err != nil {
			return CellResult{}, fmt.Errorf("campaign: interrupted: %w", err)
		}
		s := runTrial(&sp, c, trial, scratch)
		if s.err != nil {
			return CellResult{}, fmt.Errorf("campaign: %s trial %d: %w", c.describe(&sp), trial, s.err)
		}
		samples[trial] = s
	}
	return sp.aggregateCell(c, samples), nil
}

// Merge assembles a Result from per-cell results keyed by canonical
// cell identity — the deterministic merge the distributed dispatcher
// performs over worker spill files. Every cell of the spec must be
// present; cells follow canonical order, so the merged emitter bytes
// are identical to a single-process Run of the same spec (wall-clock
// stats aside) at any shard count.
func Merge(sp Spec, cells map[string]CellResult) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	ids := sp.CellIDs()
	res := newResult(sp)
	for _, id := range ids {
		cr, ok := cells[id.Key()]
		if !ok {
			return nil, fmt.Errorf("campaign: merge: cell %q missing (have %d of %d)", id.Key(), len(cells), len(ids))
		}
		res.Cells = append(res.Cells, cr)
	}
	return res, nil
}

// Lookup returns the cell with the given protocol, family display name
// and size, or nil. It resolves the most common consumer pattern —
// single-axis sweeps addressed by their human coordinates — without
// depending on the canonical cell order. On a spec whose engines,
// scenarios or channels axis gives those coordinates several cells it
// panics, naming them: returning one of them would attribute its
// numbers to the others.
func (r *Result) Lookup(protocol, family string, size int) *CellResult {
	var hit *CellResult
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Protocol != protocol || c.Family != family || c.Size != size {
			continue
		}
		if hit != nil {
			panic(fmt.Sprintf("campaign: Lookup(%q, %q, %d) is ambiguous: cells (engine %q, scenario %q, channel %q) and (engine %q, scenario %q, channel %q) both match",
				protocol, family, size, hit.Engine, hit.Scenario, hit.Channel, c.Engine, c.Scenario, c.Channel))
		}
		hit = c
	}
	return hit
}
