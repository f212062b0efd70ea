package hfta

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/lfta"
	"repro/internal/sketch"
)

// TestComposerSteadyStateAllocs gates the composer's recycling: with
// results handed back via Recycle, steady-state pane close + window
// composition must not rebuild its storage per op. What legitimately
// remains is the per-new-group map-key string each pane insert interns
// (inherent to map[string] storage) plus the CloseThrough result slice,
// so the bound is a small multiple of the group count rather than the
// thousands of allocations the unpooled composer paid per op. The
// count_distinct fixture holds the sketch path to the same bound: pane
// partials stay live and merge into pooled accumulators, so a decode per
// (pane, group) — several allocations each, four panes per window —
// would blow it. The recycled fixture refills every pane from
// TakePartial, as the engine's admission path does, so a new partial per
// (pane, group) would blow the bound too.
func TestComposerSteadyStateAllocs(t *testing.T) {
	const (
		groups    = 64
		templates = 4
	)
	queries := []attr.Set{attr.MustParseSet("AB")}
	distinct := []sketch.Agg{{Kind: sketch.Distinct, Input: 3}}
	fixtures := []struct {
		name    string
		saggs   []sketch.Agg
		recycle bool // refill each pane from TakePartial, as the engine does
	}{
		{"exact", nil, false},
		{"count_distinct", distinct, false},
		{"count_distinct_recycled", distinct, true},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			comp, err := NewComposer(WindowSpec{Size: 4, Slide: 2}, queries, lfta.CountStar, fx.saggs, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Pane templates are safe to re-feed: keys are unique within
			// a pane, so the composer stores the agg slices and partials
			// without mutating them, and a partial handed over without
			// PaneInput.Recycle is never reset, only dropped on evict.
			tmpl := make([][]PaneInput, templates)
			for ti := range tmpl {
				in := PaneInput{Rel: queries[0]}
				if fx.saggs != nil {
					in.Sketches = make(map[string]*sketch.Partial, groups)
				}
				for g := 0; g < groups; g++ {
					key := []uint32{uint32(g), uint32(g * 7)}
					in.Rows = append(in.Rows, Row{Rel: queries[0], Key: key, Aggs: []int64{int64(g + ti + 1)}})
					if fx.saggs == nil {
						continue
					}
					p, err := sketch.NewPartial(fx.saggs, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					for v := 0; v < 5; v++ {
						p.Observe([]uint32{key[0], key[1], 0, uint32(g*3 + ti*5 + v)})
					}
					in.Sketches[PackKey(key)] = p
				}
				tmpl[ti] = []PaneInput{in}
			}
			epoch := uint32(0)
			run := func() {
				if fx.recycle {
					// The composer reset the previous pane partials on
					// evict; new ones come from its pool.
					in := &tmpl[int(epoch)%templates][0]
					for k := range in.Sketches {
						p := comp.TakePartial()
						for v := uint32(0); v < 5; v++ {
							p.Observe([]uint32{0, 0, 0, epoch*5 + v})
						}
						in.Sketches[k] = p
					}
					in.Recycle = true
				}
				if err := comp.ClosePane(epoch, PaneStats{Offered: groups, Processed: groups}, tmpl[int(epoch)%templates]); err != nil {
					t.Fatal(err)
				}
				for _, res := range comp.CloseThrough(int64(epoch)) {
					comp.Recycle(res)
				}
				epoch++
			}
			// Warm the freelists: the first ops stock the pane,
			// accumulator, and row pools, and grow the pooled partials'
			// entry lists to their working size.
			for i := 0; i < 32; i++ {
				run()
			}
			avg := testing.AllocsPerRun(200, run)
			// groups map-key strings per pane insert, plus slack for the
			// result slice and map internals.
			const maxAllocs = 2 * groups
			if avg > maxAllocs {
				t.Errorf("steady-state composer op averaged %.1f allocs, want ≤ %d", avg, maxAllocs)
			}
		})
	}
}
