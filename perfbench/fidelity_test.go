package main

import (
	"bufio"
	"encoding/gob"
	"os"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epochstore"
	"repro/internal/hfta"
	"repro/internal/query"
	"repro/internal/stream"
)

// small caps a workload's trace for tests; the epoch and window
// structure stays the same. uniform-store keeps its full size, so its
// epochs stay longer than a store sync and none goes unpersisted.
func small(w *workload) scale {
	sc := w.scale
	if sc.Records > 300_000 {
		sc.Records = 300_000
	}
	return sc
}

// bareRun is the untimed product path the traced replay must match:
// the same setup, then Engine.Run straight on the *stream.TraceSource.
func bareRun(t *testing.T, fx *Fixture, dir string) (core.Stats, *checker) {
	t.Helper()
	specs, err := query.ParseSet(fx.Queries)
	if err != nil {
		t.Fatal(err)
	}
	rels := queryRels(specs)
	chk, err := newChecker(fx, rels)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chk.close() })
	var store *epochstore.Store
	if fx.Store {
		if store, err = epochstore.Open(t.TempDir(), epochstore.Options{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
	}
	opts := baseOptions(fx, store)
	opts.OnResults = func(rel attr.Set, epoch uint32, rows []hfta.Row, deg core.Degradation) {
		chk.epoch(rel, epoch, deg.Offered, rows)
	}
	if specs[0].Windowed() {
		opts.OnWindow = func(rel attr.Set, led hfta.WindowLedger, rows []hfta.WindowRow) {
			if err := chk.window(rel, led.Window, led.Stats.Offered, rows); err != nil {
				t.Error(err)
			}
		}
	}
	sample, err := readSample(fx.Trace, fx.Sample)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := core.EstimateGroups(sample, rels)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(fx.Queries, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.OpenTraceSource(fx.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := eng.Run(src); err != nil {
		t.Fatal(err)
	}
	return eng.Stats(), chk
}

// TestTracedReplayMatchesBareRun is the path-fidelity check: a traced
// replay (wrapped source, stage clocks, timing FS) and a bare
// Engine.Run(*TraceSource) do the same c1/c2 work, close the same epochs
// and windows, and give the same answers — every one equal to the oracle.
func TestTracedReplayMatchesBareRun(t *testing.T) {
	for _, w := range workloads {
		if w.maggd {
			continue
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			fx, err := buildFixture(w, 7, dir, small(w))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := replay(fx, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			st, chk := bareRun(t, fx, dir)
			if len(traced.Errors) > 0 {
				t.Errorf("traced replay: %v", traced.Errors)
			}
			if traced.Probes != st.Ops.Probes || traced.Transfers != st.Ops.Transfers || traced.LRecs != st.Ops.Records {
				t.Errorf("ops: traced %d/%d/%d, bare %+v", traced.Probes, traced.Transfers, traced.LRecs, st.Ops)
			}
			if traced.Epochs != st.Epochs || traced.Windows != st.Windows {
				t.Errorf("closed: traced %d epochs %d windows, bare %d and %d", traced.Epochs, traced.Windows, st.Epochs, st.Windows)
			}
			if traced.Expected == 0 || traced.Correct != traced.Expected {
				t.Errorf("traced replay: %d of %d answers match the oracle", traced.Correct, traced.Expected)
			}
			if got := chk.correct() - chk.extra; got != chk.expected() {
				t.Errorf("bare run: %d of %d answers match the oracle", got, chk.expected())
			}
			if traced.Epochs < 100 {
				t.Errorf("only %d epochs; emit-latency p90 needs ≥100 samples", traced.Epochs)
			}
			if cover := float64(traced.StagesNs) / float64(traced.SpanNs); cover < minCoverage {
				t.Errorf("stages cover %.3f of the traced engine thread's time", cover)
			}
		})
	}
}

// TestCheckerCountsMismatch corrupts one oracle digest: the replay must
// finish and count exactly that answer wrong.
func TestCheckerCountsMismatch(t *testing.T) {
	w, err := lookupWorkload("flows")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fx, err := buildFixture(w, 3, dir, small(w))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(fx.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	var hdr oracleHeader
	err = gob.NewDecoder(bufio.NewReader(f)).Decode(&hdr)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	hdr.Epochs[0].Digest++
	f, err = os.Create(fx.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := replay(fx, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Expected-out.Correct != 1 {
		t.Fatalf("%d of %d answers counted wrong, want 1", out.Expected-out.Correct, out.Expected)
	}
}

// TestCheckerCountsRepeatedEpoch emits one (query, epoch) answer twice:
// the repeat is an answer the oracle does not have, and a wrong emission
// before or after a right one makes the answer wrong.
func TestCheckerCountsRepeatedEpoch(t *testing.T) {
	const rel, epoch, offered = attr.Set(3), 7, 5
	right := []hfta.Row{{Key: []uint32{1, 2}, Aggs: []int64{5}}}
	wrong := []hfta.Row{{Key: []uint32{1, 2}, Aggs: []int64{4}}}
	for _, tc := range []struct {
		name        string
		emits       [][]hfta.Row
		correct, ex int
	}{
		{"once", [][]hfta.Row{right}, 1, 0},
		{"right twice", [][]hfta.Row{right, right}, 1, 1},
		{"right then wrong", [][]hfta.Row{right, wrong}, 0, 1},
		{"wrong then right", [][]hfta.Row{wrong, right}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &checker{
				epochs: map[[2]uint32]*epochAnswer{{uint32(rel), epoch}: {
					Rel: rel, Epoch: epoch, Offered: offered, Rows: 1,
					Digest: rowHash(right[0].Key, right[0].Aggs),
				}},
				okEpoch: map[[2]uint32]bool{},
				seen:    map[[2]uint32]bool{},
			}
			for _, rows := range tc.emits {
				c.epoch(rel, epoch, offered, rows)
			}
			if c.correct() != tc.correct || c.extra != tc.ex {
				t.Errorf("correct %d, extra %d; want %d and %d", c.correct(), c.extra, tc.correct, tc.ex)
			}
		})
	}
}
