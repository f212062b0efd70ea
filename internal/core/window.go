package core

import (
	"slices"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/sketch"
)

// Sliding-window wiring: every closed LFTA epoch becomes a pane, and the
// hfta.Composer folds panes into overlapping windows. The engine's part
// is deliberately thin — at each epoch close it hands the composer the
// epoch's finalized HFTA rows plus the pane's live sketch partials,
// then delivers whatever windows the composer says are complete. Sketch
// accumulation runs in the single-threaded admission path (Process),
// never inside the sharded probe pipeline, so the SIMD probe hot path is
// byte-identical with and without windowing and windowed results match
// across shard counts.

// WindowHandler streams closed windows out of the engine: one call per
// query relation per closed window, rows sorted by group key, HAVING
// applied to the composed exact aggregates. rows — including each row's
// Key, Aggs, and Sketch slices — is only valid during the call: once
// every relation of a window has been delivered the storage is recycled
// into the composer, so a handler that retains results must deep-copy.
type WindowHandler func(rel attr.Set, led hfta.WindowLedger, rows []hfta.WindowRow)

// initWindowing builds the pane→window composer when the workload
// declares a window clause or sketch aggregates. A sketch-only workload
// (no window clause) runs as size-1 tumbling windows: each epoch closes
// its own window, which is exactly per-epoch sketch read-out.
func (e *Engine) initWindowing() error {
	s0 := e.specs[0]
	if !s0.Windowed() && len(s0.Sketches) == 0 {
		return nil
	}
	win := hfta.WindowSpec{Size: s0.WindowSize, Slide: s0.WindowSlide}
	if !s0.Windowed() {
		win = hfta.WindowSpec{Size: 1, Slide: 1}
	}
	e.sketchAggs = s0.SketchSpecs()
	comp, err := hfta.NewComposer(win, e.queries, e.aggs, e.sketchAggs,
		e.opts.WindowSketchPrecision, e.opts.DigestCompression)
	if err != nil {
		return err
	}
	e.winComposer = comp
	if len(e.sketchAggs) > 0 {
		e.paneSk = make([]paneSketches, len(e.queries))
		for i, q := range e.queries {
			e.paneSk[i] = paneSketches{arity: q.Size(), out: make(map[string]*sketch.Partial)}
		}
	}
	return nil
}

// Windowed reports whether the engine composes sliding windows (true for
// any workload with a window clause or sketch aggregates).
func (e *Engine) Windowed() bool { return e.winComposer != nil }

// sketchPrecision returns the resolved HLL precision (options value or
// the sketch package default), so an explicit default and a zero option
// configure — and checkpoint — identically.
func (e *Engine) sketchPrecision() uint8 {
	if e.opts.WindowSketchPrecision != 0 {
		return e.opts.WindowSketchPrecision
	}
	return sketch.DefaultPrecision
}

// digestCompression returns the resolved t-digest compression.
func (e *Engine) digestCompression() float64 {
	if e.opts.DigestCompression != 0 {
		return e.opts.DigestCompression
	}
	return sketch.DefaultCompression
}

// observePaneSketches feeds one admitted record into the open pane's
// per-group sketch partials, for every query relation. Runs on the
// admission path before sharding, so partials are deterministic in the
// stream order regardless of deployment shape. Alloc-free on the hot
// path: only a group the pane has not seen takes a partial, and its key
// words go into the index's arena.
func (e *Engine) observePaneSketches(attrs []uint32) {
	for i, q := range e.queries {
		e.paneKeyBuf = q.Project(attrs, e.paneKeyBuf[:0])
		e.paneSk[i].partial(e.paneKeyBuf, e.winComposer).Observe(attrs)
	}
}

// paneSketches is one query's live pane partials, indexed by group key.
// A record's lookup hashes its projected key words and compares them in
// place, so no per-record packed string is built or hashed; the packed
// keys the composer stores are built once per group, at pane close.
type paneSketches struct {
	arity int
	keys  []uint32          // arity words per group, in first-seen order
	parts []*sketch.Partial // parts[g] is the partial of keys' group g
	// slots is a linear-probing index into parts: g+1, or 0 when empty.
	// Its length is a power of two at least twice len(parts).
	slots []int32
	out   map[string]*sketch.Partial // the closing pane's hand-over
}

// partial returns key's partial in the open pane, taking an empty one
// from the composer for a group the pane has not seen.
func (ps *paneSketches) partial(key []uint32, comp *hfta.Composer) *sketch.Partial {
	if 2*(len(ps.parts)+1) > len(ps.slots) {
		ps.grow()
	}
	mask := len(ps.slots) - 1
	ar := ps.arity
	for s := int(hashKey(key)) & mask; ; s = (s + 1) & mask {
		g := int(ps.slots[s]) - 1
		if g < 0 {
			// An evicted pane's partial, reset, when one is free.
			p := comp.TakePartial()
			ps.slots[s] = int32(len(ps.parts) + 1)
			ps.keys = append(ps.keys, key...)
			ps.parts = append(ps.parts, p)
			return p
		}
		if slices.Equal(ps.keys[g*ar:(g+1)*ar], key) {
			return ps.parts[g]
		}
	}
}

// grow doubles the index (to 64 slots at first) and reinserts every group.
func (ps *paneSketches) grow() {
	n := max(64, 2*len(ps.slots))
	ps.slots = make([]int32, n)
	ar := ps.arity
	for g := range ps.parts {
		s := int(hashKey(ps.keys[g*ar:(g+1)*ar])) & (n - 1)
		for ps.slots[s] != 0 {
			s = (s + 1) & (n - 1)
		}
		ps.slots[s] = int32(g + 1)
	}
}

// handOver returns the open pane's partials keyed by packed group key, as
// the composer takes them, and empties the index for the next pane. The
// map stays the index's: the caller clears it once the composer is done.
func (ps *paneSketches) handOver(buf []byte) (map[string]*sketch.Partial, []byte) {
	ar := ps.arity
	for g, p := range ps.parts {
		buf = hfta.AppendKeyBytes(buf[:0], ps.keys[g*ar:(g+1)*ar])
		ps.out[string(buf)] = p
	}
	clear(ps.slots)
	clear(ps.parts)
	ps.keys, ps.parts = ps.keys[:0], ps.parts[:0]
	return ps.out, buf
}

// hashKey chains the splitmix64 finalizer over a key's words.
func hashKey(key []uint32) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		h ^= uint64(v)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// feedPane hands the closing epoch to the composer as a pane — the
// epoch's read-out before HAVING plus the live sketch partials — and
// delivers every window the pane completes. The composer keeps each
// row's Aggs as its accumulator and combines into it, while the result
// handler is handed the same read-out, so the pane gets its own copy of
// the aggregates.
func (e *Engine) feedPane(closed Degradation, read []readOut) {
	inputs := make([]hfta.PaneInput, 0, len(e.queries))
	for i, q := range e.queries {
		in := hfta.PaneInput{Rel: q, Rows: paneRows(read[i].rows)}
		if e.paneSk != nil && len(e.paneSk[i].parts) > 0 {
			// The composer keeps the partials as they are and recycles
			// them once the pane is evicted; it does not keep the map,
			// which the next pane reuses once cleared.
			in.Sketches, e.paneKeyBytes = e.paneSk[i].handOver(e.paneKeyBytes)
			in.Recycle = true
		}
		inputs = append(inputs, in)
	}
	// Every partial came from TakePartial, so none can fail the
	// composer's settings check.
	_ = e.winComposer.ClosePane(closed.Epoch, hfta.PaneStats{
		Offered:   closed.Offered,
		Processed: closed.Processed,
		Dropped:   closed.Dropped,
		Late:      closed.Late,
	}, inputs)
	for i := range e.paneSk {
		clear(e.paneSk[i].out)
	}
	// Every epoch before the clock's current one is final (the clock is
	// monotone and late records are dropped), so any window ending there
	// can close now.
	if _, cur, _ := e.clock.Snapshot(); cur > closed.Epoch {
		e.deliverWindows(e.winComposer.CloseThrough(int64(cur) - 1))
	}
}

// paneRows copies rows with every Aggs moved into one fresh arena. The
// keys stay shared: the composer reads them only during ClosePane.
func paneRows(rows []hfta.Row) []hfta.Row {
	n := 0
	for i := range rows {
		n += len(rows[i].Aggs)
	}
	aggs := make([]int64, n)
	out := make([]hfta.Row, len(rows))
	n = 0
	for i, r := range rows {
		g := n + copy(aggs[n:], r.Aggs)
		r.Aggs = aggs[n:g:g]
		out[i] = r
		n = g
	}
	return out
}

// deliverWindows applies HAVING to the composed rows and either streams
// each window through Options.OnWindow or retains it for
// WindowResults/WindowLedgers. On the handler path each result's
// storage is recycled into the composer once every query's rows have
// been delivered (the WindowHandler contract makes rows transient); the
// retention path keeps the rows and must not recycle.
func (e *Engine) deliverWindows(results []hfta.WindowResult) {
	for _, res := range results {
		e.stats.Windows++
		e.windowLeds = append(e.windowLeds, res.Ledger)
		for _, q := range e.queries {
			spec := e.specByRel[q]
			rows := e.winRowScratch[:0]
			for _, r := range res.Rows {
				if r.Rel != q {
					continue
				}
				if spec != nil && !spec.MatchHaving(r.Aggs) {
					continue
				}
				rows = append(rows, r)
			}
			e.winRowScratch = rows
			if e.opts.OnWindow != nil {
				e.opts.OnWindow(q, res.Ledger, rows)
			} else {
				e.windowRows = append(e.windowRows, rows...)
			}
		}
		if e.opts.OnWindow != nil {
			e.winComposer.Recycle(res)
		}
	}
}

// WindowResults returns every closed window's rows (HAVING applied),
// ordered by window close then query then group key. Empty when an
// OnWindow handler streams them instead.
func (e *Engine) WindowResults() []hfta.WindowRow { return e.windowRows }

// WindowLedgers returns the ledger of every closed window in close
// order. Each ledger satisfies Offered == Processed + Dropped + Late
// summed over the window's panes.
func (e *Engine) WindowLedgers() []hfta.WindowLedger { return e.windowLeds }
