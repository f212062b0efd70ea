package main

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/attr"
	"repro/internal/hfta"
	"repro/internal/query"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// Fixture is one workload instance on disk: the trace, the oracle
// digests, and what a replay needs to run and check it. The benchmark
// writes it once per run; every replay process reads it.
type Fixture struct {
	Workload string
	Trace    string
	Oracle   string
	Queries  []string
	M        int
	Sample   int
	Shards   int
	Store    bool

	Records uint64   // trace length
	Passing uint64   // records the WHERE passes
	Rolls   []uint64 // trace index of every record that rolls the epoch clock
	Epochs  int      // epochs the engine closes
	Windows int      // windows the engine closes

	// Probes and Transfers are the in-process c1/c2 counts for this plan
	// and seed (filled for maggd-flows, whose printed counts must match).
	Probes    uint64
	Transfers uint64
}

// Planner inputs shared with maggd's defaults, so the in-process and
// maggd replays of one trace plan identically.
const (
	lftaBudget = 40000
	sampleSize = 50000
)

// buildFixture generates the workload's trace from seed, writes it under
// dir, warms it into the page cache, and computes the oracle digests.
func buildFixture(w *workload, seed int64, dir string, sc scale) (*Fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	recs, sqls, err := w.traceGen(rng, sc)
	if err != nil {
		return nil, err
	}
	fx := &Fixture{
		Workload: w.name,
		Trace:    filepath.Join(dir, "trace.magt"),
		Oracle:   filepath.Join(dir, "oracle.gob"),
		Queries:  sqls,
		M:        lftaBudget,
		Sample:   sampleSize,
		Shards:   w.shards,
		Store:    w.store,
		Records:  uint64(len(recs)),
	}
	if err := stream.WriteTraceFile(fx.Trace, schema4, recs); err != nil {
		return nil, err
	}
	if err := warm(fx.Trace); err != nil {
		return nil, err
	}
	specs, err := query.ParseSet(sqls)
	if err != nil {
		return nil, err
	}
	// The engine never sees a record the WHERE rejects: not its clock, not
	// its ledgers. The oracles take the same filtered sequence.
	spec0 := specs[0]
	clock := stream.NewClock(spec0.EpochLen)
	passing := make([]stream.Record, 0, len(recs))
	for i := range recs {
		if !spec0.MatchWhere(recs[i].Attrs) {
			continue
		}
		if _, rolled, _ := clock.Observe(recs[i].Time); rolled {
			fx.Rolls = append(fx.Rolls, uint64(i))
		}
		passing = append(passing, recs[i])
	}
	fx.Passing = uint64(len(passing))
	if len(passing) > 0 {
		fx.Epochs = len(fx.Rolls) + 1
	}
	if err := writeOracle(fx, specs, passing); err != nil {
		return nil, err
	}
	return fx, nil
}

// warm reads a file once so replays find it in the page cache.
func warm(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return err
}

func (fx *Fixture) write(path string) error {
	b, err := json.Marshal(fx)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readFixture(path string) (*Fixture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fx := &Fixture{}
	if err := json.Unmarshal(b, fx); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", path, err)
	}
	return fx, nil
}

// An answer is one (query, epoch) or one (query, window). The oracle keeps
// a digest per answer: the row count, the ledger's Offered count, and an
// order-independent hash over every row's key and exact aggregates.
// Windowed answers also carry each row's exact distinct counts, which the
// checker holds count_distinct estimates against.

type epochAnswer struct {
	Rel     attr.Set
	Epoch   uint32
	Offered uint64
	Rows    int
	Digest  uint64
}

type windowAnswer struct {
	Rel     attr.Set
	Window  uint32
	Offered uint64
	Rows    int
	Digest  uint64
	// KeyHash is every row's key hash, ascending; Exact holds the rows'
	// exact distinct counts, len(Sketches) per row in KeyHash order.
	KeyHash []uint64
	Exact   []int64
}

// oracleHeader opens the oracle file; Windows windowAnswer values follow
// it in emission order (window, then query), so a replay streams them and
// never holds more than one.
type oracleHeader struct {
	Epochs  []epochAnswer
	Windows int
}

func writeOracle(fx *Fixture, specs []*query.Spec, passing []stream.Record) error {
	spec0 := specs[0]
	rels := queryRels(specs)
	aggs := spec0.AggSpecs()
	offered := map[uint32]uint64{}
	if spec0.EpochLen > 0 {
		for i := range passing {
			offered[passing[i].Time/spec0.EpochLen]++
		}
	}
	byKey := map[[2]uint32]*epochAnswer{}
	for _, r := range hfta.Reference(passing, rels, aggs, spec0.EpochLen) {
		k := [2]uint32{uint32(r.Rel), r.Epoch}
		a := byKey[k]
		if a == nil {
			a = &epochAnswer{Rel: r.Rel, Epoch: r.Epoch, Offered: offered[r.Epoch]}
			byKey[k] = a
		}
		a.Rows++
		a.Digest += rowHash(r.Key, r.Aggs)
	}
	var hdr oracleHeader
	for _, a := range byKey {
		hdr.Epochs = append(hdr.Epochs, *a)
	}
	var windows []windowAnswer
	if spec0.Windowed() {
		win := hfta.WindowSpec{Size: spec0.WindowSize, Slide: spec0.WindowSlide}
		saggs := spec0.SketchSpecs()
		for _, ow := range hfta.WindowOracle(passing, rels, aggs, saggs, 0, 0, spec0.EpochLen, win) {
			for _, rel := range rels {
				wa := windowAnswer{Rel: rel, Window: ow.Ledger.Window, Offered: ow.Ledger.Stats.Offered}
				type exact struct {
					h uint64
					d []int64
				}
				var ex []exact
				for _, r := range ow.Rows {
					if r.Rel != rel {
						continue
					}
					wa.Rows++
					wa.Digest += rowHash(r.Key, r.Aggs)
					ex = append(ex, exact{keyHash(r.Key), r.ExactDistinct})
				}
				sort.Slice(ex, func(i, j int) bool { return ex[i].h < ex[j].h })
				for _, e := range ex {
					wa.KeyHash = append(wa.KeyHash, e.h)
					wa.Exact = append(wa.Exact, e.d...)
				}
				windows = append(windows, wa)
			}
		}
		fx.Windows = len(windows) / len(rels)
	}
	hdr.Windows = len(windows)

	f, err := os.Create(fx.Oracle)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(&hdr); err != nil {
		f.Close()
		return err
	}
	for i := range windows {
		if err := enc.Encode(&windows[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func keyHash(key []uint32) uint64 {
	h := uint64(len(key))
	for _, k := range key {
		h = mix64(h ^ uint64(k))
	}
	return h
}

func rowHash(key []uint32, aggs []int64) uint64 {
	h := keyHash(key)
	for _, a := range aggs {
		h = mix64(h ^ uint64(a))
	}
	return h
}

// distinctBound is the relative error a count_distinct estimate may show:
// five standard errors of HLL at the engine's default precision
// (1.04/√2^p, the bound internal/sketch documents and tests).
var distinctBound = 5 * 1.04 / math.Sqrt(float64(uint64(1)<<sketch.DefaultPrecision))

// checker holds every answer the engine emits against the oracle. A
// mismatch is counted, never fatal.
type checker struct {
	relIdx  map[attr.Set]int
	epochs  map[[2]uint32]*epochAnswer
	okEpoch map[[2]uint32]bool
	seen    map[[2]uint32]bool // epoch answers emitted at least once

	dec      *gob.Decoder
	closer   io.Closer
	windows  int // window answers the oracle holds
	left     int // window answers not yet read from the oracle
	cur      *windowAnswer
	okWindow int
	extra    int // answers the oracle does not have
}

func newChecker(fx *Fixture, rels []attr.Set) (*checker, error) {
	f, err := os.Open(fx.Oracle)
	if err != nil {
		return nil, err
	}
	dec := gob.NewDecoder(bufio.NewReader(f))
	var hdr oracleHeader
	if err := dec.Decode(&hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("oracle %s: %w", fx.Oracle, err)
	}
	c := &checker{
		relIdx:  map[attr.Set]int{},
		epochs:  map[[2]uint32]*epochAnswer{},
		okEpoch: map[[2]uint32]bool{},
		seen:    map[[2]uint32]bool{},
		dec:     dec,
		closer:  f,
		windows: hdr.Windows,
		left:    hdr.Windows,
	}
	for i, r := range rels {
		c.relIdx[r] = i
	}
	for i := range hdr.Epochs {
		a := &hdr.Epochs[i]
		c.epochs[[2]uint32{uint32(a.Rel), a.Epoch}] = a
	}
	return c, nil
}

func (c *checker) close() error { return c.closer.Close() }

// expected is the number of answers the oracle holds.
func (c *checker) expected() int { return len(c.epochs) + c.windows }

// correct is the number of answers that matched.
func (c *checker) correct() int { return len(c.okEpoch) + c.okWindow }

// epoch checks one query's answer for one closed epoch. The answer is
// right only if every emission of it matches; each emission after the
// first is also an answer the oracle does not have.
func (c *checker) epoch(rel attr.Set, epoch uint32, offered uint64, rows []hfta.Row) {
	k := [2]uint32{uint32(rel), epoch}
	a := c.epochs[k]
	if a == nil {
		c.extra++
		return
	}
	first := !c.seen[k]
	c.seen[k] = true
	if !first {
		c.extra++
	}
	var d uint64
	for i := range rows {
		d += rowHash(rows[i].Key, rows[i].Aggs)
	}
	if d != a.Digest || len(rows) != a.Rows || offered != a.Offered {
		delete(c.okEpoch, k)
	} else if first {
		c.okEpoch[k] = true
	}
}

// storeMismatch marks an epoch answer wrong because its durable copy is
// missing or differs from the oracle.
func (c *checker) storeMismatch(rel attr.Set, epoch uint32) {
	delete(c.okEpoch, [2]uint32{uint32(rel), epoch})
}

// window checks one query's answer for one closed window. Window answers
// arrive in the oracle's order; answers the engine skips are left
// unmatched and count as wrong.
func (c *checker) window(rel attr.Set, window uint32, offered uint64, rows []hfta.WindowRow) error {
	qi, ok := c.relIdx[rel]
	if !ok {
		c.extra++
		return nil
	}
	for {
		if c.cur == nil {
			if c.left == 0 {
				c.extra++
				return nil
			}
			c.cur = &windowAnswer{}
			if err := c.dec.Decode(c.cur); err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			c.left--
		}
		cw, cq := c.cur.Window, c.relIdx[c.cur.Rel]
		if cw > window || (cw == window && cq > qi) {
			c.extra++ // the oracle has no such answer
			return nil
		}
		if cw == window && cq == qi {
			break
		}
		c.cur = nil // the engine skipped this answer
	}
	a := c.cur
	c.cur = nil
	if len(rows) != a.Rows || offered != a.Offered {
		return nil
	}
	nsk := 0
	if a.Rows > 0 {
		nsk = len(a.Exact) / a.Rows
	}
	var d uint64
	for i := range rows {
		r := &rows[i]
		d += rowHash(r.Key, r.Aggs)
		if len(r.Sketch) != nsk {
			return nil
		}
		h := keyHash(r.Key)
		j := sort.Search(len(a.KeyHash), func(j int) bool { return a.KeyHash[j] >= h })
		if j == len(a.KeyHash) || a.KeyHash[j] != h {
			return nil
		}
		for s, est := range r.Sketch {
			exact := float64(a.Exact[j*nsk+s])
			if exact < 0 {
				continue // not a distinct count
			}
			if math.Abs(est-exact) > distinctBound*exact {
				return nil
			}
		}
	}
	if d == a.Digest {
		c.okWindow++
	}
	return nil
}
