package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epochstore"
	"repro/internal/hfta"
	"repro/internal/query"
	"repro/internal/stream"
)

// replayOut is what one replay of a fixture measured. A replay runs in a
// fresh process, so its peak RSS (read by the parent from rusage) holds
// only this replay's memory.
type replayOut struct {
	Records uint64
	RunNs   int64 // process CPU, trace open → Engine.Run (and so Finish) returns
	WallNs  int64 // the same span in wall time
	LatMs   []float64

	SetupNs, SampleNs, EstimateNs, PlanNs int64

	Expected, Correct int
	Errors            []string // invariant violations

	Epochs, Windows          int
	Offered                  uint64
	Probes, Transfers, LRecs uint64
	ModeledCost              float64
	CollisionRate, ModelRate float64 // probe-weighted, measured and modeled
	EpochRows, WindowRows    int64
	Unpersisted              int

	Traced bool
	// Traced replays only.
	DecodeNs, IngestNs, HandlerNs int64
	IngestRecs                    uint64
	// SpanNs is the engine thread's CPU time over the run pass; StagesNs
	// is decode + ingest + Σ epoch close + handler, the part of it the
	// stages account for.
	StagesNs, SpanNs          int64
	CloseMs                   []float64
	RetainedPanesMax          int
	AllocBytes, LiveHeapPeak  uint64
	GCFrac                    float64
	StoreWriteNs, StoreSyncNs int64
	StoreBytes, StoreSyncs    int64
}

// timedSource forwards a TraceSource — including stream.ColumnSource, so
// Engine.Run stays on the columnar path — and notes the process CPU clock
// when each NextColumns returns: the emit-latency clock starts there. A
// traced replay also times every call into the decoder on the engine
// thread's clock and attributes the engine time between calls to ingest
// or epoch close.
type timedSource struct {
	ts   *stream.TraceSource
	last time.Duration // processCPU at the last NextColumns return
	tr   *stageTrace
}

var _ stream.ColumnSource = (*timedSource)(nil)

func (s *timedSource) Next() (stream.Record, bool) { return s.ts.Next() }

func (s *timedSource) Err() error { return s.ts.Err() }

func (s *timedSource) NextColumns(dst *stream.ColumnBatch, limit int) int {
	if s.tr == nil {
		n := s.ts.NextColumns(dst, limit)
		s.last = processCPU()
		return n
	}
	enter := threadCPU()
	s.tr.endBatch(enter)
	n := s.ts.NextColumns(dst, limit)
	s.tr.beginBatch(enter, threadCPU(), n)
	s.last = processCPU()
	return n
}

// stageTrace splits a traced replay's engine-thread CPU time into decode (inside
// NextColumns), handler (inside the result callbacks), and engine time
// (between one NextColumns return and the next call, or Run's return).
// Engine time of a batch that closes no epoch is ingest; a batch holding
// a clock-rolling record, and Finish, close epochs.
type stageTrace struct {
	rolls    []uint64
	nextRoll int
	pos      uint64

	open        bool
	batchN      int
	batchRet    time.Duration
	batchHandle int64

	decodeNs, handlerNs, ingestNs int64
	ingestRecs                    uint64
	closes                        []closingBatch
}

type closingBatch struct {
	n                   int
	engineNs, handlerNs int64
}

func (t *stageTrace) beginBatch(enter, ret time.Duration, n int) {
	t.decodeNs += int64(ret - enter)
	t.pos += uint64(n)
	t.open = true
	t.batchN = n
	t.batchRet = ret
	t.batchHandle = t.handlerNs
}

func (t *stageTrace) endBatch(now time.Duration) {
	if !t.open {
		return
	}
	t.open = false
	eng := int64(now - t.batchRet)
	h := t.handlerNs - t.batchHandle
	closing := t.batchN == 0 // the end-of-stream call: Finish runs after it
	for t.nextRoll < len(t.rolls) && t.rolls[t.nextRoll] < t.pos {
		closing = true
		t.nextRoll++
	}
	if closing {
		t.closes = append(t.closes, closingBatch{t.batchN, eng, h})
		return
	}
	t.ingestNs += eng - h
	t.ingestRecs += uint64(t.batchN)
}

// timingFS is the traced replays' epochstore.FS: the real filesystem with
// every Write and Sync timed and counted. The persister goroutine writes
// the counters; the replay reads them after Finish has stopped it.
type timingFS struct {
	epochstore.OSFS
	writeNs, syncNs, bytes, syncs int64
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (epochstore.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

type timingFile struct {
	epochstore.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.File.Write(p)
	t.fs.writeNs += time.Since(t0).Nanoseconds()
	t.fs.bytes += int64(n)
	return n, err
}

func (t *timingFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	t.fs.syncNs += time.Since(t0).Nanoseconds()
	t.fs.syncs++
	return err
}

// readSample reads the first n records of a trace: the planner's sample,
// as maggd takes it.
func readSample(path string, n int) ([]stream.Record, error) {
	src, err := stream.OpenTraceSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var cb stream.ColumnBatch
	var out []stream.Record
	for len(out) < n {
		limit := n - len(out)
		if limit > stream.ColumnBatchLen {
			limit = stream.ColumnBatchLen
		}
		got := src.NextColumns(&cb, limit)
		if got == 0 {
			break
		}
		w := cb.Width()
		arena := make([]uint32, got*w)
		for i := 0; i < got; i++ {
			row := arena[i*w : (i+1)*w : (i+1)*w]
			cb.Row(i, row[:0])
			out = append(out, stream.Record{Attrs: row, Time: cb.Time[i]})
		}
	}
	return out, src.Err()
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() (alloc uint64, gcCPU, totalCPU float64, live uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64(), s[3].Value.Uint64()
}

// baseOptions is the engine configuration of every replay, traced or not.
// The store runs with the engine's defaults, as under maggd -store: an
// epoch the persister's queue cannot take goes unpersisted and counts as
// a wrong answer. It never sets WrapBatchSink: that hook moves the
// LFTA→HFTA transfer from SetRunSink(MergeRun) to the per-eviction
// BatchSink path, so a traced run would time a different program.
func baseOptions(fx *Fixture, store *epochstore.Store) core.Options {
	return core.Options{M: fx.M, Shards: fx.Shards, Store: store}
}

// replay runs the fixture's workload once through the public engine API:
// sample, estimate and plan (setup), then Engine.Run over the on-disk
// trace, checking every emitted answer against the oracle. A traced
// replay takes the same engine path — same options, same columnar Run —
// and only adds clocks around the calls into each layer.
func replay(fx *Fixture, dir string, traced bool) (*replayOut, error) {
	// Every engine call runs on this goroutine; pin it to one thread so
	// threadCPU measures the engine thread for the stage split.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	specs, err := query.ParseSet(fx.Queries)
	if err != nil {
		return nil, err
	}
	rels := queryRels(specs)
	last := rels[len(rels)-1]
	chk, err := newChecker(fx, rels)
	if err != nil {
		return nil, err
	}
	defer chk.close()
	out := &replayOut{Records: fx.Records, Traced: traced}

	var store *epochstore.Store
	var tfs *timingFS
	if fx.Store {
		sdir, err := os.MkdirTemp(dir, "store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(sdir)
		sopts := epochstore.Options{}
		if traced {
			tfs = &timingFS{}
			sopts.FS = tfs
		}
		if store, err = epochstore.Open(sdir, sopts); err != nil {
			return nil, err
		}
		defer store.Close()
	}

	src := &timedSource{}
	if traced {
		src.tr = &stageTrace{rolls: fx.Rolls}
	}
	var eng *core.Engine
	var checkErr error
	opts := baseOptions(fx, store)
	// Windowed workloads time their windows, not their epochs.
	windowed := specs[0].Windowed()
	// handle runs one result callback's checking. A call that closes an
	// answer set (the last query's) takes the emit-latency sample; a
	// traced replay also charges the callback to handler time.
	handle := func(rel attr.Set, timesAnswer bool, check func()) {
		closes := timesAnswer && rel == last
		if closes {
			out.LatMs = append(out.LatMs, float64(processCPU()-src.last)/1e6)
		}
		var t0 time.Duration
		if traced {
			t0 = threadCPU()
		}
		check()
		if traced {
			if closes {
				if _, _, _, live := readRuntime(); live > out.LiveHeapPeak {
					out.LiveHeapPeak = live
				}
			}
			src.tr.handlerNs += int64(threadCPU() - t0)
		}
	}
	opts.OnResults = func(rel attr.Set, epoch uint32, rows []hfta.Row, deg core.Degradation) {
		handle(rel, !windowed, func() {
			out.EpochRows += int64(len(rows))
			chk.epoch(rel, epoch, deg.Offered, rows)
		})
	}
	if windowed {
		opts.OnWindow = func(rel attr.Set, led hfta.WindowLedger, rows []hfta.WindowRow) {
			handle(rel, true, func() {
				out.WindowRows += int64(len(rows))
				if err := chk.window(rel, led.Window, led.Stats.Offered, rows); err != nil && checkErr == nil {
					checkErr = err
				}
				if traced && rel == last {
					if d, err := eng.Diagnostics(); err == nil && d.RetainedPanes > out.RetainedPanesMax {
						out.RetainedPanesMax = d.RetainedPanes
					}
				}
			})
		}
	}

	// Setup: sample read, group estimation, planning.
	t0 := processCPU()
	sample, err := readSample(fx.Trace, fx.Sample)
	if err != nil {
		return nil, err
	}
	t1 := processCPU()
	groups, err := core.EstimateGroups(sample, rels)
	if err != nil {
		return nil, err
	}
	t2 := processCPU()
	eng, err = core.New(fx.Queries, groups, opts)
	if err != nil {
		return nil, err
	}
	t3 := processCPU()
	sample = nil // free for the run
	out.SampleNs = int64(t1 - t0)
	out.EstimateNs = int64(t2 - t1)
	out.PlanNs = int64(t3 - t2)
	out.SetupNs = int64(t3 - t0)

	var alloc0 uint64
	var gc0, cpu0 float64
	if traced {
		alloc0, gc0, cpu0, _ = readRuntime()
	}
	wall := time.Now()
	start, tstart := processCPU(), threadCPU()
	ts, err := stream.OpenTraceSource(fx.Trace)
	if err != nil {
		return nil, err
	}
	src.ts = ts
	if traced {
		src.tr.decodeNs += int64(threadCPU() - tstart)
	}
	src.last = processCPU()
	runErr := eng.Run(src)
	end, tend := processCPU(), threadCPU()
	out.WallNs = time.Since(wall).Nanoseconds()
	ts.Close()
	if runErr != nil {
		return nil, runErr
	}
	out.RunNs = int64(end - start)
	if checkErr != nil {
		return nil, checkErr
	}

	if traced {
		tr := src.tr
		tr.endBatch(tend)
		alloc1, gc1, cpu1, _ := readRuntime()
		out.AllocBytes = alloc1 - alloc0
		if cpu1 > cpu0 {
			out.GCFrac = (gc1 - gc0) / (cpu1 - cpu0)
		}
		out.DecodeNs, out.IngestNs, out.HandlerNs = tr.decodeNs, tr.ingestNs, tr.handlerNs
		out.IngestRecs = tr.ingestRecs
		rate := 0.0
		if tr.ingestRecs > 0 {
			rate = float64(tr.ingestNs) / float64(tr.ingestRecs)
		}
		closeNs := 0.0
		for _, c := range tr.closes {
			ns := float64(c.engineNs-c.handlerNs) - float64(c.n)*rate
			closeNs += ns
			out.CloseMs = append(out.CloseMs, ns/1e6)
		}
		// Coverage counts the stages by the formulas of their metrics, so
		// the closing batches' records, which no stage is charged with,
		// and engine time outside the source calls stay unaccounted.
		out.StagesNs = tr.decodeNs + tr.ingestNs + int64(closeNs) + tr.handlerNs
		out.SpanNs = int64(tend - tstart)
		if tfs != nil {
			out.StoreWriteNs, out.StoreSyncNs = tfs.writeNs, tfs.syncNs
			out.StoreBytes, out.StoreSyncs = tfs.bytes, tfs.syncs
		}
	}

	st := eng.Stats()
	out.Epochs, out.Windows = st.Epochs, st.Windows
	out.Offered = st.Degradation.Offered
	out.Probes, out.Transfers, out.LRecs = st.Ops.Probes, st.Ops.Transfers, st.Ops.Records
	out.ModeledCost = eng.Plan().Cost
	out.Unpersisted = len(st.Durability.Unpersisted)
	d, err := eng.Diagnostics()
	if err != nil {
		return nil, err
	}
	var probes, measured, modeled float64
	for _, t := range d.Tables {
		p := float64(t.Probes)
		probes += p
		measured += p * t.MeasuredRate
		modeled += p * t.ModeledRate
	}
	if probes > 0 {
		out.CollisionRate, out.ModelRate = measured/probes, modeled/probes
	}

	deg := st.Degradation
	if deg.Offered != deg.Processed+deg.Dropped+deg.Late {
		out.Errors = append(out.Errors, fmt.Sprintf("ledger: offered %d != processed %d + dropped %d + late %d",
			deg.Offered, deg.Processed, deg.Dropped, deg.Late))
	}
	if deg.Offered != fx.Passing {
		out.Errors = append(out.Errors, fmt.Sprintf("offered %d records, the WHERE passes %d", deg.Offered, fx.Passing))
	}
	if out.Epochs != fx.Epochs || out.Windows != fx.Windows {
		out.Errors = append(out.Errors, fmt.Sprintf("closed %d epochs and %d windows, oracle has %d and %d",
			out.Epochs, out.Windows, fx.Epochs, fx.Windows))
	}
	if store != nil {
		// The durable copy must hold the same answers the handler saw.
		for _, a := range chk.epochs {
			rec, err := store.Read(a.Epoch, a.Rel)
			if err != nil || rec.Offered != a.Offered || len(rec.Rows) != a.Rows {
				chk.storeMismatch(a.Rel, a.Epoch)
				continue
			}
			var dg uint64
			for _, r := range rec.Rows {
				dg += rowHash(r.Key, r.Aggs)
			}
			if dg != a.Digest {
				chk.storeMismatch(a.Rel, a.Epoch)
			}
		}
	}
	out.Expected = chk.expected()
	out.Correct = chk.correct() - chk.extra
	if out.Correct < 0 {
		out.Correct = 0
	}
	return out, nil
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
