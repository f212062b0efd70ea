package main

// Machine-readable performance benchmarks (-json): a fixed suite of
// engine and building-block benchmarks whose results are written as a
// JSON summary, so the perf trajectory across PRs is diffable
// (BENCH_PR1.json onward). The suite mirrors the go-test benchmarks in
// bench_test.go / bench_micro_test.go but runs standalone via
// testing.Benchmark, no `go test` invocation required.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/choose"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/feedgraph"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/hfta"
	"repro/internal/lfta"
	"repro/internal/query"
	"repro/internal/selvec"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// benchResult is one benchmark's summary. RecordsPerSec is the
// throughput in stream records per second (0 when the benchmark has no
// per-record interpretation).
type benchResult struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
	Iterations    int     `json:"iterations"`
}

// shardScalePoint is one shard-count measurement of the sharded ingest
// path: the same trace routed through n shards sequentially and through
// the pipelined parallel path, with the parallel speedup (sequential
// wall time / parallel wall time; >1 means the pipeline wins). Starved
// marks points measured with fewer schedulable procs than shards — the
// pipeline's router plus workers are then time-slicing one core, so a
// speedup number would measure the scheduler, not the pipeline, and
// ParallelSpeedup is left 0 rather than reported as a (meaningless)
// slowdown. The point of the series is the trajectory across shard
// counts on multicore hosts.
type shardScalePoint struct {
	Shards            int     `json:"shards"`
	SequentialNsPerOp float64 `json:"sequential_ns_per_op"`
	ParallelNsPerOp   float64 `json:"parallel_ns_per_op"`
	SeqRecordsPerSec  float64 `json:"sequential_records_per_sec"`
	ParRecordsPerSec  float64 `json:"parallel_records_per_sec"`
	ParallelSpeedup   float64 `json:"parallel_speedup"`
	Starved           bool    `json:"starved,omitempty"`
}

// benchReport is the file-level JSON document. GoMaxProcs records the
// scheduler's actual parallelism budget (NumCPU alone overstates it in
// cgroup-limited CI containers), so readers of the shard-scaling series
// can tell a pipeline regression from a starved runner.
type benchReport struct {
	Generated    string            `json:"generated"`
	GoVersion    string            `json:"go_version"`
	GOOS         string            `json:"goos"`
	GOARCH       string            `json:"goarch"`
	NumCPU       int               `json:"num_cpu"`
	GoMaxProcs   int               `json:"gomaxprocs"`
	Benchmarks   []benchResult     `json:"benchmarks"`
	ShardScaling []shardScalePoint `json:"shard_scaling,omitempty"`
}

// namedBench couples a benchmark body with its report entry. recordsPerOp
// converts ns/op into records/sec (0 = not a record-throughput bench).
type namedBench struct {
	name         string
	recordsPerOp float64
	fn           func(b *testing.B)
}

// benchSuite builds the standard suite. Kept as a function (not a global)
// so each -json run constructs fresh fixtures.
func benchSuite() []namedBench {
	return []namedBench{
		{name: "engine-throughput", recordsPerOp: 1, fn: benchEngineThroughput},
		{name: "runtime-record", recordsPerOp: 1, fn: benchRuntimeRecord},
		{name: "lfta-probe", recordsPerOp: 1, fn: benchLFTAProbe},
		{name: "lfta-probe-warm", recordsPerOp: 1, fn: benchLFTAProbeWarm},
		{name: "lfta-probe-dup-heavy", recordsPerOp: 1, fn: benchLFTAProbeDupHeavy},
		{name: "lfta-probe-large-scalar", recordsPerOp: 1, fn: benchLFTAProbeLarge(false)},
		{name: "lfta-probe-large-batch", recordsPerOp: 1, fn: benchLFTAProbeLarge(true)},
		{name: "filter-kernel", recordsPerOp: filterKernelLanes, fn: benchFilterKernel},
		{name: "engine-filtered-p1", recordsPerOp: 1, fn: benchEngineFiltered(10)},
		{name: "engine-filtered-p10", recordsPerOp: 1, fn: benchEngineFiltered(100)},
		{name: "engine-filtered-p50", recordsPerOp: 1, fn: benchEngineFiltered(500)},
		{name: "engine-filtered-p100", recordsPerOp: 1, fn: benchEngineFiltered(1000)},
		{name: "engine-filtered-interp-p1", recordsPerOp: 1, fn: benchEngineFilteredInterp(10)},
		{name: "hfta-merge", recordsPerOp: 0, fn: benchHFTAMerge},
		{name: "hfta-merge-run", recordsPerOp: mergeRunEntries, fn: benchHFTAMergeRun},
		{name: "hfta-rows", recordsPerOp: 0, fn: benchHFTARows},
		{name: "columnar-route", recordsPerOp: 1, fn: benchColumnarRoute},
		{name: "window-compose", recordsPerOp: 0, fn: benchWindowCompose},
		{name: "sketch-merge", recordsPerOp: 0, fn: benchSketchMerge},
		{name: "sharded-sequential", recordsPerOp: shardedBenchRecords, fn: shardedBench(false)},
		{name: "sharded-parallel", recordsPerOp: shardedBenchRecords, fn: shardedBench(true)},
	}
}

// runBenchSuite executes the suite and writes the JSON report to path
// ("-" for stdout), echoing human-readable lines to log.
func runBenchSuite(path string, log io.Writer) error {
	report := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, nb := range benchSuite() {
		res := testing.Benchmark(nb.fn)
		r := benchResult{
			Name:        nb.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		if nb.recordsPerOp > 0 && r.NsPerOp > 0 {
			r.RecordsPerSec = nb.recordsPerOp * 1e9 / r.NsPerOp
		}
		report.Benchmarks = append(report.Benchmarks, r)
		fmt.Fprintf(log, "%-20s %12.1f ns/op %8d B/op %6d allocs/op",
			nb.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.RecordsPerSec > 0 {
			fmt.Fprintf(log, " %14.0f records/s", r.RecordsPerSec)
		}
		fmt.Fprintln(log)
	}
	report.ShardScaling = runShardScaling(log)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// benchEngineThroughput is the end-to-end hot path: one record through a
// planned two-level engine (LFTA probes, cascades, batched HFTA merge).
func benchEngineThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 1000, 60)
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Uniform(rng, u, 65536, 0)
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")}
	groups, err := core.EstimateGroups(recs[:10000], queries)
	if err != nil {
		b.Fatal(err)
	}
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B",
		"select B, C, count(*) as cnt from R group by B, C",
		"select C, D, count(*) as cnt from R group by C, D",
	}
	eng, err := core.New(sqls, groups, core.Options{M: 20000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Process(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// Filtered-ingest benchmark parameters: attribute values uniform in
// [0, filteredValuePool), so a `where A < thr` clause passes thr/10
// percent of the stream in expectation — the selectivity sweep's knob.
const (
	filteredBenchRecords = 65536
	filteredValuePool    = 1000
)

// newFilteredEngine builds the engine for the selectivity sweep: the
// engine-throughput plan with a shared `where A < thr` clause, compiled
// to columnar kernels by default or forced through the per-record
// interpreted DNF walk (the measurement baseline).
func newFilteredEngine(thr int, interp bool) (*core.Engine, []stream.Record, error) {
	rng := rand.New(rand.NewSource(4))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 1000, filteredValuePool)
	if err != nil {
		return nil, nil, err
	}
	recs := gen.Uniform(rng, u, filteredBenchRecords, 0)
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")}
	groups, err := core.EstimateGroups(recs[:10000], queries)
	if err != nil {
		return nil, nil, err
	}
	sqls := []string{
		fmt.Sprintf("select A, B, count(*) as cnt from R where A < %d group by A, B", thr),
		fmt.Sprintf("select B, C, count(*) as cnt from R where A < %d group by B, C", thr),
		fmt.Sprintf("select C, D, count(*) as cnt from R where A < %d group by C, D", thr),
	}
	eng, err := core.New(sqls, groups, core.Options{M: 20000, InterpretedFilter: interp})
	if err != nil {
		return nil, nil, err
	}
	return eng, recs, nil
}

// benchEngineFiltered measures the vectorized filtered-ingest path — a
// compiled WHERE over whole column batches, survivors threaded through
// by selection — at the pass rate thr/filteredValuePool. One op is one
// stream record offered (filtered or not).
func benchEngineFiltered(thr int) func(b *testing.B) {
	return func(b *testing.B) {
		eng, recs, err := newFilteredEngine(thr, false)
		if err != nil {
			b.Fatal(err)
		}
		// Prebuilt column batches, cycled; each op re-runs the filter
		// kernels over the batch (the selection vector is recomputed in
		// place, so no iteration sees a cached verdict).
		var batches []*stream.ColumnBatch
		for pos := 0; pos < len(recs); pos += stream.ColumnBatchLen {
			n := stream.ColumnBatchLen
			if rest := len(recs) - pos; n > rest {
				n = rest
			}
			cb := &stream.ColumnBatch{}
			cb.Reset(len(recs[pos].Attrs))
			for i := 0; i < n; i++ {
				cb.Append(recs[pos+i].Attrs, recs[pos+i].Time)
			}
			batches = append(batches, cb)
		}
		b.ReportAllocs()
		b.ResetTimer()
		bi := 0
		for done := 0; done < b.N; {
			cb := batches[bi%len(batches)]
			if err := eng.ProcessColumnBatch(cb); err != nil {
				b.Fatal(err)
			}
			done += cb.Len()
			bi++
		}
	}
}

// benchEngineFilteredInterp is the scalar-interpreted control leg of the
// selectivity sweep: the same filtered workload with the WHERE walked
// per record (Options.InterpretedFilter). The engine-filtered-p1 /
// engine-filtered-interp-p1 ratio is the vectorization win the PR 10
// acceptance bar is set on.
func benchEngineFilteredInterp(thr int) func(b *testing.B) {
	return func(b *testing.B) {
		eng, recs, err := newFilteredEngine(thr, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Process(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// filterKernelLanes is the batch width of the filter microbenchmark —
// big enough to amortize per-call dispatch, the regime EvalColumns runs
// in under the engine.
const filterKernelLanes = 4096

// benchFilterKernel isolates the compiled predicate kernels: one
// two-conjunction DNF (range ∧ range ∨ equality) evaluated over
// filterKernelLanes lanes into a selection bitmap, with the adaptive
// reranker live. Whether the SWAR or vector kernels run follows the
// process-wide tag-scan selection (MAGG_SIMD).
func benchFilterKernel(b *testing.B) {
	f := query.Filter{DNF: [][]query.Predicate{
		{{Attr: 0, Op: query.Lt, Val: 10}, {Attr: 1, Op: query.Ge, Val: 500}},
		{{Attr: 2, Op: query.Eq, Val: 77}},
	}}
	cf := f.Compile()
	rng := rand.New(rand.NewSource(6))
	cols := make([][]uint32, 4)
	for a := range cols {
		cols[a] = make([]uint32, filterKernelLanes)
		for i := range cols[a] {
			cols[a][i] = rng.Uint32() % filteredValuePool
		}
	}
	sel := selvec.Grow(nil, filterKernelLanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.EvalColumns(cols, filterKernelLanes, sel)
	}
}

// benchRuntimeRecord drives one record through a three-level LFTA
// configuration with no HFTA attached (probe + cascade cost only).
func benchRuntimeRecord(b *testing.B) {
	queries := []attr.Set{
		attr.MustParseSet("AB"), attr.MustParseSet("BC"),
		attr.MustParseSet("BD"), attr.MustParseSet("CD"),
	}
	cfg, err := feedgraph.ParseConfig("ABCD(AB BCD(BC BD CD))", queries)
	if err != nil {
		b.Fatal(err)
	}
	alloc := cost.Alloc{}
	for _, r := range cfg.Rels {
		alloc[r] = 1024
	}
	rt, err := lfta.New(cfg, alloc, lfta.CountStar, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	recs := make([]stream.Record, 1024)
	for i := range recs {
		recs[i] = stream.Record{Attrs: []uint32{rng.Uint32() % 100, rng.Uint32() % 100, rng.Uint32() % 100, rng.Uint32() % 100}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Process(recs[i%len(recs)], 0)
	}
}

// benchLFTAProbe isolates a single hash-table probe (the paper's c1).
func benchLFTAProbe(b *testing.B) {
	tab := hashtab.MustNew(attr.MustParseSet("ABCD"), 4096, []hashtab.AggOp{hashtab.Sum}, 1)
	rng := rand.New(rand.NewSource(1))
	keys := make([][]uint32, 1024)
	for i := range keys {
		keys[i] = []uint32{rng.Uint32() % 500, rng.Uint32() % 500, rng.Uint32() % 500, rng.Uint32() % 500}
	}
	deltas := []int64{1}
	var victim hashtab.Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ProbeInto(keys[i%len(keys)], deltas, &victim)
	}
}

// benchLFTAProbeWarm is the warm-hit fast path in isolation: every
// resident key is installed up front, the table fits in L1/L2, and every
// probe is a hit resolved by one tag scan plus one key compare — the
// floor the group layout sets for the paper's c1 when the working set is
// cache-resident.
func benchLFTAProbeWarm(b *testing.B) {
	tab := hashtab.MustNew(attr.MustParseSet("AB"), 1024, []hashtab.AggOp{hashtab.Sum}, 3)
	rng := rand.New(rand.NewSource(8))
	keys := make([][]uint32, 512)
	deltas := []int64{1}
	var victim hashtab.Entry
	for i := range keys {
		keys[i] = []uint32{uint32(i), rng.Uint32() % 900}
		tab.ProbeInto(keys[i], deltas, &victim)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// Power-of-two key cycle indexed by mask: a runtime modulo would
	// cost a visible fraction of the ~9 ns probe under measurement.
	for i := 0; i < b.N; i++ {
		tab.ProbeInto(keys[i&511], deltas, &victim)
	}
}

// benchLFTAProbeDupHeavy measures the batch commit pass on runs
// dominated by duplicate keys: 512-probe runs drawn from 32 distinct
// groups, so nearly every probe re-reads a group the same run already
// touched — the fresh-tag-read path the setup/commit split must get
// right and the regime real traces with heavy flows live in.
func benchLFTAProbeDupHeavy(b *testing.B) {
	const (
		dupRun      = 512
		dupUniverse = 32
	)
	tab := hashtab.MustNew(attr.MustParseSet("AB"), 4096, []hashtab.AggOp{hashtab.Sum}, 5)
	rng := rand.New(rand.NewSource(21))
	keys := make([]uint32, 2*dupRun)
	for i := 0; i < dupRun; i++ {
		g := rng.Intn(dupUniverse)
		keys[2*i] = uint32(g)
		keys[2*i+1] = uint32(g * 13)
	}
	deltas := make([]int64, dupRun)
	for i := range deltas {
		deltas[i] = 1
	}
	var out hashtab.VictimRun
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := dupRun
		if b.N-done < n {
			n = b.N - done
		}
		tab.ProbeBatchInto(keys[:2*n], deltas[:n], &out)
		done += n
	}
}

// Large-table probe benchmark parameters: a table whose bucket storage
// (~40 MB at 2^21 buckets × (2 key words + 1 aggregate + update count +
// tag)) dwarfs any L2/L3, probed with a stream of ~4M distinct groups
// drawn from a universe four times the bucket count. In steady state
// most probes evict a resident victim, so the benchmark is genuinely
// miss-heavy: every probe is a near-certain cache miss AND a hard-to-
// predict branch, the regime where the paper's c1 cost is pure memory
// latency. (A shorter cycled stream goes hit-dominated after the first
// lap — resident groups, predictable branches — and the out-of-order
// core hides the latency on its own.) The scalar and batch variants run
// the same key sequence; their ratio is the measured memory-level-
// parallelism win of ProbeBatchInto's prefetched setup/commit split.
const (
	largeProbeBuckets  = 1 << 21
	largeProbeKeys     = 1 << 22 // pregenerated probe stream, cycled
	largeProbeUniverse = 1 << 23
	largeProbeRun      = 512 // run length fed to ProbeBatchInto per call
)

// newLargeProbeFixture builds the table and the flat columnar key stream
// shared by both variants.
func newLargeProbeFixture() (*hashtab.Table, []uint32) {
	tab := hashtab.MustNew(attr.MustParseSet("AB"), largeProbeBuckets, []hashtab.AggOp{hashtab.Sum}, 11)
	rng := rand.New(rand.NewSource(17))
	keys := make([]uint32, 2*largeProbeKeys)
	for i := 0; i < largeProbeKeys; i++ {
		g := rng.Intn(largeProbeUniverse)
		keys[2*i] = uint32(g)
		keys[2*i+1] = uint32(g >> 11)
	}
	return tab, keys
}

// benchLFTAProbeLarge measures ns per probe on the miss-heavy large
// table, scalar (ProbeInto loop) or batched (ProbeBatchInto runs).
func benchLFTAProbeLarge(batched bool) func(b *testing.B) {
	return func(b *testing.B) {
		tab, keys := newLargeProbeFixture()
		deltas := make([]int64, largeProbeRun)
		for i := range deltas {
			deltas[i] = 1
		}
		nruns := largeProbeKeys / largeProbeRun
		var victim hashtab.Entry
		var out hashtab.VictimRun
		b.ReportAllocs()
		b.ResetTimer()
		if batched {
			for done := 0; done < b.N; {
				r := (done / largeProbeRun) % nruns
				n := largeProbeRun
				if b.N-done < n {
					n = b.N - done
				}
				o := r * largeProbeRun * 2
				tab.ProbeBatchInto(keys[o:o+2*n], deltas[:n], &out)
				done += n
			}
		} else {
			for i := 0; i < b.N; i++ {
				o := (i % largeProbeKeys) * 2
				tab.ProbeInto(keys[o:o+2:o+2], deltas[:1], &victim)
			}
		}
	}
}

// benchHFTAMerge isolates one eviction merged into the HFTA state.
func benchHFTAMerge(b *testing.B) {
	agg, err := hfta.New([]attr.Set{attr.MustParseSet("AB")}, lfta.CountStar)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	evs := make([]lfta.Eviction, 1024)
	for i := range evs {
		evs[i] = lfta.Eviction{
			Rel:   attr.MustParseSet("AB"),
			Key:   []uint32{rng.Uint32() % 500, rng.Uint32() % 500},
			Aggs:  []int64{int64(rng.Intn(100))},
			Epoch: uint32(i % 4),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Consume(evs[i%len(evs)])
	}
}

// mergeRunEntries is the entry count of one sealed eviction run in the
// merge-run benchmark — lfta.DefaultEvictionBatch, the size SetRunSink
// seals at by default.
const mergeRunEntries = 256

// benchHFTAMergeRun measures one sealed columnar run through the
// batched HFTA merge path (MergeRun: pre-hash, partition by lock shard,
// one lock hold per touched shard) — the transfer shape the run sink
// delivers. Compare against hfta-merge × mergeRunEntries for the
// per-entry-vs-batched ratio.
func benchHFTAMergeRun(b *testing.B) {
	rel := attr.MustParseSet("AB")
	agg, err := hfta.New([]attr.Set{rel}, lfta.CountStar)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 2*mergeRunEntries)
	deltas := make([]int64, mergeRunEntries)
	for i := 0; i < mergeRunEntries; i++ {
		keys[2*i] = rng.Uint32() % 500
		keys[2*i+1] = rng.Uint32() % 500
		deltas[i] = int64(rng.Intn(100) + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.MergeRun(rel, uint32(i%4), keys, deltas)
	}
}

// rowsBenchGroups is the group count of the read-out benchmark's epoch.
const rowsBenchGroups = 4096

// benchHFTARows measures one epoch read-out (Aggregator.Rows): a
// 4,096-group, arity-2 epoch with two aggregates, copied into flat
// arenas and sorted by group key — the work every closed epoch pays once
// per query. A diagnostic of that stage, not an end-to-end claim.
func benchHFTARows(b *testing.B) {
	rel := attr.MustParseSet("AB")
	aggs := []lfta.AggSpec{{Op: hashtab.Sum, Input: -1}, {Op: hashtab.Sum, Input: 2}}
	agg, err := hfta.New([]attr.Set{rel}, aggs)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < rowsBenchGroups; g++ {
		agg.Consume(lfta.Eviction{
			Rel:  rel,
			Key:  []uint32{rng.Uint32(), uint32(g)},
			Aggs: []int64{1, int64(rng.Intn(1500))},
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(agg.Rows(rel, 0)) != rowsBenchGroups {
			b.Fatal("read-out lost groups")
		}
	}
}

// benchColumnarRoute isolates the router's per-record work on the
// columnar ingest path: fill a ColumnBatch from the source
// (ReadColumns), hash the key columns (HashColumns — same mixing as the
// record-major routing hash), and reduce each hash to a shard index.
// This is pass 1 of the pipelined router with no rings or workers
// attached, so the number is pure routing cost per record.
func benchColumnarRoute(b *testing.B) {
	// Same constant as lfta's routing seed; any fixed seed measures the
	// same kernel.
	const routeSeed = 0x5bd1e995bc9e3779
	const routeShards = 8
	rng := rand.New(rand.NewSource(4))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 2000, 0)
	if err != nil {
		b.Fatal(err)
	}
	recs := gen.Uniform(rng, u, shardedBenchRecords, 50)
	src := stream.NewSliceSource(recs)
	var cb stream.ColumnBatch
	hv := make([]uint64, stream.ColumnBatchLen)
	six := make([]int32, stream.ColumnBatchLen)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		limit := stream.ColumnBatchLen
		if b.N-done < limit {
			limit = b.N - done
		}
		n := stream.ReadColumns(src, &cb, limit)
		if n == 0 {
			src.Reset()
			continue
		}
		hashtab.HashColumns(routeSeed, cb.Cols, hv[:n])
		for i := 0; i < n; i++ {
			six[i] = int32(hashtab.Reduce(hv[i], routeShards))
		}
		done += n
	}
	_ = six
}

// benchWindowCompose measures one pane through the sliding-window
// composer: ClosePane over a 256-group pane (exact rows plus live sketch
// partials) followed by CloseThrough, so steady state alternates
// pane retention and full window composition at size 4 / slide 2.
func benchWindowCompose(b *testing.B) {
	const (
		paneGroups    = 256
		paneTemplates = 8
	)
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC")}
	saggs := []sketch.Agg{
		{Kind: sketch.Distinct, Input: 3},
		{Kind: sketch.Quantile, Input: 2, Q: 0.9},
	}
	comp, err := hfta.NewComposer(hfta.WindowSpec{Size: 4, Slide: 2}, queries, lfta.CountStar, saggs, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Pane templates are re-fed every paneTemplates epochs, which is safe
	// because each epoch is closed once: the composer then stores the row
	// slots and live partials without mutating them (only a duplicate
	// group within one pane is merged in place), composition folds them
	// into its own pooled accumulators, and it never resets a partial
	// handed over without PaneInput.Recycle.
	rng := rand.New(rand.NewSource(9))
	templates := make([][]hfta.PaneInput, paneTemplates)
	for t := range templates {
		for _, q := range queries {
			in := hfta.PaneInput{Rel: q, Sketches: make(map[string]*sketch.Partial, paneGroups)}
			for g := 0; g < paneGroups; g++ {
				key := []uint32{uint32(g), uint32(g % 60)}
				in.Rows = append(in.Rows, hfta.Row{Rel: q, Key: key, Aggs: []int64{int64(rng.Intn(500) + 1)}})
				p, err := sketch.NewPartial(saggs, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 8; r++ {
					p.Observe([]uint32{key[0], key[1], rng.Uint32() % 1000, rng.Uint32() % 5000})
				}
				in.Sketches[hfta.PackKey(key)] = p
			}
			templates[t] = append(templates[t], in)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint32(i)
		if err := comp.ClosePane(epoch, hfta.PaneStats{Offered: paneGroups, Processed: paneGroups}, templates[i%paneTemplates]); err != nil {
			b.Fatal(err)
		}
		// Recycling delivered results mirrors the engine's OnWindow
		// handler path and keeps the composer's freelists stocked, so
		// the measurement is the recycled steady state.
		for _, res := range comp.CloseThrough(int64(epoch)) {
			comp.Recycle(res)
		}
	}
}

// benchSketchMerge measures the serialized sketch path in isolation:
// decode two sketch partials (HLL + two t-digests), merge, and
// re-encode. Pane composition merges live partials and never takes this
// path; checkpoint snapshot and restore do (encode and decode).
func benchSketchMerge(b *testing.B) {
	const blobCount = 64
	saggs := []sketch.Agg{
		{Kind: sketch.Distinct, Input: 0},
		{Kind: sketch.Quantile, Input: 1, Q: 0.5},
		{Kind: sketch.Quantile, Input: 1, Q: 0.99},
	}
	rng := rand.New(rand.NewSource(12))
	blobs := make([][]byte, blobCount)
	for i := range blobs {
		p, err := sketch.NewPartial(saggs, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 512; r++ {
			p.Observe([]uint32{rng.Uint32() % 20000, rng.Uint32() % 100000})
		}
		blobs[i] = p.AppendBinary(nil)
	}
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, _, err := sketch.DecodePartial(saggs, 0, 0, blobs[i%blobCount])
		if err != nil {
			b.Fatal(err)
		}
		pb, _, err := sketch.DecodePartial(saggs, 0, 0, blobs[(i+1)%blobCount])
		if err != nil {
			b.Fatal(err)
		}
		if err := pa.Merge(pb); err != nil {
			b.Fatal(err)
		}
		out = pa.AppendBinary(out[:0])
	}
	_ = out
}

// shardedBenchRecords is the trace length of the sharded benchmarks; one
// benchmark op runs the whole trace.
const shardedBenchRecords = 200000

// shardedFixture is a reusable planned n-shard deployment over a fixed
// trace. Construction happens once; each benchmark op resets the pooled
// state and replays the trace, so the measurement is the steady state of
// the ingest path rather than per-iteration fixture construction.
type shardedFixture struct {
	src *stream.SliceSource
	agg *hfta.Aggregator
	s   *lfta.Sharded
}

func newShardedFixture(shards int) (*shardedFixture, error) {
	rng := rand.New(rand.NewSource(4))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 2000, 0)
	if err != nil {
		return nil, err
	}
	recs := gen.Uniform(rng, u, shardedBenchRecords, 50)
	queries := []attr.Set{attr.MustParseSet("AB"), attr.MustParseSet("BC"), attr.MustParseSet("CD")}
	groups, err := core.EstimateGroups(recs[:20000], queries)
	if err != nil {
		return nil, err
	}
	g, err := feedgraph.New(queries)
	if err != nil {
		return nil, err
	}
	plan, err := choose.GCSL(g, groups, 20000, cost.DefaultParams())
	if err != nil {
		return nil, err
	}
	agg, err := hfta.New(queries, lfta.CountStar)
	if err != nil {
		return nil, err
	}
	s, err := lfta.NewSharded(plan.Config, plan.Alloc, lfta.CountStar, 5, nil, shards)
	if err != nil {
		return nil, err
	}
	// Columnar transfer: shards seal eviction runs and the HFTA folds
	// each with one lock hold per touched shard (the engine's default
	// hookup since the columnar pipeline landed).
	s.SetRunSink(agg.MergeRun, 0)
	return &shardedFixture{src: stream.NewSliceSource(recs), agg: agg, s: s}, nil
}

// run replays the trace once from clean (but pre-sized) state.
func (f *shardedFixture) run(parallel bool) error {
	f.agg.Reset()
	f.s.Reset()
	f.src.Reset()
	if parallel {
		_, err := f.s.RunParallel(f.src, 10)
		return err
	}
	_, err := f.s.Run(f.src, 10)
	return err
}

// shardedBench runs a planned 4-shard LFTA deployment over a fixed trace
// with the batched eviction path, sequentially or in parallel.
func shardedBench(parallel bool) func(b *testing.B) {
	return func(b *testing.B) {
		f, err := newShardedFixture(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.run(parallel); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// runShardScaling measures the sharded ingest path at 1, 2, 4 and 8
// shards — sequential routing vs the pipelined parallel path — and
// reports per-shard-count throughput plus the parallel speedup.
func runShardScaling(log io.Writer) []shardScalePoint {
	var out []shardScalePoint
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		measure := func(parallel bool) testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				f, err := newShardedFixture(n)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := f.run(parallel); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		seq := measure(false)
		par := measure(true)
		p := shardScalePoint{
			Shards:            n,
			SequentialNsPerOp: float64(seq.T.Nanoseconds()) / float64(seq.N),
			ParallelNsPerOp:   float64(par.T.Nanoseconds()) / float64(par.N),
			Starved:           runtime.GOMAXPROCS(0) < n,
		}
		if p.SequentialNsPerOp > 0 {
			p.SeqRecordsPerSec = shardedBenchRecords * 1e9 / p.SequentialNsPerOp
		}
		if p.ParallelNsPerOp > 0 {
			p.ParRecordsPerSec = shardedBenchRecords * 1e9 / p.ParallelNsPerOp
			if !p.Starved {
				p.ParallelSpeedup = p.SequentialNsPerOp / p.ParallelNsPerOp
			}
		}
		out = append(out, p)
		if p.Starved {
			fmt.Fprintf(log, "shard-scaling n=%d   %12.0f rec/s seq %12.0f rec/s par  speedup n/a (starved: %d procs < %d shards)\n",
				n, p.SeqRecordsPerSec, p.ParRecordsPerSec, runtime.GOMAXPROCS(0), n)
		} else {
			fmt.Fprintf(log, "shard-scaling n=%d   %12.0f rec/s seq %12.0f rec/s par  speedup %.2fx\n",
				n, p.SeqRecordsPerSec, p.ParRecordsPerSec, p.ParallelSpeedup)
		}
	}
	return out
}
