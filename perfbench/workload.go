package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attr"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/stream"
)

// The workloads. Each generates one multi-epoch trace from the run's seed
// with the internal/gen generators magggen uses; README.md records why
// each exists and which layer it loads.

// scale holds the trace-size knobs of one workload, so the fidelity test
// can build the same shapes small.
type scale struct {
	Records  int
	Duration uint32
}

type workload struct {
	name  string
	scale scale
	// traceGen generates the trace and the workload's query texts.
	traceGen func(rng *rand.Rand, sc scale) ([]stream.Record, []string, error)
	shards   int
	store    bool
	maggd    bool // replayed by the maggd binary instead of in-process
}

// flowsGroups is magggen's default full-width group count (the paper
// trace's 2837 groups).
const flowsGroups = 2837

var workloads = []*workload{
	{
		name:     "flows",
		scale:    scale{Records: 4_000_000, Duration: 100},
		traceGen: flowsTrace,
	},
	{
		name:     "zipf-window",
		scale:    scale{Records: 2_000_000, Duration: 210},
		traceGen: zipfWindowTrace,
	},
	{
		name:     "uniform-store",
		scale:    scale{Records: 300_000, Duration: 420},
		traceGen: uniformStoreTrace,
		shards:   2,
		store:    true,
	},
	{
		name:     "maggd-flows",
		scale:    scale{Records: 4_000_000, Duration: 100},
		traceGen: flowsTrace,
		maggd:    true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

var schema4 = stream.MustSchema(4)

// flowsTrace is `magggen -kind flows` at its defaults (2837 groups, mean
// flow length 20, 64 concurrent flows) with four count(*) queries at
// time/1.
func flowsTrace(rng *rand.Rand, sc scale) ([]stream.Record, []string, error) {
	u, err := gen.UniformUniverse(rng, schema4, flowsGroups, 0)
	if err != nil {
		return nil, nil, err
	}
	ft, err := gen.Flows(rng, u, gen.FlowConfig{
		NumRecords:  sc.Records,
		Duration:    sc.Duration,
		MeanFlowLen: 20,
		Concurrency: 64,
	})
	if err != nil {
		return nil, nil, err
	}
	var sqls []string
	for _, g := range [][2]string{{"A", "B"}, {"B", "C"}, {"B", "D"}, {"C", "D"}} {
		sqls = append(sqls, fmt.Sprintf("select %s, %s, count(*) as cnt from R group by %s, %s, time/1",
			g[0], g[1], g[0], g[1]))
	}
	return ft.Records, sqls, nil
}

// Zipf-window shape: a small per-attribute value pool makes every
// two-attribute group hold several full tuples, so count_distinct(D) has
// real work. The WHERE keeps zipfPassValues consecutive values of C,
// chosen per trace to pass ≈10% of the records.
const (
	zipfGroups     = 20000
	zipfPool       = 20
	zipfSkew       = 1.1
	zipfPassRate   = 0.10
	zipfPassValues = 3
)

func zipfWindowTrace(rng *rand.Rand, sc scale) ([]stream.Record, []string, error) {
	u, err := gen.UniformUniverse(rng, schema4, zipfGroups, zipfPool)
	if err != nil {
		return nil, nil, err
	}
	recs, err := gen.Zipf(rng, u, sc.Records, sc.Duration, zipfSkew)
	if err != nil {
		return nil, nil, err
	}
	lo := passRange(recs, 2, zipfPool, zipfPassValues, zipfPassRate)
	var sqls []string
	for _, g := range [][2]string{{"A", "B"}, {"A", "C"}, {"B", "C"}} {
		sqls = append(sqls, fmt.Sprintf("select %s, %s, sum(D) as sd, count_distinct(D) as dd from R "+
			"where C >= %d and C < %d group by %s, %s, time/1 window 8 slide 2",
			g[0], g[1], lo, lo+zipfPassValues, g[0], g[1]))
	}
	return recs, sqls, nil
}

// passRange returns the lo of the range [lo, lo+width) of attribute a's
// values (drawn from [0, pool)) whose record share is closest to rate.
// Under Zipf skew one tuple can carry more than the target share, so a
// fixed range would make the pass rate swing with the seed; a fixed width
// keeps the number of groups the window queries see steady.
func passRange(recs []stream.Record, a int, pool, width uint32, rate float64) uint32 {
	counts := make([]int, pool)
	for i := range recs {
		counts[recs[i].Attrs[a]]++
	}
	target := rate * float64(len(recs))
	var lo uint32
	best := -1.0
	for v := uint32(0); v+width <= pool; v++ {
		sum := 0
		for _, c := range counts[v : v+width] {
			sum += c
		}
		if d := math.Abs(float64(sum) - target); best < 0 || d < best {
			best, lo = d, v
		}
	}
	return lo
}

// uniformStoreGroups is far above what the LFTA budget can hold, so almost
// every record evicts to the HFTA.
const uniformStoreGroups = 400_000

func uniformStoreTrace(rng *rand.Rand, sc scale) ([]stream.Record, []string, error) {
	u, err := gen.UniformUniverse(rng, schema4, uniformStoreGroups, 0)
	if err != nil {
		return nil, nil, err
	}
	recs := gen.Uniform(rng, u, sc.Records, sc.Duration)
	var sqls []string
	for _, g := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		sqls = append(sqls, fmt.Sprintf("select %s, %s, count(*) as cnt, sum(D) as sd from R group by %s, %s, time/4",
			g[0], g[1], g[0], g[1]))
	}
	return recs, sqls, nil
}

// queryRels returns the grouping relation of each query, in query order.
func queryRels(specs []*query.Spec) []attr.Set {
	rels := make([]attr.Set, len(specs))
	for i, s := range specs {
		rels[i] = s.GroupBy
	}
	return rels
}
