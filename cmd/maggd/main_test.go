package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/epochstore"
	"repro/internal/gen"
	"repro/internal/hfta"
	"repro/internal/query"
	"repro/internal/stream"
)

func writeTestTrace(t *testing.T) string {
	return writeTrace(t, 15000, 30)
}

// writeTrace writes n uniform records over 300 groups spread across
// duration time units.
func writeTrace(t *testing.T, n int, duration uint32) string {
	return writeJitteredTrace(t, n, duration, 0)
}

// writeJitteredTrace writes writeTrace's records with each timestamp
// moved up to jitter units later, so that the trace arrives out of order.
func writeJitteredTrace(t *testing.T, n int, duration, jitter uint32) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	schema := stream.MustSchema(4)
	u, err := gen.UniformUniverse(rng, schema, 300, 40)
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Uniform(rng, u, n, duration)
	for i := range recs {
		recs[i].Time += uint32(rng.Intn(int(jitter) + 1))
	}
	path := filepath.Join(t.TempDir(), "t.magt")
	if err := stream.WriteTraceFile(path, schema, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(trace string, sqls []string) runConfig {
	return runConfig{trace: trace, sqls: sqls, m: 20000, sample: 5000, top: 3, quiet: true}
}

func TestRunEngine(t *testing.T) {
	trace := writeTestTrace(t)
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	}
	if err := run(testConfig(trace, sqls), io.Discard); err != nil {
		t.Fatal(err)
	}
	// Adaptive mode, per-epoch printing, and the reorder window all
	// exercise cleanly.
	cfg := testConfig(trace, sqls)
	cfg.adaptive, cfg.quiet, cfg.slack, cfg.top = true, false, 2, 2
	if err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Overload control with both shedding policies, single and sharded:
	// one global budget either way.
	for _, shed := range []string{"droptail", "uniform"} {
		for _, shards := range []int{0, 4} {
			cfg := testConfig(trace, sqls)
			cfg.budget, cfg.shed, cfg.shards = 2.5, shed, shards
			if err := run(cfg, io.Discard); err != nil {
				t.Fatalf("%s shards=%d: %v", shed, shards, err)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	trace := writeTestTrace(t)
	missing := testConfig(filepath.Join(t.TempDir(), "missing.magt"), []string{"select A, count(*) from R group by A"})
	missing.sample = 100
	if err := run(missing, io.Discard); err == nil {
		t.Error("missing trace accepted")
	}
	if err := run(testConfig(trace, []string{"not a query"}), io.Discard); err == nil {
		t.Error("bad query accepted")
	}
	if err := run(testConfig(trace, []string{
		"select A, count(*) from R group by A, time/10",
		"select B, count(*) from R group by B, time/60", // mixed epochs
	}), io.Discard); err == nil {
		t.Error("incompatible query set accepted")
	}
	bad := testConfig(trace, []string{"select A, count(*) as cnt from R group by A, time/10"})
	bad.budget, bad.shed = 10, "bogus"
	if err := run(bad, io.Discard); err == nil {
		t.Error("bogus shedding policy accepted")
	}
}

// TestRunCheckpointResume kills a run mid-stream (via the stop flag) and
// resumes it from the checkpoint: the resumed run must pick up at the
// last closed epoch and complete cleanly.
func TestRunCheckpointResume(t *testing.T) {
	trace := writeTestTrace(t)
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	}
	ckpt := filepath.Join(t.TempDir(), "maggd.ckpt")

	// Phase 1: request a stop as soon as the run loop starts; the engine
	// still flushes what it has and leaves the checkpoint at the last
	// closed boundary. To guarantee at least one boundary is crossed we
	// let the stop trigger only after some progress, so run it without
	// the stop flag but bounded: simplest is a full run writing
	// checkpoints, then a resume that finds nothing left to do.
	cfg := testConfig(trace, sqls)
	cfg.checkpoint = ckpt
	if err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	// Phase 2: resume from the checkpoint; only the final (open at
	// checkpoint time) epoch is re-processed.
	if err := run(cfg, io.Discard); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// TestRunStoreResume runs with a durable store and a checkpoint, kills
// nothing the first time (establishing persisted epochs), then resumes:
// the second run must replay the store and complete; the history path
// must answer from the persisted epochs without a trace.
func TestRunStoreResume(t *testing.T) {
	trace := writeTestTrace(t)
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "maggd.ckpt")
	storeDir := filepath.Join(dir, "store")

	cfg := testConfig(trace, sqls)
	cfg.checkpoint = ckpt
	cfg.store = storeDir
	if err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	st, err := epochstore.Open(storeDir, epochstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epochs := st.Epochs()
	st.Close()
	if len(epochs) == 0 {
		t.Fatal("run persisted no epochs")
	}

	// Resume: checkpoint restore + store replay + the tail of the stream.
	if err := run(cfg, io.Discard); err != nil {
		t.Fatalf("resume: %v", err)
	}

	// Historical query path: answered from the store alone.
	hist := runConfig{store: storeDir, history: "all", top: 2}
	if err := run(hist, io.Discard); err != nil {
		t.Fatalf("history all: %v", err)
	}
	hist.history = fmt.Sprintf("%d", epochs[0])
	if err := run(hist, io.Discard); err != nil {
		t.Fatalf("history %s: %v", hist.history, err)
	}
	hist.history = "999999"
	if err := run(hist, io.Discard); err == nil {
		t.Error("absent epoch accepted by -history")
	}
	hist.history = "bogus"
	if err := run(hist, io.Discard); err == nil {
		t.Error("malformed -history accepted")
	}
}

// TestRunSinkFaults exercises the -sink-fail-every flag end to end: the
// run completes and the per-relation lost-mass summary prints without
// disturbing the ledger.
func TestRunSinkFaults(t *testing.T) {
	trace := writeTestTrace(t)
	cfg := testConfig(trace, []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	})
	cfg.sinkFailEvery = 7
	if err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestReadQueryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.gsql")
	content := "# comment\n\nselect A, count(*) as cnt from R group by A\nselect B, count(*) as cnt from R group by B\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	qs, err := readQueryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Errorf("read %d queries; want 2", len(qs))
	}
	if _, err := readQueryFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// report is the part of maggd's output the differential tests compare:
// the summary counts and every announced per-epoch group count.
type report struct {
	records, probes, transfers, epochs int64
	groups                             map[string]int // "rel epoch" → groups
}

func parseReport(t *testing.T, out string) report {
	t.Helper()
	rep := report{records: -1, probes: -1, transfers: -1, epochs: -1, groups: map[string]int{}}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(f) < 2 {
			continue
		}
		n, _ := strconv.ParseInt(f[1], 10, 64)
		switch f[0] {
		case "records:":
			rep.records = n
		case "probes:":
			rep.probes = n
		case "transfers:":
			rep.transfers = n
		case "epochs:":
			rep.epochs = n
		case "--":
			// "-- query AB, epoch 3: 27 groups"
			if len(f) != 7 || f[1] != "query" || f[3] != "epoch" {
				t.Fatalf("unexpected line %q", line)
			}
			k, err := strconv.Atoi(f[5])
			if err != nil {
				t.Fatalf("unexpected line %q: %v", line, err)
			}
			rep.groups[f[2]+" "+strings.TrimSuffix(f[4], ":")] = k
		}
	}
	return rep
}

// reference runs the same plan in process: the sample is the trace's
// first cfg.sample records, and Engine.Run reads the trace source (behind
// the reorder window when cfg.slack is set).
func reference(t *testing.T, cfg runConfig) report {
	t.Helper()
	_, recs, err := stream.ReadTraceFile(cfg.trace)
	if err != nil {
		t.Fatal(err)
	}
	var rels []attr.Set
	for _, sql := range cfg.sqls {
		spec, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, spec.GroupBy)
	}
	groups, err := core.EstimateGroups(recs[:min(cfg.sample, len(recs))], rels)
	if err != nil {
		t.Fatal(err)
	}
	rep := report{groups: map[string]int{}}
	opts := core.Options{M: cfg.m, Budget: cfg.budget, Shards: cfg.shards}
	if cfg.budget > 0 {
		opts.Shed = core.DropTail{}
	}
	opts.OnResults = func(rel attr.Set, epoch uint32, rows []hfta.Row, _ core.Degradation) {
		rep.groups[fmt.Sprintf("%v %d", rel, epoch)] = len(rows)
	}
	eng, err := core.New(cfg.sqls, groups, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.OpenTraceSource(cfg.trace)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var in stream.Source = src
	if cfg.slack > 0 {
		in = stream.NewOrderedSource(src, cfg.slack)
	}
	if err := eng.Run(in); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	rep.records, rep.probes, rep.transfers = int64(st.Ops.Records), int64(st.Ops.Probes), int64(st.Ops.Transfers)
	rep.epochs = int64(st.Epochs)
	return rep
}

func diffReports(t *testing.T, name string, got, want report) {
	t.Helper()
	if got.records != want.records || got.probes != want.probes || got.transfers != want.transfers || got.epochs != want.epochs {
		t.Errorf("%s: records/probes/transfers/epochs = %d/%d/%d/%d; in process %d/%d/%d/%d", name,
			got.records, got.probes, got.transfers, got.epochs,
			want.records, want.probes, want.transfers, want.epochs)
	}
	if len(got.groups) != len(want.groups) {
		t.Errorf("%s: %d query-epoch lines; in process %d", name, len(got.groups), len(want.groups))
	}
	for k, n := range want.groups {
		if g, ok := got.groups[k]; !ok || g != n {
			t.Errorf("%s: query %s: %d groups (printed %v); in process %d", name, k, g, ok, n)
		}
	}
}

// stopAfter is a report writer that requests a graceful stop once n
// per-epoch query lines have been printed.
type stopAfter struct {
	bytes.Buffer
	n    int
	stop atomic.Bool
}

func (s *stopAfter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("-- query ")) {
		if s.n--; s.n == 0 {
			s.stop.Store(true)
		}
	}
	return s.Buffer.Write(p)
}

// TestRunMatchesEngine checks maggd's printed counts against an
// in-process Engine.Run over the same trace and plan, for each flag that
// changes how records reach the engine. The traces are not a whole number
// of 1024-record batches, and one is shorter than the planning sample.
func TestRunMatchesEngine(t *testing.T) {
	sqls := []string{
		"select A, B, count(*) as cnt from R group by A, B, time/2",
		"select B, C, count(*) as cnt from R group by B, C, time/2",
	}
	trace := writeTrace(t, 15000, 30)
	short := writeTrace(t, 3000, 30)
	// Jitter 3 against slack 2: the reorder window both reorders records
	// and drops some as late.
	jittered := writeJitteredTrace(t, 15000, 30, 3)
	cases := []struct {
		name string
		edit func(*runConfig)
	}{
		{"plain", func(*runConfig) {}},
		{"short", func(c *runConfig) { c.trace = short }},
		{"slack", func(c *runConfig) { c.trace, c.slack = jittered, 2 }},
		{"budget", func(c *runConfig) { c.budget = 2.5 }},
		{"shards", func(c *runConfig) { c.shards = 2 }},
	}
	for _, tc := range cases {
		cfg := testConfig(trace, sqls)
		cfg.quiet, cfg.top = false, 1
		tc.edit(&cfg)
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		diffReports(t, tc.name, parseReport(t, out.String()), reference(t, cfg))
	}

	// Kill mid-stream, then resume from the checkpoint and the store: the
	// epochs the first run closed, followed by what the resumed run
	// prints, must equal one uninterrupted in-process run. Over the
	// out-of-order trace, the stop must not release the records the
	// reorder window still holds: they would close an epoch whose later
	// records are still unread.
	for _, slack := range []uint32{0, 2} {
		cfg := testConfig(trace, sqls)
		if slack > 0 {
			cfg.trace = jittered
		}
		cfg.quiet, cfg.top, cfg.slack = false, 1, slack
		killResume(t, fmt.Sprintf("kill+resume slack %d", slack), cfg)
	}
}

// killResume stops a -checkpoint -store run after nine per-epoch query
// lines, resumes it, and compares the combined answers with one
// uninterrupted in-process run.
func killResume(t *testing.T, name string, cfg runConfig) {
	t.Helper()
	dir := t.TempDir()
	cfg.checkpoint, cfg.store = filepath.Join(dir, "maggd.ckpt"), filepath.Join(dir, "store")
	first := &stopAfter{n: 9}
	cfg.stop = &first.stop
	if err := run(cfg, first); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(first.String(), "interrupted: final epoch flushed; resume from") {
		t.Fatalf("%s: first run was not interrupted:\n%s", name, first.String())
	}
	cfg.stop = nil
	var second bytes.Buffer
	if err := run(cfg, &second); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(second.String(), "resumed from") {
		t.Fatalf("%s: second run did not resume:\n%s", name, second.String())
	}
	resumed := parseReport(t, second.String())
	for k, n := range parseReport(t, first.String()).groups {
		if _, ok := resumed.groups[k]; !ok {
			resumed.groups[k] = n
		}
	}
	diffReports(t, name, resumed, reference(t, cfg))
}

// TestRunTruncatedTrace runs with -checkpoint and -store over a trace cut
// short of its header's record count: the run must fail before it
// processes anything, leaving no checkpoint and no persisted epoch.
func TestRunTruncatedTrace(t *testing.T) {
	trace := writeTestTrace(t)
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, raw[:len(raw)-len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := testConfig(trace, []string{"select A, B, count(*) as cnt from R group by A, B, time/2"})
	cfg.checkpoint, cfg.store = filepath.Join(dir, "maggd.ckpt"), filepath.Join(dir, "store")
	var out bytes.Buffer
	if err := run(cfg, &out); !errors.Is(err, stream.ErrBadTrace) {
		t.Fatalf("run err = %v; want ErrBadTrace", err)
	}
	if strings.Contains(out.String(), "configuration:") {
		t.Errorf("run planned over a truncated trace:\n%s", out.String())
	}
	if _, err := os.Stat(cfg.checkpoint); !os.IsNotExist(err) {
		t.Errorf("checkpoint written for a truncated trace (stat err %v)", err)
	}
	st, err := epochstore.Open(cfg.store, epochstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := len(st.Epochs()); n != 0 {
		t.Errorf("store holds %d epochs from a truncated trace", n)
	}
}

// TestRunBoundedMemory runs maggd over a trace far larger than its
// planning sample: the run must allocate less, in total, than the trace
// occupies on disk (20 bytes a record), so nothing holds the whole trace.
func TestRunBoundedMemory(t *testing.T) {
	trace := writeTrace(t, 500_000, 100)
	fi, err := os.Stat(trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(trace, []string{
		"select A, B, count(*) as cnt from R group by A, B, time/10",
		"select B, C, count(*) as cnt from R group by B, C, time/10",
	})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run(cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(fi.Size()) {
		t.Errorf("run allocated %d bytes over a %d-byte trace", alloc, fi.Size())
	} else {
		t.Logf("run allocated %d bytes over a %d-byte trace", alloc, fi.Size())
	}
}
