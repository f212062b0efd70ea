package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cost"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	notes []string
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// print writes one line per metric, then the JSON result as the last line.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, string(b))
}

// minCoverage is the share of a traced replay's engine-thread CPU time the
// stages must account for.
const minCoverage = 0.90

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarize folds a run's replays into its metrics. Timings are medians
// over replays, so one replay disturbed by the host moves nothing.
func summarize(w *workload, fx *Fixture, outs []*replayOut, rssKiB []float64, traced bool) *report {
	r := &report{Metrics: map[string]metric{}}
	for i, o := range outs {
		r.Attempted += o.Expected
		r.Failed += o.Expected - o.Correct
		for _, e := range o.Errors {
			r.notes = append(r.notes, fmt.Sprintf("replay %d: %s", i, e))
		}
	}
	r.Correct = r.Failed == 0 && len(r.notes) == 0

	var ns, wall []string
	for _, o := range outs {
		ns = append(ns, fmt.Sprintf("%.1f", float64(o.RunNs)/float64(o.Records)))
		wall = append(wall, fmt.Sprintf("%.1f", float64(o.WallNs)/float64(o.Records)))
	}
	r.notes = append(r.notes, fmt.Sprintf("ns_per_record by replay: %v", ns),
		fmt.Sprintf("wall-clock ns_per_record by replay: %v", wall))

	per := func(sel []*replayOut, f func(*replayOut) float64) float64 {
		xs := make([]float64, len(sel))
		for i, o := range sel {
			xs[i] = f(o)
		}
		return median(xs)
	}
	nsPerRecord := func(o *replayOut) float64 { return float64(o.RunNs) / float64(o.Records) }

	if !traced {
		r.add("ns_per_record", per(outs, nsPerRecord), "ns")
		r.add("emit_latency_ms_p50", per(outs, func(o *replayOut) float64 { return percentile(o.LatMs, 0.5) }), "ms")
		r.add("emit_latency_ms_p90", per(outs, func(o *replayOut) float64 { return percentile(o.LatMs, 0.9) }), "ms")
		r.add("setup_s", per(outs, func(o *replayOut) float64 { return float64(o.SetupNs) / 1e9 }), "s")
		r.add("peak_rss_mb", median(rssKiB)/1024, "MiB")
		r.add("answer_correct_share", 1-ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
		r.notes = append(r.notes, fmt.Sprintf("%d replays; answer_error_rate %g (%d of %d answers wrong)",
			len(outs), ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted))
		return r
	}

	var tr, plain []*replayOut
	for _, o := range outs {
		if o.Traced {
			tr = append(tr, o)
		} else {
			plain = append(plain, o)
		}
	}
	o0 := tr[0] // counts are deterministic: any traced replay gives them
	p := cost.DefaultParams()
	recs := float64(fx.Records)
	lrecs := float64(o0.LRecs)
	actual := ratio(float64(o0.Probes)*p.C1+float64(o0.Transfers)*p.C2, lrecs)
	unaccounted := per(tr, func(o *replayOut) float64 { return 1 - ratio(float64(o.StagesNs), float64(o.SpanNs)) })
	if !w.maggd && unaccounted > 1-minCoverage {
		r.Correct = false
		r.notes = append(r.notes, fmt.Sprintf("stages cover %.1f%% of the traced engine thread's time, want ≥ %.0f%%",
			100*(1-unaccounted), 100*minCoverage))
	}
	maxOf := func(f func(*replayOut) float64) float64 {
		m := 0.0
		for _, o := range outs {
			if v := f(o); v > m {
				m = v
			}
		}
		return m
	}

	r.add("stream.decode_ns_per_record", per(tr, func(o *replayOut) float64 { return float64(o.DecodeNs) / recs }), "ns")
	r.add("core.ingest_ns_per_record", per(tr, func(o *replayOut) float64 {
		return ratio(float64(o.IngestNs), float64(o.IngestRecs))
	}), "ns")
	r.add("core.epoch_close_ms_mean", per(tr, func(o *replayOut) float64 { return mean(o.CloseMs) }), "ms")
	r.add("core.epoch_close_ms_p90", per(tr, func(o *replayOut) float64 { return percentile(o.CloseMs, 0.9) }), "ms")
	r.add("bench.handler_ms_total", per(tr, func(o *replayOut) float64 { return float64(o.HandlerNs) / 1e6 }), "ms")
	r.add("query.pass_rate", ratio(float64(o0.Offered), recs), "ratio")
	r.add("lfta.probes_per_record", ratio(float64(o0.Probes), lrecs), "1/record")
	r.add("lfta.transfers_per_record", ratio(float64(o0.Transfers), lrecs), "1/record")
	r.add("lfta.actual_cost_per_record", actual, "1/record")
	r.add("lfta.collision_rate", o0.CollisionRate, "ratio")
	r.add("choose.modeled_cost_per_record", o0.ModeledCost, "1/record")
	r.add("choose.model_ratio", ratio(actual, o0.ModeledCost), "ratio")
	r.add("collision.modeled_rate", o0.ModelRate, "ratio")
	r.add("hfta.rows_per_epoch", ratio(float64(o0.EpochRows), float64(o0.Epochs)), "count")
	r.add("hfta.window_rows_per_window", ratio(float64(o0.WindowRows), float64(o0.Windows)), "count")
	r.add("hfta.retained_panes_max", maxOf(func(o *replayOut) float64 { return float64(o.RetainedPanesMax) }), "count")
	r.add("epochstore.write_ms_total", per(tr, func(o *replayOut) float64 { return float64(o.StoreWriteNs) / 1e6 }), "ms")
	r.add("epochstore.sync_ms_total", per(tr, func(o *replayOut) float64 { return float64(o.StoreSyncNs) / 1e6 }), "ms")
	r.add("epochstore.bytes_per_epoch", ratio(float64(o0.StoreBytes), float64(o0.Epochs)), "B")
	r.add("epochstore.syncs", float64(o0.StoreSyncs), "count")
	r.add("epochstore.unpersisted_epochs", maxOf(func(o *replayOut) float64 { return float64(o.Unpersisted) }), "count")
	r.add("runtime.alloc_bytes_per_record", per(tr, func(o *replayOut) float64 { return float64(o.AllocBytes) / recs }), "B")
	r.add("runtime.gc_cpu_frac", per(tr, func(o *replayOut) float64 { return o.GCFrac }), "ratio")
	r.add("runtime.offthread_cpu_frac", per(tr, func(o *replayOut) float64 {
		return 1 - ratio(float64(o.SpanNs), float64(o.RunNs))
	}), "ratio")
	r.add("runtime.live_heap_peak_mb", per(tr, func(o *replayOut) float64 { return float64(o.LiveHeapPeak) / (1 << 20) }), "MiB")
	r.add("setup.sample_s", per(tr, func(o *replayOut) float64 { return float64(o.SampleNs) / 1e9 }), "s")
	r.add("setup.estimate_s", per(tr, func(o *replayOut) float64 { return float64(o.EstimateNs) / 1e9 }), "s")
	r.add("setup.plan_s", per(tr, func(o *replayOut) float64 { return float64(o.PlanNs) / 1e9 }), "s")
	r.add("trace.overhead_frac", ratio(per(tr, nsPerRecord), per(plain, nsPerRecord))-1, "ratio")
	r.add("trace.unaccounted_frac", unaccounted, "ratio")
	sort.Strings(r.notes)
	return r
}
