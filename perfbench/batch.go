package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/obs"
	"comparenb/internal/pipeline"
	"comparenb/internal/table"
)

// batchSpec is one in-process closed-loop workload.
type batchSpec struct {
	dataset  func(seed int64) (*datagen.Dataset, error)
	config   func() pipeline.Config
	slo      time.Duration // per-notebook latency limit for slo_met_ratio
	traceCap int           // span buffer of the traced phase (0 = obs default)
}

// notebookRun is one notebook produced the way the CLI produces it, minus
// disk: parse the CSV bytes, generate, render every artifact.
type notebookRun struct {
	latency, load, render float64 // seconds, from the benchmark's own spans
	res                   *pipeline.Result
	ipynb                 []byte
	trace                 []byte // Chrome trace artifact; empty when untraced
}

// runNotebook times table.FromCSV, pipeline.GenerateContext and
// pipeline.RenderArtifacts back to back for one notebook.
func runNotebook(ctx context.Context, name string, csv []byte, cfg pipeline.Config) (notebookRun, error) {
	t0 := time.Now()
	rel, _, err := table.FromCSV(bytes.NewReader(csv), table.CSVOptions{Name: name})
	if err != nil {
		return notebookRun{}, fmt.Errorf("loading CSV: %w", err)
	}
	t1 := time.Now()
	res, err := pipeline.GenerateContext(ctx, rel, cfg)
	if err != nil {
		return notebookRun{}, fmt.Errorf("generating notebook: %w", err)
	}
	t2 := time.Now()
	arts, err := pipeline.RenderArtifacts(res, cfg.Obs)
	if err != nil {
		return notebookRun{}, fmt.Errorf("rendering notebook: %w", err)
	}
	t3 := time.Now()
	nb := notebookRun{
		latency: t3.Sub(t0).Seconds(),
		load:    t1.Sub(t0).Seconds(),
		render:  t3.Sub(t2).Seconds(),
		res:     res,
	}
	for _, a := range arts {
		switch a.Key {
		case "ipynb":
			nb.ipynb = a.Data
		case "trace":
			if cfg.Obs.TracingEnabled() {
				nb.trace = a.Data
			}
		}
	}
	return nb, nil
}

// batchInput is one (dataset, notebook seed) pair of a run and the
// digest of its untimed warm-up notebook.
type batchInput struct {
	name string
	csv  []byte
	seed int64
	ref  string
}

// batchSetups performs the set-up setupReps times, each on its own
// dataset and notebook seed derived from the run seed: generate the
// dataset, write its CSV bytes, run one warm-up notebook. The warm-up
// notebooks are the reference pass.
func batchSetups(ctx context.Context, seed int64, spec batchSpec) ([]batchInput, []float64, error) {
	var (
		inputs []batchInput
		setups []float64
	)
	for i := int64(0); i < setupReps; i++ {
		nbSeed := seed*1000 + i + 1
		t0 := time.Now()
		ds, err := spec.dataset(seed*100 + i)
		if err != nil {
			return nil, nil, fmt.Errorf("generating dataset: %w", err)
		}
		var buf bytes.Buffer
		if err := ds.Rel.WriteCSV(&buf); err != nil {
			return nil, nil, fmt.Errorf("writing CSV: %w", err)
		}
		cfg := spec.config()
		cfg.Seed = nbSeed
		nb, err := runNotebook(ctx, ds.Rel.Name(), buf.Bytes(), cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up notebook: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inputs = append(inputs, batchInput{name: ds.Rel.Name(), csv: buf.Bytes(), seed: nbSeed, ref: digest(nb.ipynb)})
	}
	return inputs, setups, nil
}

// batchPhase is what one timed closed-loop phase measured.
type batchPhase struct {
	latencies  []float64 // untraced, verified notebooks
	rssMB      []float64 // resident set at the end of each untraced notebook
	overheads  []float64 // traced over untraced latency, per pair
	attempted  int
	failed     int
	sloMet     int
	elapsed    float64 // seconds, first start to last finish
	allocBytes uint64  // runtime.MemStats.TotalAlloc growth
	layers     []map[string]float64
	dropped    int64
	failures   []string
}

// verified counts one notebook and checks it against its reference.
func (ph *batchPhase) verified(nb notebookRun, in batchInput) bool {
	ph.attempted++
	if err := verifyNotebook(nb.ipynb, in.ref); err != nil {
		ph.failed++
		ph.failures = append(ph.failures, fmt.Sprintf("%s seed %d: %v", in.name, in.seed, err))
		return false
	}
	return true
}

// batchLoop runs the closed loop over the inputs until window has
// passed. Every notebook starts from a collected heap whose free pages
// went back to the operating system, as a one-shot CLI process starts
// from an empty one; the resident set at the end of a notebook is then
// close to that notebook's peak, because the Go runtime hands freed
// pages back only slowly in the background. With traced set, every untraced notebook
// is followed by the same input's notebook under a fresh tracing
// registry, so the two halves of a pair differ only in tracing.
func batchLoop(ctx context.Context, spec batchSpec, inputs []batchInput, window time.Duration, traced bool) (batchPhase, error) {
	var ph batchPhase
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		in := inputs[i%len(inputs)]
		cfg := spec.config()
		cfg.Seed = in.seed
		debug.FreeOSMemory()
		nb, err := runNotebook(ctx, in.name, in.csv, cfg)
		if err != nil {
			return ph, err
		}
		rssKB, err := procStatusKB(os.Getpid(), "VmRSS")
		if err != nil {
			return ph, err
		}
		if !ph.verified(nb, in) {
			continue
		}
		ph.latencies = append(ph.latencies, nb.latency)
		ph.rssMB = append(ph.rssMB, float64(rssKB)/1024)
		if nb.latency <= spec.slo.Seconds() {
			ph.sloMet++
		}
		if !traced {
			continue
		}
		reg := obs.New()
		reg.EnableTracing(spec.traceCap)
		cfg.Obs = reg
		debug.FreeOSMemory()
		tnb, err := runNotebook(ctx, in.name, in.csv, cfg)
		if err != nil {
			return ph, err
		}
		if !ph.verified(tnb, in) {
			continue
		}
		l, err := batchLayers(nb, tnb, reg)
		if err != nil {
			return ph, err
		}
		ph.layers = append(ph.layers, l)
		ph.overheads = append(ph.overheads, tnb.latency/nb.latency)
		ph.dropped += reg.Dropped()
	}
	ph.elapsed = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	return ph, nil
}

// runBatch runs a batch workload: the set-ups, then the timed closed loop.
func runBatch(r *runner, spec batchSpec) (*outcome, error) {
	ctx := context.Background()
	inputs, setups, err := batchSetups(ctx, r.seed, spec)
	if err != nil {
		return nil, err
	}
	ph, err := batchLoop(ctx, spec, inputs, r.seconds, r.trace)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: ph.attempted,
		failed:    ph.failed,
		failures:  ph.failures,
		env:       map[string]any{"driver_threads": 1, "driver_connections": 0},
		notes: []string{
			"closed loop, 1 in-process client; latency = table.FromCSV + pipeline.GenerateContext + pipeline.RenderArtifacts of in-memory CSV bytes",
			fmt.Sprintf("%d (dataset, notebook seed) pairs per run, one per set-up; the set-up warm-up notebooks are the reference pass, and every timed notebook's ipynb SHA-256 must match its pair's", len(inputs)),
			fmt.Sprintf("slo_met_ratio limit %v per notebook; latency_p95_s rests on %d samples", spec.slo, len(ph.latencies)),
		},
	}
	if r.trace {
		out.layers = medianLayers(ph.layers)
		out.layers["obs.spans_dropped"] = float64(ph.dropped)
		out.layers["obs.tracing_overhead_ratio"] = median(ph.overheads) - 1
		out.samples = map[string]int{"pairs": len(ph.overheads)}
		out.notes = append(out.notes,
			"traced run: each untraced notebook is followed by the same input traced; per-layer values are medians over the pairs, span self times and registry counters from the traced notebook, Result.Timings and the benchmark's own spans from the untraced one; obs.tracing_overhead_ratio is the median traced/untraced latency ratio minus 1",
			"stats.draw_s, stats.eval_s, insight.eval_s and engine.cube_build_s are span self times summed over all trace tracks (busy time, which can exceed wall time)")
		return out, nil
	}
	hwm, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.endToEnd = map[string]float64{
		"setup_s":               median(setups),
		"notebooks_per_s":       float64(len(ph.latencies)) / ph.elapsed,
		"latency_p50_s":         median(ph.latencies),
		"latency_p95_s":         percentile(ph.latencies, 0.95),
		"slo_met_ratio":         float64(ph.sloMet) / float64(ph.attempted),
		"alloc_mb_per_notebook": float64(ph.allocBytes) / float64(ph.attempted) / (1 << 20),
		"peak_rss_mb":           median(ph.rssMB),
		"process_peak_rss_mb":   hwm,
		"failed_ratio":          float64(ph.failed) / float64(ph.attempted),
	}
	out.notes = append(out.notes, "peak_rss_mb is the median over notebooks of the resident set at the end of each notebook, each started from a released heap: the peak a one-shot CLI process would show; process_peak_rss_mb is VmHWM of the whole benchmark process, set-ups included")
	out.samples = map[string]int{"notebooks": ph.attempted, "setups": len(setups), "beyond_p95": beyond(ph.latencies, 0.95)}
	return out, nil
}

// batchLayers extracts the per-layer numbers of one input: span self
// times, counters and gauges from the traced notebook, and the phase
// times the pipeline reports itself (Result.Timings) and the
// benchmark's own spans from the untraced twin, which tracing does not
// slow down.
func batchLayers(nb, traced notebookRun, reg *obs.Registry) (map[string]float64, error) {
	st, err := traceSpanTimes(traced.trace)
	if err != nil {
		return nil, err
	}
	t, c := nb.res.Timings, nb.res.Counts
	l := map[string]float64{
		"table.load_s":          nb.load,
		"table.encoded_ratio":   1,
		"engine.fd_s":           t.FD.Seconds(),
		"engine.cube_build_s":   st.self["engine/cube/build"] + st.self["engine/cube/shard"],
		"engine.cube_builds":    float64(c.CubesBuilt),
		"stats.busy_s":          t.StatTests.Seconds(),
		"stats.draw_s":          st.self["stats/pair/permblock"],
		"stats.eval_s":          st.self["stats/pair/permeval"],
		"stats.tests":           float64(c.InsightsEnumerated),
		"stats.perm_blocks":     float64(reg.Counter("stats_perm_blocks_drawn").Value()),
		"pipeline.stats_share":  t.StatTests.Seconds() / t.Total.Seconds(),
		"pipeline.hypo_share":   t.HypoEval.Seconds() / t.Total.Seconds(),
		"pipeline.hypo_s":       t.HypoEval.Seconds(),
		"insight.eval_s":        st.self["hypo/eval"],
		"pipeline.hypo_queries": float64(c.QueriesGenerated),
		"tap.busy_s":            t.TAP.Seconds(),
		"tap.nodes":             float64(reg.Counter("tap_nodes_expanded").Value()),
		"notebook.render_s":     nb.render,
		"notebook.bytes":        float64(len(nb.ipynb)),
	}
	if c.InsightsEnumerated > 0 {
		l["stats.sig_ratio"] = float64(c.SignificantInsights) / float64(c.InsightsEnumerated)
	}
	if lookups := c.CacheHits + c.CacheRollups + c.CacheMisses; lookups > 0 {
		l["engine.cache_hit_ratio"] = float64(c.CacheHits) / float64(lookups)
	}
	if raw := reg.Gauge("table_encode_bytes_raw").Value(); raw > 0 {
		l["table.encoded_ratio"] = float64(reg.Gauge("table_encode_bytes_encoded").Value()) / float64(raw)
	}
	return l, nil
}

// medianLayers takes, per metric, the median over samples.
func medianLayers(samples []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayerMetrics {
		var vals []float64
		for _, s := range samples {
			if v, ok := s[m.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			out[m.name] = median(vals)
		}
	}
	return out
}
