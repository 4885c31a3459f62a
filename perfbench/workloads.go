package main

import (
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/pipeline"
	"comparenb/internal/sampling"
)

// setupReps is how many times each run performs its set-up; setup_s is
// the median. Each batch repetition sets up its own dataset and notebook
// seed, and its warm-up notebook is that pair's untimed reference: the
// timed loop cycles over all of them, so a run's figures average over
// five draws of the data instead of hinging on one.
const setupReps = 5

// A workload is one named traffic mix. Every workload generates its
// inputs with internal/datagen from the --seed argument; the program
// under test sees only the generated CSV bytes or uploaded relation.
type workload struct {
	name string
	why  string
	run  func(r *runner) (*outcome, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
//
// Phase shares quoted below were measured on a 2-core x86-64 container
// (GOMAXPROCS=2, Go 1.24) at the parent of the commit that added this
// benchmark; the traced run reprints them as pipeline.stats_share and
// pipeline.hypo_share.
var workloads = []workload{
	// batch-vaccine: one in-process client in a closed loop over the
	// Vaccine-like relation (5045 rows, 6 categorical attributes with
	// domains 2–107, 1 measure) under pipeline.NewConfig(): 200 perms,
	// εt=10, heuristic TAP, private cube cache; only the notebook seed
	// rotates. The stats-bound workload: 1.5–1.9 s per notebook, stats
	// ≈ 88% of the run, the permutation draw (stats/pair/permblock)
	// ≈ 80% of stats busy time, ≈ 560–590 MB and ≈ 2 M mallocs per
	// notebook, 15 cube builds in ≈ 2 ms total.
	//
	// Layer → metric map: a stats gain (streaming permutations) moves
	// notebooks_per_s, latency_p50_s and alloc_mb_per_notebook here via
	// stats.busy_s / stats.draw_s / stats.eval_s. A cube-kernel change
	// (engine.cube_build_s) must move nothing here.
	{
		name: "batch-vaccine",
		why:  "stats-bound closed loop: Vaccine-like 5045 rows, default config; the permutation draw dominates, cube builds are ~0.1%",
		run: func(r *runner) (*outcome, error) {
			return runBatch(r, batchSpec{
				dataset: func(seed int64) (*datagen.Dataset, error) { return datagen.VaccineLike(seed) },
				config:  pipeline.NewConfig,
				slo:     4 * time.Second,
			})
		},
	},
	// batch-flights-sampled: the same loop over the Flights-like relation
	// at 100k rows (5 attributes with domains 7–120, 3 measures, a 9.5 MB
	// CSV), stats tests on a 2% sampling.Random sample. The hypothesis
	// phase and the table layer carry real weight: 2.5–3.0 s per
	// notebook, stats ≈ 55%, hypo ≈ 42% (dominated by hypo/eval),
	// table.FromCSV 180–280 ms, FD ≈ 30–55 ms, 9 encoded cube builds
	// ≈ 60 ms, ≈ 0.9 GB allocated per notebook.
	//
	// Layer → metric map: a stats gain moves latency_p50_s here about
	// half as much as on batch-vaccine; a hypo (pipeline.hypo_s,
	// insight.eval_s), engine or table (table.load_s) gain moves it more.
	// engine.fd_s is ≈ 2% of latency_p50_s.
	{
		name: "batch-flights-sampled",
		why:  "hypo- and table-heavy closed loop: Flights-like 100k rows, 9.5 MB CSV, 2% random sampling; stats ~55%, hypo ~42%",
		run: func(r *runner) (*outcome, error) {
			return runBatch(r, batchSpec{
				dataset: func(seed int64) (*datagen.Dataset, error) { return datagen.FlightsLike(seed, 100000) },
				config: func() pipeline.Config {
					c := pipeline.NewConfig()
					c.Sampling = sampling.Random
					c.SampleFrac = 0.02
					return c
				},
				slo: 8 * time.Second,
				// ≈ 120k spans per notebook, above obs's 65,536 default.
				traceCap: 1 << 19,
			})
		},
	},
	// serve-open: open-loop Poisson arrivals from one driver process
	// against comparenbd -max-concurrent 2 with a durable state dir
	// (journal and artifact fsyncs on). Four tenants, each with its own
	// Tiny relation of 1500 rows — below the engine's 2048-row encoding
	// threshold, so the raw cube path runs, while both batch workloads
	// run the encoded path. Jobs use 200 perms and εt=10 with seeds from
	// a per-tenant pool; every coldEvery-th arrival first uploads a fresh
	// relation and drops the oldest fresh one (CSV parse, session insert,
	// cube misses, journal writes beside the hot cache-hit path). Each job
	// asks for one worker thread, so the two daemon workers use the two
	// cores without fanning out. Pipeline work is ≈ 45 ms per job, so
	// admission, journal fsync, queueing, render+persist and result fetch
	// are a large share of latency.
	//
	// Layer → metric map: server.admit_s, server.fetch_s,
	// server.post_pipeline_s and notebook.render_s move latency_p50_s;
	// server.queue_wait_p95_s moves latency_p95_s and slo_met_ratio;
	// server.shed_ratio moves slo_met_ratio; engine.cache_hit_ratio may
	// move latency_p50_s a little. Stats changes show least here.
	{
		name: "serve-open",
		why:  "open-loop Poisson traffic on comparenbd with durable state: 4 tenants, 1500-row relations, one thread per job, shared cube cache, 1 in 10 arrivals cold",
		run:  runServe,
	},
}

// Serve workload parameters. The offered rate sits well below the knee
// (a 40-job burst completes at ≈ 20 jobs/s on 2 cores; at 12/s tail
// latency already swings with every stall of the machine), so the
// backlog stays bounded, and a 30 s run holds 200 arrivals, 10 of them
// beyond p95.
//
// One thread per job keeps the request path from depending on both
// cores at once. With the default width (GOMAXPROCS = 2) every job's
// stats phase fans out to both cores and waits for the slower one, so a
// CPU burst taken by another tenant of a shared host stalls nearly every
// job: under a competing load of 15 ms bursts taking 10% of each core,
// latency_p50_s rose by 45% at two threads and by 15–25% at one, and
// across seeds on a host with CPU steal its quartile spread reached 0.69.
const (
	serveRate       = 6.7 // arrivals per second
	serveJobThreads = 1   // "threads" of every job request
	serveSLO        = 500 * time.Millisecond
	serveTenants    = 4
	serveRows       = 1500
	serveSeedPool   = 8  // notebook seeds per tenant
	serveColdEvery  = 10 // every 10th arrival uploads a fresh relation first
	serveFreshKeep  = 2  // fresh relations kept loaded; older ones are dropped
	serveWorkers    = 2  // comparenbd -max-concurrent
	servePerms      = 200
	serveQueries    = 10
	// serveTraceBlock is the run of consecutive arrivals that share one
	// tracing mode in a traced run.
	serveTraceBlock = 20
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the user-visible metrics every untraced run prints
// on its last line (BENCHMARK.json "end_to_end"), each gated by a bound.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"notebooks_per_s", "1/s"},
	{"latency_p50_s", "s"},
	{"slo_met_ratio", "ratio"},
	{"alloc_mb_per_notebook", "MB"},
	{"peak_rss_mb", "MB"},
}

// recordOnlyMetrics are end-to-end metrics printed in the full record but
// not on the last line, so no bound gates them. latency_p95_s rests on
// 10 samples beyond it on serve-open and is the maximum of 8–16 samples
// on the batch workloads; across seeds its quartile spread reached 0.27
// (batch-vaccine) and 0.37 (serve-open) on a shared 2-core host, above
// the largest bound a gated metric may have. failed_ratio reads 0 on a
// correct program; the same count is the result's "failed" field.
// process_peak_rss_mb (batch only) is the benchmark process's VmHWM,
// the maximum over set-ups and every notebook of the run.
var recordOnlyMetrics = []metricDef{
	{"latency_p95_s", "s"},
	{"failed_ratio", "ratio"},
	{"process_peak_rss_mb", "MB"},
}

// perLayerMetrics are the single-layer metrics every traced run prints
// (BENCHMARK.json "per_layer"). Each comment names the end-to-end metric
// and workload it should move. A metric a workload has no such layer
// for reads 0 there and is listed under "not_applicable" in the record.
var perLayerMetrics = []metricDef{
	{"table.load_s", "s"},            // latency_p50_s on batch-flights-sampled; setup_s everywhere
	{"table.encoded_ratio", "ratio"}, // alloc_mb_per_notebook, peak_rss_mb on the batch workloads
	{"engine.fd_s", "s"},             // latency_p50_s on batch-flights-sampled (≈ 2%)
	{"engine.cube_build_s", "s"},     // alloc_mb_per_notebook / peak_rss_mb; latency should not move
	{"engine.cube_builds", "count"},
	{"engine.cache_hit_ratio", "ratio"}, // latency_p50_s on serve-open, little expected
	{"stats.busy_s", "s"},               // notebooks_per_s, latency_p50_s, alloc on batch-vaccine
	{"stats.draw_s", "s"},
	{"stats.eval_s", "s"},
	{"stats.tests", "count"},       // repeats exactly for a seed; a change is an output change
	{"stats.perm_blocks", "count"}, // falls if permutation draws are shared
	{"stats.sig_ratio", "ratio"},   // a change is an output change
	{"pipeline.stats_share", "ratio"},
	{"pipeline.hypo_share", "ratio"},
	{"pipeline.hypo_s", "s"}, // latency_p50_s on batch-flights-sampled
	{"insight.eval_s", "s"},
	{"pipeline.hypo_queries", "count"},
	{"tap.busy_s", "s"}, // none: TAP is ≤ 0.4% on every workload
	{"tap.nodes", "count"},
	{"notebook.render_s", "s"}, // latency_p50_s on serve-open
	{"notebook.bytes", "bytes"},
	{"server.admit_s", "s"}, // latency_p50_s on serve-open
	{"server.fetch_s", "s"},
	{"server.queue_wait_p50_s", "s"}, // latency_p95_s, slo_met_ratio on serve-open
	{"server.queue_wait_p95_s", "s"},
	{"server.run_s", "s"}, // latency_p50_s on serve-open
	{"server.post_pipeline_s", "s"},
	{"server.shed_ratio", "ratio"}, // slo_met_ratio on serve-open
	{"server.retries", "count"},
	{"durable.bytes_per_job", "bytes"}, // disk per job; peak_rss_mb unaffected
	{"driver.lag_p95_s", "s"},          // none: a sanity bound on the open loop
	{"obs.tracing_overhead_ratio", "ratio"},
	{"obs.spans_dropped", "count"}, // must read 0
}
