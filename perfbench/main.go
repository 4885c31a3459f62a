// Command perfbench is comparenb's benchmark of record. It runs one named
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics. The lines before it hold the full record: environment, every
// metric with its unit, sample counts and notes.
//
//	bash perfbench/run.sh --workload batch-vaccine --seed 1 --seconds 30 --trace 0
//
// run.sh builds comparenbd and this driver from the checkout it sits in
// and passes -daemon and -workdir. With --trace 0 the metrics are the
// end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from a run that interleaves untraced and traced work
// and reports the latency gap between the two as tracing overhead.
// workloads.go defines the workloads and records why each was chosen and
// which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runner carries one invocation's arguments to a workload.
type runner struct {
	seed    int64
	seconds time.Duration
	trace   bool
	daemon  string // comparenbd binary (serve workloads)
	workdir string // scratch space inside the checkout
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	failures          []string // one line per failed operation
	endToEnd          map[string]float64
	layers            map[string]float64
	samples           map[string]int
	env               map[string]any
	notes             []string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output: the benchmark contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name (see workloads.go)")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	daemon := fl.String("daemon", "", "comparenbd binary built from the commit under test")
	workdir := fl.String("workdir", "", "scratch directory for state dirs and logs")
	if err := fl.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *workdir == "":
		return fmt.Errorf("-workdir is required")
	}
	r := &runner{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		daemon:  *daemon,
		workdir: *workdir,
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return err
	}
	// Only daemon state dirs and logs live here; a failed removal leaves
	// files under the ignored build directory and changes no result.
	defer func() { _ = os.RemoveAll(r.workdir) }()
	started := time.Now()
	calBefore := calibrate()
	steal0, total0 := cpuTicks()
	out, err := w.run(r)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	steal1, total1 := cpuTicks()
	if out.env == nil {
		out.env = map[string]any{}
	}
	// How fast this machine ran around the run, and how much CPU time the
	// hypervisor gave to others while its CPUs wanted to run: on a shared
	// host these explain most run-to-run spread.
	out.env["calibration_s"] = []float64{calBefore, calibrate()}
	if total1 > total0 {
		out.env["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}

	defs, values := endToEndMetrics, out.endToEnd
	if r.trace {
		defs, values = perLayerMetrics, out.layers
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	missing := []string{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	record := map[string]any{
		"workload":       w.name,
		"why":            w.why,
		"seed":           r.seed,
		"seconds":        *seconds,
		"trace":          *trace,
		"wall_s":         time.Since(started).Seconds(),
		"env":            environment(r, out.env),
		"samples":        out.samples,
		"notes":          out.notes,
		"failures":       out.failures,
		"not_applicable": missing,
		"metrics":        allMetrics(out),
	}
	rec, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", rec, last)
	return err
}

// allMetrics lists every metric a run measured with its unit, including
// those the last line omits.
func allMetrics(out *outcome) map[string]metricValue {
	all := map[string]metricValue{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), recordOnlyMetrics...) {
		if v, ok := out.endToEnd[d.name]; ok {
			all[d.name] = metricValue{v, d.unit}
		}
	}
	for _, d := range perLayerMetrics {
		if v, ok := out.layers[d.name]; ok {
			all[d.name] = metricValue{v, d.unit}
		}
	}
	return all
}

// environment is the hardware and software record every result carries.
func environment(r *runner, extra map[string]any) map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     gitCommit("."),
		"source":     sourceDigest("."),
		"workdir_fs": mountFS(r.workdir),
	}
	for k, v := range extra {
		env[k] = v
	}
	return env
}

// calibrate times a fixed single-threaded job, SHA-256 over 64 MiB
// streamed from a 1 MiB buffer: a yardstick for the machine's speed at
// the time of a run.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	h := sha256.New()
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		_, _ = h.Write(buf) // hash.Hash writes never return an error
	}
	d := time.Since(t0).Seconds()
	runtime.KeepAlive(h.Sum(nil))
	return d
}

// cpuTicks reads the machine-wide steal and total CPU time from the
// first line of /proc/stat, in clock ticks; zeros when unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the git repository at root without running
// git, or says why it cannot.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown (unresolved " + ref + ")"
}

// sourceDigest hashes every .go file and go.mod under root, by path
// order, skipping hidden directories: it identifies the code under test
// in a checkout that is not a git repository.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		// hash.Hash writes never return an error.
		_, _ = fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		_, _ = h.Write(data)
	}
	return fmt.Sprintf("sha256:%s (%d files)", hex.EncodeToString(h.Sum(nil))[:16], len(paths))
}
