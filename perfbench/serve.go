package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/pipeline"
)

// daemon is one comparenbd process started by the benchmark.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	dir      string
	stateDir string
}

// startDaemon starts comparenbd on an ephemeral port with a fresh
// durable state dir under dir and waits until /readyz reports ready.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, stateDir: filepath.Join(dir, "state")}
	addrFile := filepath.Join(dir, "addr")
	logFile, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer func() { _ = logFile.Close() }() // the child holds its own descriptor
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state-dir", d.stateDir,
		"-max-concurrent", strconv.Itoa(serveWorkers),
		"-log-format", "off")
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting comparenbd: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(addr)) > 0 {
			d.base = "http://" + strings.TrimSpace(string(addr))
			resp, err := http.Get(d.base + "/readyz")
			if err == nil {
				_ = resp.Body.Close() // status is all we need
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if exited(d.cmd.Process.Pid) || time.Now().After(deadline) {
			_ = d.stop() // the start failure is the error worth reporting
			log, _ := os.ReadFile(filepath.Join(dir, "daemon.log"))
			return nil, fmt.Errorf("comparenbd never became ready; log: %s", bytes.TrimSpace(log))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exited reports whether process pid has terminated (is a zombie or gone).
func exited(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	// The state field follows the parenthesised command name.
	i := bytes.LastIndexByte(data, ')')
	return i < 0 || i+2 >= len(data) || data[i+2] == 'Z' || data[i+2] == 'X'
}

// stop drains the daemon with SIGTERM, kills it if the drain takes more
// than 30 s, and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	kill := time.AfterFunc(30*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	err := d.cmd.Wait()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return fmt.Errorf("comparenbd exited with %v", exitErr)
	}
	return err
}

// newClient is one HTTP connection's worth of client: the driver's
// connection count is the number of clients it makes.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// call sends one request and returns the status code and body.
func call(c *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches url and fails on anything but 200.
func get(c *http.Client, url string) ([]byte, error) {
	code, data, err := call(c, http.MethodGet, url, "", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", url, code, bytes.TrimSpace(data))
	}
	return data, err
}

// waitTerminal follows a job's server-sent event stream until the server
// closes it, which it does once the job is terminal, and returns the
// terminal state. Completion is pushed, not polled. The daemon can close
// the stream without sending the terminal event: job.complete marks the
// job done before it appends the done event, and a stream that drains
// the log in between sees a terminal job with nothing left to send. The
// job's status then gives the state, and missed reports that the
// terminal event was lost.
func waitTerminal(c *http.Client, base, id string) (state string, missed bool, err error) {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", false, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("events for %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			state = "done"
		case line == "event: error":
			state = "failed"
		case strings.HasPrefix(line, "data: ") && strings.Contains(line, `"state":"cancelled"`):
			state = "cancelled"
		}
	}
	if err := sc.Err(); err != nil {
		return "", false, err
	}
	if state != "" {
		return state, false, nil
	}
	body, err := get(c, base+"/v1/jobs/"+id)
	if err != nil {
		return "", true, err
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", true, fmt.Errorf("status of %s: %w", id, err)
	}
	switch st.State {
	case "done", "failed", "failed_permanent", "cancelled":
		return st.State, true, nil
	}
	return "", true, fmt.Errorf("event stream of %s ended without a terminal event while the job is %q", id, st.State)
}

// jobRequest is the POST /v1/notebooks body the driver sends.
type jobRequest struct {
	Relation string `json:"relation"`
	Tenant   string `json:"tenant"`
	Queries  int    `json:"queries"`
	Perms    int    `json:"perms"`
	Seed     int64  `json:"seed"`
	Threads  int    `json:"threads"`
}

// submit posts one job; id is empty when the daemon did not admit it.
func submit(c *http.Client, base string, req jobRequest) (id string, code int, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	code, data, err := call(c, http.MethodPost, base+"/v1/notebooks", "application/json", body)
	if err != nil || code != http.StatusAccepted {
		return "", code, err
	}
	var resp struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", code, fmt.Errorf("admission response: %w", err)
	}
	return resp.JobID, code, nil
}

// relationData is one generated relation as the daemon receives it.
type relationData struct {
	name string
	csv  []byte
}

func tinyRelation(name string, seed int64) (relationData, error) {
	ds, err := datagen.Tiny(seed, serveRows)
	if err != nil {
		return relationData{}, err
	}
	var buf bytes.Buffer
	if err := ds.Rel.WriteCSV(&buf); err != nil {
		return relationData{}, err
	}
	return relationData{name: name, csv: buf.Bytes()}, nil
}

func upload(c *http.Client, base string, rel relationData) error {
	code, data, err := call(c, http.MethodPost, base+"/v1/relations?name="+rel.name, "text/csv", rel.csv)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("uploading %s: %d %s", rel.name, code, bytes.TrimSpace(data))
	}
	return err
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	at       time.Duration // due offset from the start of the timed phase
	tenant   int
	seed     int64
	relation string
	fresh    int // index of the fresh relation uploaded first; -1 for a hot arrival
}

// serveArrivals builds the reproducible open-loop schedule: Poisson send
// times, uniformly drawn tenants, seeds from the tenant's pool, and every
// serveColdEvery-th arrival on a freshly uploaded relation.
func serveArrivals(seed int64, window time.Duration) []arrival {
	times := poissonSchedule(seed, serveRate, window)
	rng := rand.New(rand.NewSource(seed + 7919))
	out := make([]arrival, len(times))
	fresh := 0
	for i, at := range times {
		t := rng.Intn(serveTenants)
		a := arrival{at: at, tenant: t, seed: tenantSeed(seed, t, rng.Intn(serveSeedPool)),
			relation: baseName(t), fresh: -1}
		if i%serveColdEvery == serveColdEvery-1 {
			a.fresh, a.relation = fresh, freshName(fresh)
			fresh++
		}
		out[i] = a
	}
	return out
}

func baseName(t int) string   { return fmt.Sprintf("t%d-base", t) }
func freshName(k int) string  { return fmt.Sprintf("fresh-%03d", k) }
func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }
func tenantSeed(seed int64, t, j int) int64 {
	return seed*1000 + int64(t*serveSeedPool+j) + 1
}

// served is one request's fate as the driver saw it.
type served struct {
	arrival
	id          string
	state       string  // done | failed | cancelled | shed | error
	lag         float64 // send time − due time, seconds
	sseMissed   bool    // the event stream closed without the terminal event
	admit       float64 // client-timed POST /v1/notebooks
	upload      float64 // client-timed fresh-relation upload (cold arrivals)
	fetch       float64 // client-timed GET result
	latency     float64 // due time → verified bytes received
	ipynb       []byte
	traceArt    []byte // ?format=trace (traced blocks only)
	metricsArt  []byte // ?format=metrics (traced blocks only)
	flightTrace []byte // /v1/jobs/{id}/trace (traced blocks only)
	err         string
}

// jobStatus is the part of GET /v1/jobs the benchmark reads.
type jobStatus struct {
	ID         string `json:"id"`
	CreatedMS  int64  `json:"created_unix_ms"`
	StartedMS  int64  `json:"started_unix_ms"`
	FinishedMS int64  `json:"finished_unix_ms"`
	Summary    *struct {
		WallMS       int64 `json:"wall_ms"`
		CacheHits    int   `json:"cache_hits"`
		CacheRollups int   `json:"cache_rollups"`
		CacheMisses  int   `json:"cache_misses"`
	} `json:"summary"`
}

// openLoop sends arrivals on schedule from one connection while a second
// connection follows each admitted job, in admission order, to its
// verified bytes. withTraces marks the arrivals whose trace artifacts
// are downloaded as well.
func openLoop(d *daemon, arrivals []arrival, fresh []relationData, withTraces func(i int) bool) ([]served, time.Time, time.Time) {
	out := make([]served, len(arrivals))
	sendC, fetchC := newClient(), newClient()
	admitted := make(chan int, len(arrivals)) // one send per arrival at most
	senderDone := make(chan struct{})
	start := time.Now().Add(20 * time.Millisecond)
	go func() {
		defer close(senderDone)
		defer close(admitted)
		var loaded []string
		for i, a := range arrivals {
			s := &out[i]
			s.arrival = a
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			s.lag = time.Since(due).Seconds()
			if a.fresh >= 0 {
				t0 := time.Now()
				if err := upload(sendC, d.base, fresh[a.fresh]); err != nil {
					s.state, s.err = "error", err.Error()
					continue
				}
				s.upload = time.Since(t0).Seconds()
				loaded = append(loaded, a.relation)
				if len(loaded) > serveFreshKeep {
					code, body, err := call(sendC, http.MethodDelete, d.base+"/v1/relations/"+loaded[0], "", nil)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("dropping %s: %d %s", loaded[0], code, bytes.TrimSpace(body))
					}
					if err != nil {
						s.state, s.err = "error", err.Error()
						continue
					}
					loaded = loaded[1:]
				}
			}
			t0 := time.Now()
			id, code, err := submit(sendC, d.base, jobRequest{Relation: a.relation, Tenant: tenantName(a.tenant),
				Queries: serveQueries, Perms: servePerms, Seed: a.seed, Threads: serveJobThreads})
			s.admit, s.id = time.Since(t0).Seconds(), id
			switch {
			case err != nil:
				s.state, s.err = "error", err.Error()
			case code == http.StatusTooManyRequests:
				s.state = "shed"
			case id == "":
				s.state, s.err = "error", fmt.Sprintf("admission answered %d", code)
			default:
				admitted <- i
			}
		}
	}()
	var last time.Time
	for i := range admitted {
		s := &out[i]
		state, missed, err := waitTerminal(fetchC, d.base, s.id)
		s.sseMissed = missed
		if err != nil {
			s.state, s.err = "error", err.Error()
			continue
		}
		s.state = state
		if state != "done" {
			continue
		}
		t0 := time.Now()
		s.ipynb, err = get(fetchC, d.base+"/v1/jobs/"+s.id+"/result")
		if err != nil {
			s.state, s.err = "error", err.Error()
			continue
		}
		last = time.Now()
		s.fetch = last.Sub(t0).Seconds()
		s.latency = last.Sub(start.Add(s.at)).Seconds()
		if withTraces(i) {
			for _, dl := range []struct {
				dst  *[]byte
				path string
			}{
				{&s.traceArt, "/result?format=trace"},
				{&s.metricsArt, "/result?format=metrics"},
				{&s.flightTrace, "/trace"},
			} {
				if *dl.dst, err = get(fetchC, d.base+"/v1/jobs/"+s.id+dl.path); err != nil {
					s.state, s.err = "error", err.Error()
					break
				}
			}
		}
	}
	<-senderDone
	return out, start, last
}

// refKey identifies one reference notebook.
type refKey struct {
	relation string
	seed     int64
}

// references computes, in-process and untimed, the one-shot notebook for
// every (relation, seed) pair: pipeline.Generate with the Config the
// daemon builds for the driver's requests. It returns the digests, the
// mean allocation and the median render time per notebook.
func references(keys []refKey, csvs map[string][]byte) (map[refKey]string, float64, float64, error) {
	if len(keys) == 0 {
		return nil, 0, 0, errors.New("reference pass: no job completed")
	}
	sums := make([]string, len(keys))
	renders := make([]float64, len(keys))
	errs := make([]error, len(keys))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	next := make(chan int, len(keys)) // holds every key index up front
	for i := range keys {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				nb, err := runNotebook(context.Background(), k.relation, csvs[k.relation], serveConfig(k.seed))
				if err != nil {
					errs[i] = err
					continue
				}
				renders[i], sums[i] = nb.render, digest(nb.ipynb)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if err := errors.Join(errs...); err != nil {
		return nil, 0, 0, fmt.Errorf("reference pass: %w", err)
	}
	digests := make(map[refKey]string, len(keys))
	for i, k := range keys {
		digests[k] = sums[i]
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(keys)) / (1 << 20)
	return digests, alloc, median(renders), nil
}

// serveConfig mirrors the daemon's request-to-Config mapping for the
// driver's requests: pipeline.NewConfig defaults, the name "server", and
// the request's queries, perms, seed and threads. The daemon documents
// that a one-shot run with this Config yields byte-identical notebooks.
func serveConfig(seed int64) pipeline.Config {
	cfg := pipeline.NewConfig()
	cfg.Name = "server"
	cfg.EpsT = serveQueries
	cfg.Perms = servePerms
	cfg.Seed = seed
	cfg.Threads = serveJobThreads
	return cfg
}

// scrapeCounters reads the counter and gauge samples of a metrics
// exposition (names without the comparenb_ prefix, counters with _total).
func scrapeCounters(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[strings.TrimPrefix(name, "comparenb_")] = v
		}
	}
	return out
}

// runServe runs the serve-open workload.
func runServe(r *runner) (*outcome, error) {
	if r.daemon == "" {
		return nil, errors.New("serve workloads need -daemon")
	}
	arrivals := serveArrivals(r.seed, r.seconds)
	csvs := map[string][]byte{}
	bases := make([]relationData, serveTenants)
	for t := range bases {
		rel, err := tinyRelation(baseName(t), r.seed*1000+int64(t))
		if err != nil {
			return nil, err
		}
		bases[t], csvs[rel.name] = rel, rel.csv
	}
	var fresh []relationData
	for _, a := range arrivals {
		if a.fresh >= 0 {
			rel, err := tinyRelation(a.relation, r.seed*1000+500+int64(a.fresh))
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, rel)
			csvs[rel.name] = rel.csv
		}
	}

	// Set-up, setupReps times: start the daemon, wait for /readyz, upload
	// the tenants' relations, one warm-up job per relation. The last
	// daemon serves the timed phase.
	var (
		setups  []float64
		d       *daemon
		warmups []served
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(d.dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(r.daemon, filepath.Join(r.workdir, "serve"))
		if err != nil {
			return nil, err
		}
		warmups, err = serveSetup(d, bases, r.seed)
		if err != nil {
			_ = d.stop() // the set-up failure is the error worth reporting
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // already failing; the first error is reported
		}
	}()

	stateBefore, err := dirBytes(d.stateDir)
	if err != nil {
		return nil, err
	}
	// In the traced run, blocks of arrivals alternate between plain and
	// traced, so slow drift in the machine hits both kinds alike.
	withTraces := func(i int) bool { return r.trace && (i/serveTraceBlock)%2 == 1 }
	res, start, last := openLoop(d, arrivals, fresh, withTraces)

	stateAfter, err := dirBytes(d.stateDir)
	if err != nil {
		return nil, err
	}
	ctl := newClient()
	var statuses []jobStatus
	body, err := get(ctl, d.base+"/v1/jobs")
	if err == nil {
		err = json.Unmarshal(body, &statuses)
	}
	if err != nil {
		return nil, fmt.Errorf("job statuses: %w", err)
	}
	metricsText, err := get(ctl, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	serverCounters := scrapeCounters(metricsText)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}

	// Reference pass and output check.
	seen := map[refKey]bool{}
	var keys []refKey
	for _, s := range append(append([]served(nil), warmups...), res...) {
		k := refKey{s.relation, s.seed}
		if s.state == "done" && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	refs, allocMB, renderS, err := references(keys, csvs)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for _, w := range warmups {
		if err := verifyNotebook(w.ipynb, refs[refKey{w.relation, w.seed}]); err != nil {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("warm-up on %s seed %d: %v", w.relation, w.seed, err))
		}
	}
	var (
		lat, lags, admits, fetches, uploads, sizes []float64
		plainLat, tracedLat                        []float64
		sloMet, shed, sseMissed                    int
		done                                       = map[string]*served{}
	)
	for _, w := range warmups {
		if w.sseMissed {
			sseMissed++
		}
	}
	for i := range res {
		s := &res[i]
		out.attempted++
		lags = append(lags, s.lag)
		if s.id != "" {
			admits = append(admits, s.admit)
		}
		if s.fresh >= 0 && s.upload > 0 {
			uploads = append(uploads, s.upload)
		}
		if s.state == "shed" {
			shed++
		}
		if s.sseMissed {
			sseMissed++
		}
		if s.state != "done" {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("arrival %d (%s): %s %s", i, s.relation, s.state, s.err))
			continue
		}
		if err := verifyNotebook(s.ipynb, refs[refKey{s.relation, s.seed}]); err != nil {
			out.failed++
			out.failures = append(out.failures, fmt.Sprintf("job %s on %s seed %d: %v", s.id, s.relation, s.seed, err))
			continue
		}
		done[s.id] = s
		lat = append(lat, s.latency)
		fetches = append(fetches, s.fetch)
		sizes = append(sizes, float64(len(s.ipynb)))
		if s.latency <= serveSLO.Seconds() {
			sloMet++
		}
		if withTraces(i) {
			tracedLat = append(tracedLat, s.latency)
		} else {
			plainLat = append(plainLat, s.latency)
		}
	}
	if out.attempted == 0 {
		return nil, errors.New("the schedule holds no arrivals; raise --seconds")
	}

	var queueWaits, runs, posts []float64
	var hits, misses, lookups int
	for _, st := range statuses {
		if done[st.ID] == nil || st.Summary == nil {
			continue
		}
		queueWaits = append(queueWaits, float64(st.StartedMS-st.CreatedMS)/1e3)
		run := float64(st.FinishedMS-st.StartedMS) / 1e3
		runs = append(runs, run)
		posts = append(posts, run-float64(st.Summary.WallMS)/1e3)
		hits += st.Summary.CacheHits
		misses += st.Summary.CacheMisses
		lookups += st.Summary.CacheHits + st.Summary.CacheRollups + st.Summary.CacheMisses
	}

	attempted := float64(out.attempted)
	out.endToEnd = map[string]float64{
		"setup_s":               median(setups),
		"notebooks_per_s":       ratio(float64(len(lat)), last.Sub(start).Seconds()),
		"latency_p50_s":         median(lat),
		"latency_p95_s":         percentile(lat, 0.95),
		"slo_met_ratio":         float64(sloMet) / attempted,
		"alloc_mb_per_notebook": allocMB,
		"peak_rss_mb":           rss,
		"failed_ratio":          float64(out.failed) / attempted,
	}
	out.samples = map[string]int{
		"arrivals": out.attempted, "verified": len(lat), "beyond_p95": beyond(lat, 0.95),
		"cold_arrivals": len(fresh), "references": len(keys), "setups": len(setups),
		"sse_streams_without_terminal_event": sseMissed,
	}
	out.env = map[string]any{
		"driver_threads":     runtime.GOMAXPROCS(0),
		"driver_connections": 2,
		"state_dir":          "under -workdir, inside the checkout",
		"state_dir_fs":       mountFS(r.workdir),
		"daemon_flags":       fmt.Sprintf("-state-dir <workdir>/serve/state -max-concurrent %d (journal and artifact fsyncs on)", serveWorkers),
		"job_threads":        serveJobThreads,
		"offered_rate_per_s": serveRate,
		"slo_limit_s":        serveSLO.Seconds(),
	}
	out.notes = []string{
		"open loop: Poisson arrivals from the seed; latency runs from each request's due time, not its send time",
		"completion is pushed by the job's /events stream on the driver's second connection (no polling); queue/run segments use the status timestamps, which have 1 ms resolution",
		"a stream that closes without its done/error event is followed by one GET /v1/jobs/{id} for the state; samples.sse_streams_without_terminal_event counts those streams (a daemon defect: job.complete marks the job done before it appends the done event)",
		"every fetched ipynb must equal, byte for byte, a one-shot in-process pipeline run with the daemon's Config for the request",
		"alloc_mb_per_notebook is measured on that in-process reference pass (same Config, private cube cache): the daemon exposes no allocation counter",
	}

	layers := map[string]float64{
		"table.load_s":            median(uploads),
		"table.encoded_ratio":     1,
		"engine.cache_hit_ratio":  ratio(float64(hits), float64(lookups)),
		"engine.cube_builds":      ratio(float64(misses), float64(len(runs))),
		"notebook.render_s":       renderS,
		"notebook.bytes":          median(sizes),
		"server.admit_s":          median(admits),
		"server.fetch_s":          median(fetches),
		"server.queue_wait_p50_s": median(queueWaits),
		"server.queue_wait_p95_s": percentile(queueWaits, 0.95),
		"server.run_s":            median(runs),
		"server.post_pipeline_s":  median(posts),
		"server.shed_ratio":       float64(shed) / attempted,
		"server.retries":          serverCounters["server_job_retries_total"],
		"durable.bytes_per_job":   ratio(float64(stateAfter-stateBefore), float64(len(done))),
		"driver.lag_p95_s":        percentile(lags, 0.95),
		"obs.spans_dropped":       serverCounters["obs_spans_dropped_total"],
	}
	if r.trace {
		if err := serveTraceLayers(res, done, layers); err != nil {
			return nil, err
		}
		layers["obs.tracing_overhead_ratio"] = ratio(median(tracedLat), median(plainLat)) - 1
		out.notes = append(out.notes,
			fmt.Sprintf("traced run: every other block of %d arrivals also downloads each job's trace and metrics artifacts and /v1/jobs/{id}/trace; obs.tracing_overhead_ratio is those blocks' latency_p50_s over the other blocks', minus 1", serveTraceBlock),
			"comparenbd traces every job; that cost cannot be separated from outside and is in every serve number",
			"table.load_s is the client-timed fresh-relation upload (the daemon parses the CSV); notebook.render_s is timed on the reference pass")
		out.samples["traced_jobs"] = len(tracedLat)
	}
	out.layers = layers
	return out, nil
}

// serveSetup uploads the tenants' relations and runs one warm-up job per
// relation, returning the warm-ups for the output check.
func serveSetup(d *daemon, bases []relationData, seed int64) ([]served, error) {
	c := newClient()
	var warm []served
	for t, rel := range bases {
		if err := upload(c, d.base, rel); err != nil {
			return nil, err
		}
		s := served{arrival: arrival{tenant: t, seed: tenantSeed(seed, t, 0), relation: rel.name, fresh: -1}}
		id, code, err := submit(c, d.base, jobRequest{Relation: rel.name, Tenant: tenantName(t),
			Queries: serveQueries, Perms: servePerms, Seed: s.seed, Threads: serveJobThreads})
		if err == nil && id == "" {
			err = fmt.Errorf("warm-up admission answered %d", code)
		}
		if err != nil {
			return nil, err
		}
		if s.state, s.sseMissed, err = waitTerminal(c, d.base, id); err != nil {
			return nil, err
		}
		if s.ipynb, err = get(c, d.base+"/v1/jobs/"+id+"/result"); err != nil {
			return nil, err
		}
		warm = append(warm, s)
	}
	return warm, nil
}

// serveTraceLayers fills the per-layer metrics the downloaded per-job
// traces and metrics artifacts give: medians over the traced jobs.
func serveTraceLayers(res []served, done map[string]*served, layers map[string]float64) error {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	jobs := 0
	for i := range res {
		s := &res[i]
		if done[s.id] == nil || s.traceArt == nil {
			continue
		}
		st, err := traceSpanTimes(s.traceArt)
		if err != nil {
			return fmt.Errorf("job %s trace: %w", s.id, err)
		}
		if _, err := traceSpanTimes(s.flightTrace); err != nil {
			return fmt.Errorf("job %s flight trace: %w", s.id, err)
		}
		m := scrapeCounters(s.metricsArt)
		total := st.total["run"]
		add("engine.fd_s", st.total["phase/fd"])
		add("engine.cube_build_s", st.self["engine/cube/build"]+st.self["engine/cube/shard"])
		add("stats.busy_s", st.total["phase/stats"])
		add("stats.draw_s", st.self["stats/pair/permblock"])
		add("stats.eval_s", st.self["stats/pair/permeval"])
		add("stats.tests", m["stats_insights_tested_total"])
		add("stats.perm_blocks", m["stats_perm_blocks_drawn_total"])
		add("stats.sig_ratio", ratio(m["stats_insights_significant_total"], m["stats_insights_tested_total"]))
		add("pipeline.stats_share", ratio(st.total["phase/stats"], total))
		add("pipeline.hypo_share", ratio(st.total["phase/hypo"], total))
		add("pipeline.hypo_s", st.total["phase/hypo"])
		add("insight.eval_s", st.self["hypo/eval"])
		add("pipeline.hypo_queries", m["hypo_queries_generated_total"])
		add("tap.busy_s", st.total["phase/tap"])
		add("tap.nodes", m["tap_nodes_expanded_total"])
		if raw := m["table_encode_bytes_raw"]; raw > 0 {
			add("table.encoded_ratio", m["table_encode_bytes_encoded"]/raw)
		}
		jobs++
	}
	if jobs == 0 {
		return errors.New("traced run completed no traced jobs")
	}
	for _, d := range perLayerMetrics {
		if vals := per[d.name]; len(vals) > 0 {
			layers[d.name] = median(vals)
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is not positive (JSON has no NaN or
// infinity).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
